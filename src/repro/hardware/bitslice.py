"""Bit-slicing of integer operands for crossbar storage (paper Fig. 2).

A ReRAM cell stores only ``h`` bits (typically 2), so a ``b``-bit operand
is split into ``ceil(b/h)`` slices stored in adjacent cells of the same
row. Symmetrically, an input (multiplicand) is fed to the DACs ``g`` bits
at a time over several cycles. The exact dot product is recovered by the
shift-and-add (S&A) unit:

``x = sum_j slice_j * 2**(j*h)``  and similarly for inputs, so

``p . q = sum_{j,k} (P_j . Q_k) * 2**(j*h + k*g)``

where ``P_j`` is the matrix of j-th operand slices and ``Q_k`` the k-th
input slice. All helpers operate on NumPy integer arrays and are the
single source of truth used by :class:`repro.hardware.crossbar.Crossbar`.

The helpers are fully vectorised (broadcast shifts and one weight
contraction instead of per-slice Python loops); the original loops live
in :mod:`repro.oracle`. Both compute in 64-bit wrap-around (mod 2**64)
arithmetic, which is associative and commutative, so the two always
agree bit for bit — the fusion property suite asserts exactly that.

:class:`ExactMatrix` holds a programmed matrix for every array wave: the
same exact mod-2**64 dot products, run on float64 BLAS (the BLAS-wave
property suite pins it to the int64 matmul, and the fusion suite to the
cell-level crossbar loop).
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperandError


#: float64 represents every integer in ``[0, 2**53]`` exactly
FLOAT64_EXACT_MAX = 1 << 53


def check_non_negative_integers(values: np.ndarray, bits: int) -> int:
    """Validate that ``values`` are PIM-compatible operands.

    ReRAM analog computation only supports non-negative integers of
    limited width; anything else raises :class:`OperandError`. Returns
    the largest value (0 for an empty array), which the exact wave
    kernel uses to find the rows float64 cannot hold exactly.
    """
    if not np.issubdtype(np.asarray(values).dtype, np.integer):
        raise OperandError("PIM operands must have an integer dtype")
    if not values.size:
        return 0
    if int(values.min()) < 0:
        raise OperandError("PIM operands must be non-negative")
    peak = int(values.max())
    if peak >= (1 << bits):
        raise OperandError(
            f"PIM operand exceeds {bits}-bit width: max={peak}"
        )
    return peak


def num_slices(operand_bits: int, slice_bits: int) -> int:
    """Number of ``slice_bits``-wide slices needed for ``operand_bits``."""
    if operand_bits <= 0 or slice_bits <= 0:
        raise OperandError("bit widths must be positive")
    return -(-operand_bits // slice_bits)


def slice_operands(values: np.ndarray, operand_bits: int, slice_bits: int) -> np.ndarray:
    """Split integers into little-endian slices of ``slice_bits`` each.

    Parameters
    ----------
    values:
        Integer array of any shape, each value < ``2**operand_bits``.
    operand_bits:
        Declared operand width ``b``.
    slice_bits:
        Cell (or DAC) precision ``h``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``values.shape + (num_slices,)`` where slice ``j``
        holds bits ``[j*h, (j+1)*h)`` of the original value.
    """
    values = np.asarray(values)
    check_non_negative_integers(values, operand_bits)
    n = num_slices(operand_bits, slice_bits)
    mask = np.uint64((1 << slice_bits) - 1)
    work = values.astype(np.uint64)
    shifts = np.arange(n, dtype=np.uint64) * np.uint64(slice_bits)
    return (work[..., np.newaxis] >> shifts) & mask


def reconstruct(slices: np.ndarray, slice_bits: int) -> np.ndarray:
    """Inverse of :func:`slice_operands`: shift-and-add slices back.

    The last axis of ``slices`` is the slice axis. Addition wraps mod
    2**64, so the vectorised reduction is bit-identical to the
    sequential loop for any summation order.
    """
    slices = np.asarray(slices, dtype=np.uint64)
    n = slices.shape[-1]
    shifts = np.arange(n, dtype=np.uint64) * np.uint64(slice_bits)
    return np.asarray((slices << shifts).sum(axis=-1, dtype=np.uint64))


def _shift_weights(
    n_op: int, n_in: int, operand_slice_bits: int, input_slice_bits: int
) -> np.ndarray:
    """``2**(j*h + k*g)`` weight matrix of the S&A unit, mod 2**64."""
    shifts = (
        np.arange(n_op, dtype=np.uint64)[:, np.newaxis]
        * np.uint64(operand_slice_bits)
        + np.arange(n_in, dtype=np.uint64)[np.newaxis, :]
        * np.uint64(input_slice_bits)
    )
    return np.uint64(1) << shifts


def shift_add_partials(
    partials: np.ndarray, operand_slice_bits: int, input_slice_bits: int
) -> np.ndarray:
    """Combine per-(operand-slice, input-slice) dot-product partials.

    ``partials`` has shape ``(n_operand_slices, n_input_slices, ...)`` and
    entry ``[j, k]`` is the integer dot product of the j-th operand slice
    matrix with the k-th input slice vector. The combined exact result is
    ``sum_{j,k} partials[j, k] << (j*h + k*g)`` — exactly what the S&A
    circuit of Fig. 2 produces.

    Implemented as one contraction with the ``2**(j*h+k*g)`` weight
    matrix: ``x << s == x * 2**s (mod 2**64)``, and mod-2**64 arithmetic
    is a commutative ring, so this matches the shift-and-accumulate loop
    bit for bit.
    """
    partials = np.asarray(partials, dtype=np.int64)
    if partials.ndim < 2:
        raise OperandError("partials must have operand- and input-slice axes")
    n_op, n_in = partials.shape[0], partials.shape[1]
    weights = _shift_weights(
        n_op, n_in, operand_slice_bits, input_slice_bits
    ).reshape(n_op * n_in)
    flat = partials.astype(np.uint64).reshape((n_op * n_in,) + partials.shape[2:])
    total = np.tensordot(weights, flat, axes=([0], [0]))
    # ascontiguousarray promotes 0-d to 1-d; reshape restores the rank
    out = np.ascontiguousarray(total).view(np.int64)
    return out.reshape(partials.shape[2:])


def truncate_result(values: np.ndarray, accumulator_bits: int) -> np.ndarray:
    """Keep the least-significant ``accumulator_bits`` of PIM results.

    The paper keeps the least-significant 64 bits of dot-product results
    (32 bits for binary codes) to match the host word width.
    """
    if accumulator_bits >= 64:
        return np.asarray(values, dtype=np.int64)
    mask = np.uint64((1 << accumulator_bits) - 1)
    return (np.asarray(values).astype(np.uint64) & mask).astype(np.int64)


#: source rows per block of :func:`_transposed_cast`
_TRANSPOSE_BLOCK = 128


def _transposed_cast(matrix: np.ndarray, dtype) -> np.ndarray:
    """``matrix.T`` cast to ``dtype`` as a fresh C-contiguous array.

    Casts and transposes a block of source rows at a time, so each
    block's reads stay in cache and the only full-size buffer is the
    result: a one-call ``np.array(matrix.T, dtype, order="C")`` strides
    through the whole source per output row (about 4x slower on a
    3000x840 matrix), and casting first then transposing holds two
    full copies at once.
    """
    out = np.empty(matrix.shape[::-1], dtype=dtype)
    for i in range(0, matrix.shape[0], _TRANSPOSE_BLOCK):
        out[:, i : i + _TRANSPOSE_BLOCK] = matrix[i : i + _TRANSPOSE_BLOCK].T
    return out


class ExactMatrix:
    """A programmed operand matrix held for exact float64-BLAS waves.

    NumPy has no BLAS kernel for int64, so an integer matmul runs as a
    scalar loop. This class holds the resident matrix as float64
    instead, and every wave is exact:

    * every operand is a non-negative integer, so every product and every
      partial sum of a dot product is an integer no larger than the full
      dot product, whatever order BLAS sums in;
    * float64 represents every integer up to ``2**53``, so a row with
      ``max(query) * row_sum <= 2**53`` is computed without a single
      rounding, bit-identical to the int64 matmul and independent of
      the batch shape;
    * rows past that bound (a verified shard's checksum row, 32-bit
      quantizers) are recomputed with the int64 matmul, which wraps
      mod 2**64.

    The matrix is stored transposed, as a C-contiguous ``(dims,
    n_vectors)`` array, so a wave is the plain product ``queries @
    values``: with ``(n_vectors, dims)`` storage BLAS receives a
    transposed operand, and its small-batch kernels for that layout make
    a 2-query wave about twice as slow as on this one.

    A matrix whose row sums can exceed ``2**53`` (only possible with
    operands wider than about 40 bits) keeps int64 storage and the
    integer matmul. Either way the matrix is held once:
    :meth:`to_int64` converts back on demand.
    """

    __slots__ = ("values", "row_sums", "row_sum_max")

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix)
        peak = int(matrix.max()) if matrix.size else 0
        #: exact per-row sums and their max; ``None`` on the int64 fallback
        self.row_sums: np.ndarray | None = None
        self.row_sum_max: int | None = None
        if peak * matrix.shape[1] < 1 << 63:  # the int64 sums cannot wrap
            sums = matrix.sum(axis=1, dtype=np.int64)
            top = int(sums.max(initial=0))
            if top <= FLOAT64_EXACT_MAX:
                self.row_sums, self.row_sum_max = sums, top
        #: the ``(dims, n_vectors)`` resident matrix
        self.values = _transposed_cast(
            matrix, np.int64 if self.row_sums is None else np.float64
        )

    def to_int64(self) -> np.ndarray:
        """The ``(n_vectors, dims)`` matrix as a fresh int64 array."""
        return np.array(self.values.T, dtype=np.int64, order="C")

    def dot(self, queries: np.ndarray, query_max: int) -> np.ndarray:
        """``queries @ matrix.T`` mod 2**64 as int64, shape ``(B, n_vectors)``.

        ``queries`` is a ``(B, dims)`` array of non-negative integers and
        ``query_max`` its largest value, as
        :func:`check_non_negative_integers` returns it.
        """
        if self.row_sums is None:
            return queries.astype(np.int64) @ self.values
        raw = queries.astype(np.float64) @ self.values
        limit = FLOAT64_EXACT_MAX // max(query_max, 1)  # widest exact row
        if self.row_sum_max <= limit:
            return raw.astype(np.int64)
        wide = np.flatnonzero(self.row_sums > limit)
        raw[:, wide] = 0.0  # rounded there; recomputed exactly below
        out = raw.astype(np.int64)
        wide_cols = self.values[:, wide].astype(np.int64)
        out[:, wide] = queries.astype(np.int64) @ wide_cols
        return out

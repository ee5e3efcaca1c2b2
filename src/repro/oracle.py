"""Slow loop oracles of every vectorised wave and serving kernel.

Each fast kernel (broadcast bit-slicing, the one-contraction crossbar
wave, the exact float64-BLAS array waves of both substrates,
block-scored refinement and the certified assign sweep) replaced a
plain loop that is easy to check by eye. Those loops live here, and the
property suites and perf benches diff every kernel against them bit for
bit: values, refined/pruned counts and simulated nanoseconds.

The oracle devices (:class:`LoopPIMArray`, :class:`LoopHBMPIMArray`,
:class:`LoopShardManager`) subclass their production class and
override only its kernel hooks (:class:`LoopPIMArray` also writes its
crossbar cells at placement). Dispatch, placement, wear, timing, stats,
fault injection and the recovery ledger are inherited, so a diff checks
the kernel alone. Production code never imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.bounds.pim import theorem1_lower_bound
from repro.errors import OperandError
from repro.hardware.banked_memory import BankLayout
from repro.hardware.bitslice import check_non_negative_integers, num_slices
from repro.hardware.config import HBMPIMConfig, PIMArrayConfig
from repro.hardware.crossbar import Crossbar, WaveResult
from repro.hardware.mapper import vectors_per_crossbar
from repro.hardware.pim_array import PIMArray
from repro.kernels import exact_sq_distances
from repro.serving.sharding import ShardManager
from repro.substrate.hbm_pim import HBMPIMArray


# ----------------------------------------------------------------------
# bit-slicing
# ----------------------------------------------------------------------
def slice_operands_reference(
    values: np.ndarray, operand_bits: int, slice_bits: int
) -> np.ndarray:
    """Loop oracle for :func:`~repro.hardware.bitslice.slice_operands`."""
    values = np.asarray(values)
    check_non_negative_integers(values, operand_bits)
    n = num_slices(operand_bits, slice_bits)
    mask = (1 << slice_bits) - 1
    work = values.astype(np.uint64)
    slices = np.empty(values.shape + (n,), dtype=np.uint64)
    for j in range(n):
        slices[..., j] = (work >> np.uint64(j * slice_bits)) & np.uint64(mask)
    return slices


def reconstruct_reference(slices: np.ndarray, slice_bits: int) -> np.ndarray:
    """Loop oracle for :func:`~repro.hardware.bitslice.reconstruct`."""
    slices = np.asarray(slices, dtype=np.uint64)
    total = np.zeros(slices.shape[:-1], dtype=np.uint64)
    for j in range(slices.shape[-1]):
        total += slices[..., j] << np.uint64(j * slice_bits)
    return total


def shift_add_partials_reference(
    partials: np.ndarray, operand_slice_bits: int, input_slice_bits: int
) -> np.ndarray:
    """Loop oracle for :func:`~repro.hardware.bitslice.shift_add_partials`."""
    partials = np.asarray(partials, dtype=np.int64)
    if partials.ndim < 2:
        raise OperandError("partials must have operand- and input-slice axes")
    total = np.zeros(partials.shape[2:], dtype=np.int64)
    for j in range(partials.shape[0]):
        for k in range(partials.shape[1]):
            shift = j * operand_slice_bits + k * input_slice_bits
            total += partials[j, k] << np.int64(shift)
    return total


# ----------------------------------------------------------------------
# crossbar and PIM array
# ----------------------------------------------------------------------
def crossbar_dot_loop(
    xbar: Crossbar, query: np.ndarray, input_bits: int
) -> WaveResult:
    """One crossbar wave, one analog MAC per DAC input slice.

    Every column sees the same input slice; the sequential shift-add
    oracle combines the ``(operand-slice, input-slice)`` partials.
    """
    grouped = xbar.grouped_cells()
    config = xbar.config
    q_slices = slice_operands_reference(query, input_bits, config.dac_bits)
    _, n_vectors, n_op = grouped.shape
    n_in = q_slices.shape[-1]
    partials = np.empty((n_op, n_in, n_vectors), dtype=np.int64)
    for k in range(n_in):
        q_k = q_slices[:, k].astype(np.int64)
        partials[:, k, :] = np.einsum("r,rvj->jv", q_k, grouped)
    values = shift_add_partials_reference(
        partials, config.cell_bits, config.dac_bits
    )
    return WaveResult(
        values=values, cycles=n_in, adc_conversions=n_in * n_vectors * n_op
    )


def _program_cells(
    matrix: np.ndarray, config: PIMArrayConfig
) -> list[list[Crossbar]]:
    """Shard ``matrix`` over real crossbar objects, layout order.

    One column of crossbars per block of ``vectors_per_crossbar``
    vectors, one crossbar per ``rows`` dimensions. The crossbars carry
    no endurance tracker: the array they stand in for books the wear.
    """
    rows = config.crossbar.rows
    per_xbar = vectors_per_crossbar(config)
    n_vectors, dims = matrix.shape
    shards = []
    for v0 in range(0, n_vectors, per_xbar):
        column = []
        for d0 in range(0, dims, rows):
            xbar = Crossbar(config.crossbar)
            xbar.program(
                matrix[v0 : v0 + per_xbar, d0 : d0 + rows],
                config.operand_bits,
            )
            column.append(xbar)
        shards.append(column)
    return shards


class LoopPIMArray(PIMArray):
    """Cell-level PIM array whose waves loop over its crossbars.

    Every programmed matrix is also written once onto real
    :class:`~repro.hardware.crossbar.Crossbar` objects. Each query row
    is evaluated crossbar by crossbar with :func:`crossbar_dot_loop`,
    and the partial sums of the crossbars stacked along one vector
    block are added up. Unit ids, endurance writes and spare remaps
    are the production array's. Orders of magnitude slower than the
    BLAS wave; meant for small geometries and as the perf-trajectory
    baseline.
    """

    def _place(self, name: str, matrix: np.ndarray):
        record = super()._place(name, matrix)
        record.crossbars = _program_cells(matrix, self.config)
        return record

    def _raw_values(self, record, vectors: np.ndarray, bits: int, peak: int):
        rows = self.config.crossbar.rows
        out = []
        for vector in vectors:
            blocks = []
            for column in record.crossbars:
                total = None
                for i, xbar in enumerate(column):
                    segment = vector[i * rows : (i + 1) * rows]
                    values = crossbar_dot_loop(xbar, segment, bits).values
                    total = values if total is None else total + values
                blocks.append(total)
            out.append(np.concatenate(blocks))
        return np.vstack(out)


# ----------------------------------------------------------------------
# HBM-PIM
# ----------------------------------------------------------------------
# the int64 scalar adds wrap mod 2**64 as the fast path's int64 matmul
# does: the wrap is the accumulator's, so NumPy's overflow warning is off
# inside this loop oracle only
@np.errstate(over="ignore")
def bank_dot_loop(
    matrix: np.ndarray,
    layout: BankLayout,
    config: HBMPIMConfig,
    queries: np.ndarray,
) -> np.ndarray:
    """Execute the MOV/FILL/MAC stream per bank, burst by burst.

    Bank ``j`` holds vectors ``[j*vpb, (j+1)*vpb)``, zero-padded to
    whole bursts: exactly what its MAC unit streams out of the open row.
    The loop nests mirror the all-bank lockstep command order: per GRF
    segment, the query bursts are MOVed into the GRF once and reused by
    every resident vector's MACs. Accumulators are int64 and wrap like
    the hardware; truncation to the accumulator width is the caller's
    job, as on the fast path. Returns ``(B, n_vectors)`` raw values.
    """
    be = config.burst_elems(layout.operand_bits)
    width = layout.bursts_per_vector * be
    rows = np.zeros((matrix.shape[0], width), dtype=np.int64)
    rows[:, : matrix.shape[1]] = matrix
    queries = np.atleast_2d(queries).astype(np.int64)
    grf_in = np.zeros((queries.shape[0], width), dtype=np.int64)
    grf_in[:, : queries.shape[1]] = queries
    vpb = layout.vectors_per_bank
    out = np.zeros((queries.shape[0], layout.n_vectors), dtype=np.int64)
    for b, q in enumerate(grf_in):
        for bank in range(layout.n_data_banks):
            resident = rows[bank * vpb : (bank + 1) * vpb]
            acc = np.zeros(resident.shape[0], dtype=np.int64)  # FILL
            for seg in range(layout.grf_segments):
                lo = seg * config.grf_entries
                hi = min(lo + config.grf_entries, layout.bursts_per_vector)
                for burst in range(lo, hi):  # MOV: one query burst
                    sl = slice(burst * be, (burst + 1) * be)
                    for v in range(resident.shape[0]):  # MAC
                        acc[v] += np.dot(resident[v, sl], q[sl])
            out[b, bank * vpb : bank * vpb + acc.size] = acc  # result MOVs
    return out


class LoopHBMPIMArray(HBMPIMArray):
    """HBM-PIM stack whose waves execute the MAC instruction stream."""

    def _raw_values(self, record, vectors: np.ndarray, bits: int, peak: int):
        return bank_dot_loop(
            record.matrix.to_int64(), record.layout, self.config, vectors
        )


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class _CanonicalHeap:
    """The k smallest candidates by ``(score, global index)`` lex order.

    Ties always resolve to the lowest global index — the property that
    makes merged shard results placement-invariant, and the rule every
    top-k of :mod:`repro.kernels` keeps.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (-score, -index)

    @property
    def threshold(self) -> float:
        """Current k-th best score (+inf while not yet full)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def offer(self, score: float, index: int) -> bool:
        """Insert if ``(score, index)`` beats the current worst member."""
        entry = (-score, -index)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def sorted_items(self) -> list[tuple[float, int]]:
        """Members as ``(score, index)``, canonical order."""
        return sorted((-s, -i) for s, i in self._heap)


class LoopShardManager(ShardManager):
    """Shard manager whose host-side kernels loop one candidate at a time.

    Bounds are built one query (or one row) at a time, candidates are
    visited in the full ``lexsort((gidx, lb))`` order, and every exact
    score is one :func:`~repro.kernels.exact_sq_distances` call
    on one row.
    """

    def _knn_bounds(self, phi, phi_q, dots):
        return np.stack(
            [
                theorem1_lower_bound(
                    phi, float(q), row, self.dims, self.quantizer.alpha
                )
                for q, row in zip(phi_q, dots)
            ]
        )

    def _refine_scan(self, shard, sel, gidx, lb, q_norm, k):
        floats = shard.floats if sel is None else shard.floats[sel]
        heap = _CanonicalHeap(k)
        refined = 0
        for j in np.lexsort((gidx, lb)):
            if lb[j] > heap.threshold:
                break  # ascending lb: the rest prune too
            score = float(exact_sq_distances(floats[j], q_norm)[0])
            heap.offer(score, int(gidx[j]))
            refined += 1
        items = heap.sorted_items()
        return (
            np.array([s for s, _ in items], dtype=np.float64),
            np.array([i for _, i in items], dtype=np.int64),
            refined,
        )

    def _degraded_scores(self, floats, q_norm):
        return np.array(
            [float(exact_sq_distances(row, q_norm)[0]) for row in floats]
        )

    def _assign_rows(self, shard, sel, dots, c_norm, phi_c):
        idx = np.arange(shard.n_rows) if sel is None else sel
        best_c = np.zeros(idx.size, dtype=np.int64)
        best_d = np.full(idx.size, np.inf)
        refined = 0
        for col, j in enumerate(idx):
            lb = theorem1_lower_bound(
                shard.phi[j], phi_c, dots[:, col], self.dims,
                self.quantizer.alpha,
            )
            for c in range(c_norm.shape[0]):
                if lb[c] > best_d[col]:
                    continue
                d = float(exact_sq_distances(shard.floats[j], c_norm[c])[0])
                refined += 1
                if d < best_d[col]:
                    best_d[col] = d
                    best_c[col] = c
        return best_c, best_d, refined

    def _degraded_assign(self, floats, c_norm):
        best_c = np.zeros(len(floats), dtype=np.int64)
        best_d = np.full(len(floats), np.inf)
        for j, row in enumerate(floats):
            for c, center in enumerate(c_norm):
                d = float(exact_sq_distances(row, center)[0])
                if d < best_d[j]:
                    best_d[j] = d
                    best_c[j] = c
        return best_c, best_d

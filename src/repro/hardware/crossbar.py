"""Functional model of a single ReRAM crossbar (paper Section II-A).

A crossbar is an ``m x m`` grid of multi-level cells. Vectors are
pre-programmed along bitlines (columns); injecting a voltage-encoded
input vector on the wordlines (rows) produces, per column, the analog
dot product of the input with that column — all columns concurrently.

Because one cell only stores ``h`` bits and one DAC only drives ``g``
input bits per cycle, wide operands are *bit-sliced*: an operand occupies
``ceil(b/h)`` adjacent columns and an input is applied over
``ceil(b/g)`` cycles; the shift-and-add unit reconstructs the exact
integer result (Fig. 2). This module implements that faithfully —
results are bit-exact against NumPy integer dot products, which the test
suite verifies — while also reporting the cycle counts the timing model
charges for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OperandError, ProgrammingError
from repro.hardware import bitslice
from repro.hardware.config import CrossbarConfig
from repro.hardware.endurance import EnduranceTracker


@dataclass(frozen=True)
class WaveResult:
    """Outcome of one dot-product wave on a crossbar.

    Attributes
    ----------
    values:
        Integer dot product per programmed column group.
    cycles:
        Crossbar read cycles consumed (input slices; the per-column and
        per-operand-slice work happens concurrently in the analog domain).
    adc_conversions:
        Number of ADC sample conversions performed (for energy models).
    """

    values: np.ndarray
    cycles: int
    adc_conversions: int


class Crossbar:
    """One ReRAM crossbar holding bit-sliced operand columns.

    Parameters
    ----------
    config:
        Geometry and device parameters.
    crossbar_id:
        Identifier used by the endurance tracker.
    endurance_tracker:
        Shared tracker; ``None`` disables endurance accounting.
    """

    def __init__(
        self,
        config: CrossbarConfig | None = None,
        crossbar_id: int = 0,
        endurance_tracker: EnduranceTracker | None = None,
    ) -> None:
        self.config = config if config is not None else CrossbarConfig()
        self.crossbar_id = crossbar_id
        self._endurance = endurance_tracker
        self._cells = np.zeros(
            (self.config.rows, self.config.cols), dtype=np.uint8
        )
        self._operand_bits: int | None = None
        self._num_vectors = 0
        self._rows_used = 0
        self._programmed = False

    # ------------------------------------------------------------------
    # programming
    # ------------------------------------------------------------------
    @property
    def is_programmed(self) -> bool:
        """Whether operand data has been programmed onto the crossbar."""
        return self._programmed

    @property
    def num_vectors(self) -> int:
        """How many operand vectors are stored (column groups in use)."""
        return self._num_vectors

    def vectors_capacity(self, operand_bits: int) -> int:
        """How many ``operand_bits``-wide vectors fit side by side."""
        slices = bitslice.num_slices(operand_bits, self.config.cell_bits)
        return self.config.cols // slices

    def program(self, matrix: np.ndarray, operand_bits: int) -> None:
        """Program operand vectors as bit-sliced columns.

        Parameters
        ----------
        matrix:
            ``(n_vectors, dims)`` non-negative integer array; vector ``i``
            becomes the ``i``-th column group. ``dims`` must not exceed the
            row count and ``n_vectors`` must fit after slicing.
        operand_bits:
            Width ``b`` of each operand element.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise OperandError("program() expects a 2-D (vectors x dims) array")
        n_vectors, dims = matrix.shape
        if dims > self.config.rows:
            raise OperandError(
                f"vector dimensionality {dims} exceeds crossbar rows "
                f"{self.config.rows}"
            )
        if n_vectors > self.vectors_capacity(operand_bits):
            raise OperandError(
                f"{n_vectors} vectors exceed crossbar column capacity "
                f"{self.vectors_capacity(operand_bits)}"
            )
        slices = bitslice.slice_operands(
            matrix, operand_bits, self.config.cell_bits
        )
        n_slices = slices.shape[-1]
        self._cells[:] = 0
        for i in range(n_vectors):
            cols = slice(i * n_slices, (i + 1) * n_slices)
            self._cells[:dims, cols] = slices[i].astype(np.uint8)
        self._operand_bits = operand_bits
        self._num_vectors = n_vectors
        self._rows_used = dims
        self._programmed = True
        if self._endurance is not None:
            self._endurance.record_write(self.crossbar_id)
        self._apply_cell_faults()

    def _apply_cell_faults(self) -> None:
        """Hook invoked after programming; the base crossbar is fault-free.

        :class:`~repro.faults.injectors.FaultyCrossbar` overrides this to
        pin a seeded subset of cells to a stuck value, modelling
        stuck-at-0/1 ReRAM defects at the physical bit-slice level.
        """

    def reset(self) -> None:
        """Erase the crossbar (counts as one write cycle)."""
        self._cells[:] = 0
        self._programmed = False
        self._num_vectors = 0
        self._rows_used = 0
        self._operand_bits = None
        if self._endurance is not None:
            self._endurance.record_write(self.crossbar_id)

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    def grouped_cells(self) -> np.ndarray:
        """The programmed cells as int64 ``(rows, vectors, operand-slices)``.

        The layout every wave kernel (and :meth:`stored_matrix`) reads.
        """
        if not self._programmed or self._operand_bits is None:
            raise ProgrammingError("crossbar has no programmed data")
        n_op = bitslice.num_slices(self._operand_bits, self.config.cell_bits)
        cells = self._cells[: self._rows_used, : self._num_vectors * n_op]
        return cells.astype(np.int64).reshape(
            self._rows_used, self._num_vectors, n_op
        )

    def dot_product(
        self, query: np.ndarray, input_bits: int | None = None
    ) -> WaveResult:
        """Compute the dot product of ``query`` with every stored vector.

        The query is DAC-sliced into ``ceil(b/g)`` input waves; per wave
        the analog array yields per-column partial sums which the S&H/ADC
        pipeline digitises and the S&A unit shifts into the accumulator.
        All (operand-slice, input-slice) partials come from one
        contraction; :func:`repro.oracle.crossbar_dot_loop` is the
        one-input-slice-at-a-time loop it is checked against.

        Parameters
        ----------
        query:
            Non-negative integer vector of the programmed dimensionality.
        input_bits:
            Width of query elements; defaults to the programmed operand
            width.

        Returns
        -------
        WaveResult
            Exact integer dot products plus consumed cycles.
        """
        grouped = self.grouped_cells()
        query = np.asarray(query)
        if query.ndim != 1 or query.shape[0] != self._rows_used:
            raise OperandError(
                f"query must be a vector of length {self._rows_used}"
            )
        bits = input_bits if input_bits is not None else self._operand_bits
        q_slices = bitslice.slice_operands(query, bits, self.config.dac_bits)
        n_in = q_slices.shape[-1]
        partials = np.einsum(
            "rk,rvj->jkv", q_slices.astype(np.int64), grouped
        )
        values = bitslice.shift_add_partials(
            partials, self.config.cell_bits, self.config.dac_bits
        )
        return WaveResult(
            values=values,
            cycles=n_in,
            adc_conversions=n_in * grouped.shape[1] * grouped.shape[2],
        )

    def stored_matrix(self) -> np.ndarray:
        """Reconstruct the programmed ``(n_vectors, dims)`` matrix.

        Used by tests to verify lossless programming.
        """
        grouped = self.grouped_cells().transpose(1, 0, 2)
        return bitslice.reconstruct(grouped, self.config.cell_bits).astype(
            np.int64
        )

"""The HBM-PIM bank-level-MAC substrate (fully simulated).

:class:`HBMPIMArray` implements the
:class:`~repro.substrate.protocol.Substrate` protocol over the banked
structural model in :mod:`repro.hardware.banked_memory`: matrices are
block-distributed across MAC-equipped DRAM banks, every wave is an
all-bank lockstep MOV/FILL/MAC/drain command stream priced by
per-command DRAM timing, and arithmetic is digital int64 truncated to
the accumulator width — bit-identical to the crossbar substrate and to
the instruction-stream oracle (:class:`repro.oracle.LoopHBMPIMArray`) by
construction.

The class mirrors the :class:`~repro.hardware.pim_array.PIMArray`
surface (including the crossbar-era ``crossbar_ids_of`` /
``remap_crossbar(s)`` names, which a bank id answers as well) so the
fault injectors, the repair controller and the stats aggregation all
run unmodified on banks; backend-specific activity (MAC commands, row
activations, ...) lands in ``stats.extra`` instead of new fields.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import (
    CapacityError,
    ConfigurationError,
    OperandError,
    ProgrammingError,
)
from repro.hardware import bitslice
from repro.hardware.banked_memory import (
    BankLayout,
    bank_batch_timing,
    bank_instruction_counts,
    bank_program_ns,
    bank_wave_timing,
    plan_bank_layout,
)
from repro.hardware.buffer import BufferArray
from repro.hardware.config import (
    HardwareConfig,
    HBMPIMConfig,
    hbm_pim_platform,
)
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.energy import EnergyModel
from repro.hardware.pim_array import (
    PIMBatchResult,
    PIMQueryResult,
    PIMStats,
)
from repro.substrate.protocol import SubstrateCapabilities
from repro.telemetry import get_recorder


def hbm_config_for(hardware: HardwareConfig) -> HBMPIMConfig:
    """The HBM-PIM stack description of a platform.

    An explicit ``hardware.hbm`` wins; otherwise a default stack is
    derived, mirroring the platform's PIM operand/accumulator widths so
    quantized datasets (including 1-bit Hamming codes) transfer between
    substrates without re-quantization.
    """
    if hardware.hbm is not None:
        return hardware.hbm
    base = HBMPIMConfig()
    if hardware.pim is not None and (
        hardware.pim.operand_bits != base.operand_bits
        or hardware.pim.accumulator_bits != base.accumulator_bits
    ):
        base = dataclasses.replace(
            base,
            operand_bits=hardware.pim.operand_bits,
            accumulator_bits=hardware.pim.accumulator_bits,
        )
    return base


class _BankedMatrix:
    """Internal record of one programmed matrix on the banks."""

    def __init__(
        self,
        matrix: bitslice.ExactMatrix,
        layout: BankLayout,
        bank_ids: list[int],
        bytes_per_bank: int,
    ) -> None:
        self.matrix = matrix
        self.layout = layout
        self.bank_ids = bank_ids  # block j of vectors lives on bank_ids[j]
        self.bytes_per_bank = bytes_per_bank


class HBMPIMArray:
    """Bank-level-MAC HBM-PIM stack serving exact dot-product waves.

    Parameters
    ----------
    hardware:
        Platform description. The stack geometry comes from
        :func:`hbm_config_for`; defaults to
        :func:`~repro.hardware.config.hbm_pim_platform`.
    spare_banks:
        Banks withheld from data placement as a repair pool, mirroring
        the crossbar spare-pool semantics (least-worn spare chosen on
        remap, retired ids never reused).
    """

    unit_name = "bank"

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        spare_banks: int = 0,
    ) -> None:
        self.hardware = (
            hardware if hardware is not None else hbm_pim_platform()
        )
        self.config: HBMPIMConfig = hbm_config_for(self.hardware)
        self.buffer = BufferArray(self.hardware.memory)
        self.endurance = EnduranceTracker(self.config.endurance)
        self.stats = PIMStats(backend="hbm_pim")
        self._matrices: dict[str, _BankedMatrix] = {}
        self.spare_banks = int(spare_banks)
        if self.spare_banks < 0:
            raise ConfigurationError("spare_banks must be non-negative")
        if self.spare_banks >= self.config.total_banks:
            raise CapacityError(
                f"{self.spare_banks} spare banks leave no data banks "
                f"(stack has {self.config.total_banks})"
            )
        # spares take the first physical ids, like the crossbar pool
        self._spare_ids: list[int] = list(range(self.spare_banks))
        self._data_bank_ids: list[int] = list(
            range(self.spare_banks, self.config.total_banks)
        )
        self._bank_bytes_used: dict[int, int] = {
            b: 0 for b in self._data_bank_ids
        }
        self.data_capacity = len(self._data_bank_ids)
        self.remap_table: dict[int, int] = {}
        self._retired_ids: set[int] = set()

    # alias kept for call sites written against the crossbar name
    @property
    def spare_crossbars(self) -> int:
        return self.spare_banks

    # ------------------------------------------------------------------
    # programming (offline stage)
    # ------------------------------------------------------------------
    def program_matrix(
        self, name: str, matrix: np.ndarray, input_bits: int | None = None
    ) -> BankLayout:
        """Program a named ``(n_vectors, dims)`` integer matrix.

        Vectors are block-distributed over the least-loaded data banks;
        programming is plain DRAM writes (burst-paced, rows opened
        once), so it is orders of magnitude cheaper than crossbar
        SET/RESET programming — the asymmetry the cost router exploits
        for churny placements.
        """
        if name in self._matrices:
            raise ProgrammingError(
                f"matrix {name!r} already programmed; reset it first"
            )
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2:
            raise OperandError("expected a 2-D (vectors x dims) matrix")
        bitslice.check_non_negative_integers(matrix, self.config.operand_bits)
        n_vectors, dims = matrix.shape
        layout = plan_bank_layout(
            n_vectors, dims, self.config, data_banks=len(self._data_bank_ids)
        )
        bytes_per_bank = (
            layout.vectors_per_bank
            * layout.bursts_per_vector
            * self.config.burst_bytes
        )
        # least-loaded banks first; ties resolve by physical id so the
        # placement is deterministic run to run
        candidates = sorted(
            self._data_bank_ids,
            key=lambda b: (self._bank_bytes_used[b], b),
        )[: layout.n_data_banks]
        over = [
            b
            for b in candidates
            if self._bank_bytes_used[b] + bytes_per_bank
            > self.config.bank_bytes
        ]
        if over:
            raise CapacityError(
                f"programming {name!r} would overflow {len(over)} banks "
                f"(need {bytes_per_bank} B/bank on {layout.n_data_banks} "
                "banks)"
            )
        bank_ids = sorted(candidates)
        for b in bank_ids:
            self._bank_bytes_used[b] += bytes_per_bank
            self.endurance.record_write(b)
        self._matrices[name] = _BankedMatrix(
            bitslice.ExactMatrix(matrix), layout, bank_ids, bytes_per_bank
        )
        self.stats.crossbars_used += layout.n_data_banks
        self.stats.matrices[name] = layout
        program_ns = bank_program_ns(layout, self.config)
        self.stats.programming_time_ns += program_ns
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.program", "pim_program",
                matrix=name, vectors=n_vectors, dims=dims,
                crossbars=layout.n_data_banks, substrate="hbm_pim",
            ):
                tele.advance(program_ns)
            tele.metrics.counter("pim.programmed_crossbars").add(
                layout.n_data_banks
            )
        return layout

    def reset_matrix(self, name: str) -> None:
        """Erase a programmed matrix, freeing its bank bytes."""
        record = self._matrices.pop(name, None)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        for b in record.bank_ids:
            if b in self._bank_bytes_used:
                self._bank_bytes_used[b] -= record.bytes_per_bank
        self.stats.crossbars_used -= record.layout.n_data_banks
        del self.stats.matrices[name]
        self.stats.per_matrix.pop(name, None)
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("pim.matrix_resets").add(1)

    def layouts(self) -> dict[str, BankLayout]:
        """Layouts of all programmed matrices."""
        return {name: rec.layout for name, rec in self._matrices.items()}

    def matrix_of(self, name: str) -> np.ndarray:
        """The int64 matrix currently programmed under ``name``.

        Converted from the resident float64 copy on each call.
        """
        return self._record(name).matrix.to_int64()

    # ------------------------------------------------------------------
    # capacity / placement
    # ------------------------------------------------------------------
    def units_needed(self, n_vectors: int, dims: int) -> int:
        """Banks a fresh ``(n_vectors, dims)`` matrix would spread over."""
        layout = plan_bank_layout(
            n_vectors, dims, self.config, data_banks=len(self._data_bank_ids)
        )
        return layout.n_data_banks

    def fits_matrix(
        self, n_vectors: int, dims: int, exclude: str | None = None
    ) -> bool:
        """Would a ``(n_vectors, dims)`` matrix fit alongside current data?"""
        try:
            layout = plan_bank_layout(
                n_vectors, dims, self.config,
                data_banks=len(self._data_bank_ids),
            )
        except CapacityError:
            return False
        need = (
            layout.vectors_per_bank
            * layout.bursts_per_vector
            * self.config.burst_bytes
        )
        usage = dict(self._bank_bytes_used)
        if exclude is not None and exclude in self._matrices:
            rec = self._matrices[exclude]
            for b in rec.bank_ids:
                usage[b] -= rec.bytes_per_bank
        loads = sorted(usage[b] for b in self._data_bank_ids)
        return all(
            load + need <= self.config.bank_bytes
            for load in loads[: layout.n_data_banks]
        )

    # ------------------------------------------------------------------
    # spare pool + remap table (repair layer)
    # ------------------------------------------------------------------
    @property
    def spares_remaining(self) -> int:
        """Spare banks still available for remapping."""
        return len(self._spare_ids)

    def unit_ids_of(self, name: str) -> list[int]:
        """Physical bank ids currently backing matrix ``name``."""
        record = self._matrices.get(name)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        return list(record.bank_ids)

    def crossbar_ids_of(self, name: str) -> list[int]:
        """Crossbar-era alias of :meth:`unit_ids_of` (repair layer)."""
        return self.unit_ids_of(name)

    def remap_crossbar(self, old_id: int) -> tuple[int, float]:
        """Remap one flagged bank onto the least-worn spare.

        Every matrix with vectors resident on ``old_id`` is rewritten
        onto the spare (DRAM burst writes, rows reopened); ``old_id`` is
        retired permanently. Returns ``(spare_id, reprogram_ns)``.
        """
        owners = [
            (name, rec)
            for name, rec in self._matrices.items()
            if old_id in rec.bank_ids
        ]
        if not owners:
            raise ProgrammingError(
                f"bank {old_id} backs no programmed matrix"
            )
        if not self._spare_ids:
            raise CapacityError(
                f"spare pool exhausted remapping bank {old_id}"
            )
        spare = min(
            self._spare_ids,
            key=lambda u: (self.endurance.write_count(u), u),
        )
        self._spare_ids.remove(spare)
        self.endurance.record_write(spare)
        cfg = self.config
        total_ns = 0.0
        moved_bytes = 0
        for name, rec in owners:
            rec.bank_ids[rec.bank_ids.index(old_id)] = spare
            moved_bytes += rec.bytes_per_bank
            bursts = rec.layout.vectors_per_bank * rec.layout.bursts_per_vector
            cycles = (
                rec.layout.rows_touched_per_bank
                * (cfg.trp_cycles + cfg.trcd_cycles)
                + bursts * cfg.write_burst_cycles
            )
            total_ns += cycles * cfg.tck_ns
        # the spare joins the data pool carrying the moved bytes; the
        # retired bank leaves it (all residents were just moved off)
        self._bank_bytes_used[spare] = (
            self._bank_bytes_used.get(spare, 0) + moved_bytes
        )
        self._bank_bytes_used.pop(old_id, None)
        if old_id in self._data_bank_ids:
            self._data_bank_ids.remove(old_id)
        if spare not in self._data_bank_ids:
            self._data_bank_ids.append(spare)
            self._data_bank_ids.sort()
        self.remap_table[old_id] = spare
        self._retired_ids.add(old_id)
        self.stats.programming_time_ns += total_ns
        self.stats.remaps += 1
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.remap", "pim_program",
                matrix=owners[0][0], old_crossbar=old_id, spare=spare,
                substrate="hbm_pim",
            ):
                tele.advance(total_ns)
            tele.metrics.counter("pim.remaps").add(1)
            tele.metrics.gauge("pim.spares_remaining").set(
                len(self._spare_ids)
            )
        return spare, total_ns

    def remap_crossbars(self, old_ids: list[int]) -> tuple[list[int], float]:
        """Remap several banks; returns the spares and total latency."""
        spares: list[int] = []
        total_ns = 0.0
        for old_id in old_ids:
            spare, ns = self.remap_crossbar(old_id)
            spares.append(spare)
            total_ns += ns
        return spares, total_ns

    def wear_report(self, top: int | None = None) -> dict:
        """Endurance wear summary of this stack's banks."""
        return self.endurance.wear_report(top=top)

    # ------------------------------------------------------------------
    # querying (online stage)
    # ------------------------------------------------------------------
    def _record(self, name: str) -> _BankedMatrix:
        record = self._matrices.get(name)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        return record

    def _values(
        self, record: _BankedMatrix, vectors: np.ndarray, input_bits
    ) -> np.ndarray:
        """Validated, truncated ``(B, n_vectors)`` accumulators of a wave.

        The kernel is :meth:`_raw_values`; truncation to the accumulator
        width is shared by every kernel.
        """
        bits = (
            input_bits if input_bits is not None else self.config.operand_bits
        )
        peak = bitslice.check_non_negative_integers(vectors, bits)
        if vectors.shape[-1] != record.layout.dims:
            raise OperandError(
                f"queries must have length {record.layout.dims}"
            )
        raw = self._raw_values(record, vectors, peak)
        return bitslice.truncate_result(raw, self.config.accumulator_bits)

    def _raw_values(
        self, record: _BankedMatrix, vectors: np.ndarray, peak: int
    ) -> np.ndarray:
        """Untruncated ``(B, n_vectors)`` accumulators of a wave.

        The exact float64-BLAS wave of
        :class:`~repro.hardware.bitslice.ExactMatrix` (the int64 matmul
        for rows whose dot products could pass ``2**53``).
        :class:`repro.oracle.LoopHBMPIMArray` overrides this hook with
        the per-bank, burst-level instruction stream; the property
        suites hold the two identical bit for bit.
        """
        return record.matrix.dot(vectors, peak)

    def _charge_extra(self, layout: BankLayout, n_queries: int) -> None:
        counts = bank_instruction_counts(layout, n_queries)
        banks = layout.n_data_banks
        self.stats.add_extra("mac_commands", counts["mac_commands"] * banks)
        self.stats.add_extra("mov_commands", counts["mov_commands"] * banks)
        self.stats.add_extra("fill_commands", counts["fill_commands"] * banks)
        self.stats.add_extra(
            "row_activations", counts["row_activations"] * banks
        )

    def query(
        self, name: str, vector: np.ndarray, input_bits: int | None = None
    ) -> PIMQueryResult:
        """Fire one all-bank wave for a single query vector."""
        record = self._record(name)
        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise OperandError(
                f"query must be a vector of length {record.layout.dims}"
            )
        values = self._values(record, vector[np.newaxis, :], input_bits)[0]
        timing = bank_wave_timing(record.layout, self.config, self.hardware)
        if values.nbytes <= self.buffer.free_bytes:
            self.buffer.push(values)
            self.buffer.pop()  # the host drains synchronously
        self.stats.waves += 1
        self.stats.pim_time_ns += timing.total_ns
        self.stats.results_produced += int(values.shape[0])
        state = self.stats.matrix_state(name)
        state.waves += 1
        state.pim_time_ns += timing.total_ns
        self._charge_extra(record.layout, 1)
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.wave", "pim_dispatch",
                matrix=name, queries=1, results=int(values.shape[0]),
                input_cycles=timing.input_cycles,
                gather_cycles=timing.gather_cycles,
                pipeline_cycles=timing.pipeline_cycles,
                crossbar_ns=timing.crossbar_ns,
                buffer_ns=timing.buffer_ns,
                substrate="hbm_pim",
            ):
                tele.advance(timing.total_ns)
        return PIMQueryResult(values=values, timing=timing)

    def query_many(
        self,
        name: str,
        vectors: np.ndarray,
        input_bits: int | None = None,
    ) -> PIMQueryResult:
        """One wave per row of ``vectors``, each charged separately."""
        record = self._record(name)
        vectors = np.atleast_2d(np.asarray(vectors))
        values = self._values(record, vectors, input_bits)
        timing = bank_wave_timing(record.layout, self.config, self.hardware)
        n_queries = vectors.shape[0]
        self.stats.waves += n_queries
        self.stats.pim_time_ns += timing.total_ns * n_queries
        self.stats.results_produced += int(values.size)
        state = self.stats.matrix_state(name)
        state.waves += n_queries
        state.pim_time_ns += timing.total_ns * n_queries
        self._charge_extra(record.layout, n_queries)
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.wave_train", "pim_dispatch",
                matrix=name, queries=n_queries, results=int(values.size),
                crossbar_ns=timing.crossbar_ns * n_queries,
                buffer_ns=timing.buffer_ns * n_queries,
                substrate="hbm_pim",
            ):
                tele.advance(timing.total_ns * n_queries)
        return PIMQueryResult(values=values, timing=timing)

    def query_batch(
        self,
        name: str,
        vectors: np.ndarray,
        input_bits: int | None = None,
    ) -> PIMBatchResult:
        """All rows of ``vectors`` in one dispatch; rows stay open.

        The batch amortizes the row-activation setup across queries —
        the banked analogue of the crossbar's pipeline-setup
        amortization — so ``batch_saved_ns`` accounts the same way.
        """
        record = self._record(name)
        vectors = np.atleast_2d(np.asarray(vectors))
        values = self._values(record, vectors, input_bits)
        n_queries = vectors.shape[0]
        timing = bank_batch_timing(
            record.layout, self.config, self.hardware, n_queries
        )
        single = bank_wave_timing(record.layout, self.config, self.hardware)
        self.buffer.pulse_rows(values)  # the host drains synchronously
        saved_ns = n_queries * single.total_ns - timing.total_ns
        self.stats.waves += n_queries
        self.stats.batches += 1
        self.stats.batched_queries += n_queries
        self.stats.pim_time_ns += timing.total_ns
        self.stats.batch_saved_ns += saved_ns
        self.stats.results_produced += int(values.size)
        state = self.stats.matrix_state(name)
        state.waves += n_queries
        state.batches += 1
        state.batched_queries += n_queries
        state.pim_time_ns += timing.total_ns
        self._charge_extra(record.layout, n_queries)
        tele = get_recorder()
        if tele.enabled:
            tele.begin_span(
                "pim.batch_wave", "pim_dispatch",
                matrix=name, queries=n_queries, results=int(values.size),
                saved_ns=saved_ns,
                setup_cycles=timing.setup_cycles,
                per_query_cycles=timing.per_query_cycles,
                crossbar_ns=timing.crossbar_ns,
                buffer_ns=timing.buffer_ns,
                substrate="hbm_pim",
            )
            tele.advance(timing.total_ns)
            tele.end_span()
        return PIMBatchResult(values=values, timing=timing)

    # ------------------------------------------------------------------
    def total_pim_time_ns(self) -> float:
        """Cumulative simulated PIM time (waves only)."""
        return self.stats.pim_time_ns

    def capabilities(self) -> "HBMPIMCapabilities":
        """The HBM-PIM capability descriptor (cost-prediction hooks)."""
        return HBMPIMCapabilities(self.hardware)


class HBMPIMCapabilities(SubstrateCapabilities):
    """Cost model of the bank-level-MAC stack.

    Latency scales with resident vectors per bank times bursts per
    vector (plus a GRF-pressure penalty past ``grf_entries`` bursts),
    while programming is cheap DRAM writes — the opposite shape of the
    crossbar model, which is what makes routing interesting.
    """

    name = "hbm_pim"
    unit_name = "bank"
    memory_device = "dram"

    def __init__(
        self, hardware: HardwareConfig | None = None, energy=None
    ) -> None:
        super().__init__(
            hardware if hardware is not None else hbm_pim_platform()
        )
        self.config = hbm_config_for(self.hardware)
        self.energy = energy if energy is not None else EnergyModel()

    def _layout(self, n_vectors: int, dims: int, spare_units: int = 0):
        return plan_bank_layout(
            n_vectors, dims, self.config,
            data_banks=self.config.total_banks - spare_units,
        )

    def units_needed(self, n_vectors: int, dims: int) -> int:
        return self._layout(n_vectors, dims).n_data_banks

    def fits_fresh(
        self, n_vectors: int, dims: int, spare_units: int = 0
    ) -> bool:
        try:
            self._layout(n_vectors, dims, spare_units)
        except CapacityError:
            return False
        return True

    def predict_query_ns(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        layout = self._layout(n_vectors, dims)
        return bank_batch_timing(
            layout, self.config, self.hardware, n_queries
        ).total_ns

    def predict_program_ns(self, n_vectors: int, dims: int) -> float:
        return bank_program_ns(self._layout(n_vectors, dims), self.config)

    def predict_query_energy_j(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        layout = self._layout(n_vectors, dims)
        return self.energy.hbm_wave_energy_j(layout, n_queries)

    def predict_program_energy_j(self, n_vectors: int, dims: int) -> float:
        return self.energy.hbm_programming_energy_j(
            self._layout(n_vectors, dims)
        )

    @property
    def endurance(self) -> float:
        return self.config.endurance


def build_hbm_pim(
    hardware: HardwareConfig | None = None,
    spare_units: int = 0,
    simulate_cells: bool = False,
) -> HBMPIMArray:
    """Registry factory for the ``"hbm_pim"`` backend.

    The stack computes digitally, so it has no cell-level mode:
    ``simulate_cells=True`` raises :class:`ConfigurationError`.
    """
    if simulate_cells:
        raise ConfigurationError(
            "hbm_pim has no cell-level simulation; its instruction-stream "
            "oracle is repro.oracle.LoopHBMPIMArray"
        )
    return HBMPIMArray(hardware=hardware, spare_banks=spare_units)

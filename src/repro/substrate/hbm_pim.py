"""The HBM-PIM bank-level-MAC substrate (fully simulated).

:class:`HBMPIMArray` is a :class:`~repro.hardware.pim_array.Substrate`
over the banked structural model in
:mod:`repro.hardware.banked_memory`: matrices are block-distributed
across MAC-equipped DRAM banks, every wave is an all-bank lockstep
MOV/FILL/MAC/drain command stream priced by per-command DRAM timing,
and arithmetic is digital int64 truncated to the accumulator width —
bit-identical to the crossbar substrate and to the instruction-stream
oracle (:class:`repro.oracle.LoopHBMPIMArray`) by construction.

The shared base owns dispatch, booking, telemetry and the spare-pool
remap, so the fault injectors, the repair controller and the stats
aggregation run unmodified on banks. This module holds only what is the
stack's own: its cost model (:class:`HBMPIMCapabilities`: bank layout,
DRAM wave, programming and remap timing, energy), which the device
charges through and the cost router prices with; least-loaded bank
placement over the live data banks; and the backend-specific activity
(MAC commands, row activations, ...) charged to ``stats.extra``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.hardware import bitslice
from repro.hardware.banked_memory import (
    BankLayout,
    bank_batch_timing,
    bank_instruction_counts,
    bank_program_ns,
    plan_bank_layout,
)
from repro.hardware.config import (
    HardwareConfig,
    HBMPIMConfig,
    hbm_pim_platform,
)
from repro.hardware.pim_array import ProgrammedMatrix, Substrate
from repro.substrate.protocol import SubstrateCapabilities


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
        hardware = hardware if hardware is not None else hbm_pim_platform()
        super().__init__(hardware, hbm_config_for(hardware), energy)

    def layout(
        self, n_vectors: int, dims: int, data_banks: int | None = None
    ) -> BankLayout:
        """Block distribution over ``data_banks`` banks (default: all)."""
        return plan_bank_layout(
            n_vectors, dims, self.config, data_banks=data_banks
        )

    def wave_timing(self, layout, n_queries: int, bits: int | None):
        return bank_batch_timing(layout, self.config, self.hardware, n_queries)

    def program_ns(self, layout) -> float:
        return bank_program_ns(layout, self.config)

    def remap_ns(self, layout) -> float:
        """Rewriting one bank is programming it: every bank of a layout
        holds the same share, written in parallel."""
        return self.program_ns(layout)

    def wave_energy_j(self, layout, n_queries: int, bits: int | None) -> float:
        return self.energy.hbm_wave_energy_j(layout, n_queries)

    def program_energy_j(self, layout) -> float:
        return self.energy.hbm_programming_energy_j(layout)

    def units_needed(self, n_vectors: int, dims: int) -> int:
        return self.layout(n_vectors, dims).n_data_banks

    def fits_fresh(
        self, n_vectors: int, dims: int, spare_units: int = 0
    ) -> bool:
        try:
            self.layout(
                n_vectors, dims, self.config.total_banks - spare_units
            )
        except CapacityError:
            return False
        return True

    @property
    def endurance(self) -> float:
        return self.config.endurance


class HBMPIMArray(Substrate):
    """Bank-level-MAC HBM-PIM stack serving exact dot-product waves.

    Parameters
    ----------
    hardware:
        Platform description. The stack geometry comes from
        :func:`hbm_config_for`; defaults to
        :func:`~repro.hardware.config.hbm_pim_platform`.
    spare_banks:
        Banks withheld from data placement as a repair pool (the shared
        spare-pool semantics of :class:`Substrate`).
    """

    unit_name = "bank"
    backend = "hbm_pim"
    _span_attrs = {"substrate": "hbm_pim"}

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        spare_banks: int = 0,
    ) -> None:
        model = HBMPIMCapabilities(hardware)
        super().__init__(model.hardware, model, spare_banks)
        config = self.config
        if self.spare_units < 0:
            raise ConfigurationError("spare_banks must be non-negative")
        if self.spare_units >= config.total_banks:
            raise CapacityError(
                f"{self.spare_units} spare banks leave no data banks "
                f"(stack has {config.total_banks})"
            )
        self._data_bank_ids: list[int] = list(
            range(self.spare_units, config.total_banks)
        )
        self._bank_bytes_used: dict[int, int] = {
            b: 0 for b in self._data_bank_ids
        }
        self.data_capacity = len(self._data_bank_ids)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _plan(self, n_vectors: int, dims: int) -> BankLayout:
        return self.model.layout(
            n_vectors, dims, data_banks=len(self._data_bank_ids)
        )

    def _bank_bytes(self, layout: BankLayout) -> int:
        """Bytes one matrix occupies on each of its banks."""
        return (
            layout.vectors_per_bank
            * layout.bursts_per_vector
            * self.config.burst_bytes
        )

    def _place(self, name: str, matrix: np.ndarray) -> ProgrammedMatrix:
        """Block-distribute the vectors over the least-loaded data banks.

        Programming is plain DRAM writes (burst-paced, rows opened
        once), so it is orders of magnitude cheaper than crossbar
        SET/RESET programming — the asymmetry the cost router exploits
        for churny placements.
        """
        layout = self._plan(*matrix.shape)
        need = self._bank_bytes(layout)
        # least-loaded banks first; ties resolve by physical id so the
        # placement is deterministic run to run
        candidates = sorted(
            self._data_bank_ids,
            key=lambda b: (self._bank_bytes_used[b], b),
        )[: layout.n_data_banks]
        over = [
            b
            for b in candidates
            if self._bank_bytes_used[b] + need > self.config.bank_bytes
        ]
        if over:
            raise CapacityError(
                f"programming {name!r} would overflow {len(over)} banks "
                f"(need {need} B/bank on {layout.n_data_banks} banks)"
            )
        bank_ids = sorted(candidates)
        for b in bank_ids:
            self._bank_bytes_used[b] += need
            self.endurance.record_write(b)
        return ProgrammedMatrix(bitslice.ExactMatrix(matrix), layout, bank_ids)

    def _release(self, record: ProgrammedMatrix) -> None:
        need = self._bank_bytes(record.layout)
        for b in record.unit_ids:
            if b in self._bank_bytes_used:
                self._bank_bytes_used[b] -= need

    def _move_to_spare(self, owners: list, old_id: int, spare: int) -> float:
        """Rewrite every resident of ``old_id`` onto the spare.

        The spare joins the data pool carrying the moved bytes and the
        retired bank leaves it (all residents were just moved off).
        """
        total_ns = 0.0
        moved_bytes = 0
        for _, rec in owners:
            moved_bytes += self._bank_bytes(rec.layout)
            total_ns += self.model.remap_ns(rec.layout)
        self._bank_bytes_used[spare] = (
            self._bank_bytes_used.get(spare, 0) + moved_bytes
        )
        self._bank_bytes_used.pop(old_id, None)
        if old_id in self._data_bank_ids:
            self._data_bank_ids.remove(old_id)
        if spare not in self._data_bank_ids:
            self._data_bank_ids.append(spare)
            self._data_bank_ids.sort()
        return total_ns

    def fits_matrix(
        self, n_vectors: int, dims: int, exclude: str | None = None
    ) -> bool:
        try:
            layout = self._plan(n_vectors, dims)
        except CapacityError:
            return False
        need = self._bank_bytes(layout)
        usage = dict(self._bank_bytes_used)
        if exclude is not None and exclude in self._matrices:
            rec = self._matrices[exclude]
            for b in rec.unit_ids:
                usage[b] -= self._bank_bytes(rec.layout)
        loads = sorted(usage[b] for b in self._data_bank_ids)
        return all(
            load + need <= self.config.bank_bytes
            for load in loads[: layout.n_data_banks]
        )

    # ------------------------------------------------------------------
    # activity
    # ------------------------------------------------------------------
    def _charge_extra(
        self, layout: BankLayout, n_queries: int, waves: int
    ) -> None:
        """Command counts of every bank; each wave opens its rows anew."""
        scale = layout.n_data_banks * waves
        for key, count in bank_instruction_counts(layout, n_queries).items():
            self.stats.add_extra(key, count * scale)


def build_hbm_pim(
    hardware: HardwareConfig | None = None, spare_units: int = 0
) -> HBMPIMArray:
    """Registry factory for the ``"hbm_pim"`` backend."""
    return HBMPIMArray(hardware=hardware, spare_banks=spare_units)

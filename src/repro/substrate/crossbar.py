"""Crossbar substrate registration: capabilities + factory.

The device itself is :class:`~repro.hardware.pim_array.PIMArray`; this
module only adds the planner-facing capability descriptor (pricing via
the analytic timing/energy models the array already charges) and the
registry factory.
"""

from __future__ import annotations

from repro.hardware.config import HardwareConfig, pim_platform
from repro.hardware.energy import EnergyModel
from repro.hardware.mapper import plan_layout, reserve_spares, total_crossbars
from repro.hardware.pim_array import PIMArray
from repro.hardware.timing import batch_wave_timing, programming_time_ns
from repro.substrate.protocol import SubstrateCapabilities


class CrossbarCapabilities(SubstrateCapabilities):
    """Cost model of the analog ReRAM crossbar array.

    Latency is nearly flat in ``n_vectors`` (every programmed column
    answers in the same bit-sliced wave; only the result drain grows),
    programming pays ReRAM SET/RESET per row, and energy is dominated
    by ADC conversions — the exact models the live array charges.
    """

    name = "crossbar"
    unit_name = "crossbar"
    memory_device = "reram"

    def __init__(
        self, hardware: HardwareConfig | None = None, energy=None
    ) -> None:
        super().__init__(hardware if hardware is not None else pim_platform())
        if self.hardware.pim is None:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "crossbar capabilities need a platform with a PIM array"
            )
        self.config = self.hardware.pim
        self.energy = energy if energy is not None else EnergyModel()

    def units_needed(self, n_vectors: int, dims: int) -> int:
        return total_crossbars(n_vectors, dims, self.config)

    def fits_fresh(
        self, n_vectors: int, dims: int, spare_units: int = 0
    ) -> bool:
        needed = self.units_needed(n_vectors, dims)
        return needed <= reserve_spares(self.config, spare_units)

    def _layout(self, n_vectors: int, dims: int):
        return plan_layout(n_vectors, dims, self.config)

    def predict_query_ns(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        layout = self._layout(n_vectors, dims)
        return batch_wave_timing(
            layout, self.config, self.hardware, n_queries,
            input_bits=input_bits,
        ).total_ns

    def predict_program_ns(self, n_vectors: int, dims: int) -> float:
        return programming_time_ns(self._layout(n_vectors, dims), self.config)

    def predict_query_energy_j(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        layout = self._layout(n_vectors, dims)
        return self.energy.pim_energy_j(
            layout, self.config, n_queries, input_bits=input_bits
        )

    def predict_program_energy_j(self, n_vectors: int, dims: int) -> float:
        return self.energy.programming_energy_j(self._layout(n_vectors, dims))

    @property
    def endurance(self) -> float:
        return self.config.crossbar.endurance


def build_crossbar(
    hardware: HardwareConfig | None = None, spare_units: int = 0
) -> PIMArray:
    """Registry factory for the ``"crossbar"`` backend."""
    return PIMArray(hardware=hardware, spare_crossbars=spare_units)

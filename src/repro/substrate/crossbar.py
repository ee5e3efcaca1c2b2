"""Crossbar substrate registration: cost model + factory.

The device itself is :class:`~repro.hardware.pim_array.PIMArray`; this
module holds its cost model (the analytic NVSim-style timing and the
energy model, which the array charges through ``array.model``) and the
registry factory.
"""

from __future__ import annotations

from repro.hardware.config import HardwareConfig, pim_platform
from repro.hardware.mapper import plan_layout, reserve_spares, total_crossbars
from repro.hardware.pim_array import PIMArray
from repro.hardware.timing import batch_wave_timing, programming_time_ns
from repro.substrate.protocol import SubstrateCapabilities


class CrossbarCapabilities(SubstrateCapabilities):
    """Cost model of the analog ReRAM crossbar array.

    Latency is nearly flat in ``n_vectors`` (every programmed column
    answers in the same bit-sliced wave; only the result drain grows),
    programming pays ReRAM SET/RESET per row, and energy is dominated
    by ADC conversions.
    """

    name = "crossbar"
    unit_name = "crossbar"
    memory_device = "reram"

    def __init__(
        self, hardware: HardwareConfig | None = None, energy=None
    ) -> None:
        hardware = hardware if hardware is not None else pim_platform()
        if hardware.pim is None:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "crossbar capabilities need a platform with a PIM array"
            )
        super().__init__(hardware, hardware.pim, energy)

    def layout(self, n_vectors: int, dims: int):
        return plan_layout(n_vectors, dims, self.config)

    def wave_timing(self, layout, n_queries: int, bits: int | None):
        return batch_wave_timing(
            layout, self.config, self.hardware, n_queries, input_bits=bits
        )

    def program_ns(self, layout) -> float:
        return programming_time_ns(layout, self.config)

    def remap_ns(self, layout) -> float:
        """The layout's programming time spread over its crossbars.

        Programming writes all crossbars of a layout concurrently in
        the timing model, so rewriting one of them costs that share.
        """
        return self.program_ns(layout) / max(layout.n_crossbars, 1)

    def wave_energy_j(self, layout, n_queries: int, bits: int | None) -> float:
        return self.energy.pim_energy_j(
            layout, self.config, n_queries, input_bits=bits
        )

    def program_energy_j(self, layout) -> float:
        return self.energy.programming_energy_j(layout)

    def units_needed(self, n_vectors: int, dims: int) -> int:
        return total_crossbars(n_vectors, dims, self.config)

    def fits_fresh(
        self, n_vectors: int, dims: int, spare_units: int = 0
    ) -> bool:
        needed = self.units_needed(n_vectors, dims)
        return needed <= reserve_spares(self.config, spare_units)

    @property
    def endurance(self) -> float:
        return self.config.crossbar.endurance


def build_crossbar(
    hardware: HardwareConfig | None = None, spare_units: int = 0
) -> PIMArray:
    """Registry factory for the ``"crossbar"`` backend."""
    return PIMArray(hardware=hardware, spare_crossbars=spare_units)

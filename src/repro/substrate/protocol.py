"""The one cost model of a substrate.

A *substrate* is anything that can hold named integer matrices and
evaluate dot-product waves against them under a simulated cost model.
The live device is a subclass of
:class:`~repro.hardware.pim_array.Substrate` (exported as
:class:`repro.substrate.Substrate`), which owns dispatch, booking and
the spare-pool remap for every backend.

:class:`SubstrateCapabilities` is the cost model itself: each backend
states its layout, wave, programming and remap costs once, the live
device charges every wave, program and remap through it (as
``device.model``), and the cost router prices workload shapes through
the same object without instantiating a device. Device charges and
router predictions therefore cannot drift apart.
"""

from __future__ import annotations

from repro.hardware.energy import EnergyModel


class SubstrateCapabilities:
    """One backend's cost model, shared by its device and the router.

    A backend states :meth:`layout`, :meth:`wave_timing`,
    :meth:`program_ns`, :meth:`remap_ns`, :meth:`wave_energy_j`,
    :meth:`program_energy_j`, :meth:`units_needed`, :meth:`fits_fresh`
    and :attr:`endurance`; the base derives the shape-level predictions
    the router ranks replicas with. Predictions plan a spare-free
    device: the layout of a fresh matrix on the whole unit pool.
    """

    #: registry name of the backend this model prices
    name: str = "abstract"
    #: what the backend calls one physical unit
    unit_name: str = "unit"
    #: device class of the backing storage ("reram", "dram", ...) —
    #: selects the MemoryArray write-slowdown when staging side data
    memory_device: str = "dram"

    def __init__(self, hardware, config, energy=None) -> None:
        self.hardware = hardware
        self.config = config
        self.energy = energy if energy is not None else EnergyModel()

    # -- the backend's own costs --
    def layout(self, n_vectors: int, dims: int):
        """Placement of a fresh ``(n_vectors, dims)`` matrix.

        Raises :class:`~repro.errors.CapacityError` when it cannot fit.
        """
        raise NotImplementedError

    def wave_timing(self, layout, n_queries: int, bits: int | None):
        """:class:`~repro.hardware.timing.BatchWaveTiming` of one wave of
        ``n_queries`` queries of ``bits``-bit operands (None: the
        operand width)."""
        raise NotImplementedError

    def program_ns(self, layout) -> float:
        """Simulated ns to program ``layout``."""
        raise NotImplementedError

    def remap_ns(self, layout) -> float:
        """Simulated ns to rewrite one unit of ``layout`` onto a spare."""
        raise NotImplementedError

    def wave_energy_j(self, layout, n_queries: int, bits: int | None) -> float:
        raise NotImplementedError

    def program_energy_j(self, layout) -> float:
        raise NotImplementedError

    # -- capacity --
    def units_needed(self, n_vectors: int, dims: int) -> int:
        """Physical units a fresh ``(n_vectors, dims)`` matrix occupies."""
        raise NotImplementedError

    def fits_fresh(
        self, n_vectors: int, dims: int, spare_units: int = 0
    ) -> bool:
        """Would a fresh matrix fit on an empty device of this kind?"""
        raise NotImplementedError

    #: wear budget per unit (writes before EnduranceExceededError)
    @property
    def endurance(self) -> float:
        raise NotImplementedError

    # -- shape-level predictions (what the router ranks with) --
    def predict_query_ns(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        """Simulated ns of one batched wave of ``n_queries`` queries."""
        layout = self.layout(n_vectors, dims)
        return self.wave_timing(layout, n_queries, input_bits).total_ns

    def predict_program_ns(self, n_vectors: int, dims: int) -> float:
        """Simulated ns to program a fresh matrix."""
        return self.program_ns(self.layout(n_vectors, dims))

    def predict_query_energy_j(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        layout = self.layout(n_vectors, dims)
        return self.wave_energy_j(layout, n_queries, input_bits)

    def predict_program_energy_j(self, n_vectors: int, dims: int) -> float:
        return self.program_energy_j(self.layout(n_vectors, dims))

    def describe(self) -> dict:
        """Flat summary for reports and routing-decision artifacts."""
        return {
            "name": self.name,
            "unit_name": self.unit_name,
            "memory_device": self.memory_device,
            "endurance": self.endurance,
        }

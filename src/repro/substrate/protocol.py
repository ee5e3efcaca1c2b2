"""The planner-facing capability descriptor of a substrate.

A *substrate* is anything that can hold named integer matrices and
evaluate dot-product waves against them under a simulated cost model.
The live device is a subclass of
:class:`~repro.hardware.pim_array.Substrate` (exported as
:class:`repro.substrate.Substrate`), which owns dispatch, booking and
the spare-pool remap for every backend.

:class:`SubstrateCapabilities` is the *planner-facing* half: it
predicts query/programming latency and energy for a workload shape
without instantiating (or touching) a device, which is what the cost
router uses to pick a backend per query batch.
"""

from __future__ import annotations


class SubstrateCapabilities:
    """Planner-facing descriptor of one substrate's cost model.

    Subclasses predict latency and energy analytically from the
    workload shape ``(n_vectors, dims, n_queries)``; the predictions
    must agree with what the live device would charge (the property
    suite pins router predictions against device accounting), because
    the cost router trusts them to pick a backend per batch.
    """

    #: registry name of the backend this descriptor prices
    name: str = "abstract"
    #: what the backend calls one physical unit
    unit_name: str = "unit"
    #: device class of the backing storage ("reram", "dram", ...) —
    #: selects the MemoryArray write-slowdown when staging side data
    memory_device: str = "dram"

    def __init__(self, hardware) -> None:
        self.hardware = hardware

    # -- capacity --
    def units_needed(self, n_vectors: int, dims: int) -> int:
        raise NotImplementedError

    def fits_fresh(
        self, n_vectors: int, dims: int, spare_units: int = 0
    ) -> bool:
        """Would a fresh matrix fit on an empty device of this kind?"""
        raise NotImplementedError

    # -- latency --
    def predict_query_ns(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        """Simulated ns of one batched wave of ``n_queries`` queries."""
        raise NotImplementedError

    def predict_program_ns(self, n_vectors: int, dims: int) -> float:
        """Simulated ns to program a fresh matrix."""
        raise NotImplementedError

    # -- energy --
    def predict_query_energy_j(
        self,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        raise NotImplementedError

    def predict_program_energy_j(self, n_vectors: int, dims: int) -> float:
        raise NotImplementedError

    #: wear budget per unit (writes before EnduranceExceededError)
    @property
    def endurance(self) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        """Flat summary for reports and routing-decision artifacts."""
        return {
            "name": self.name,
            "unit_name": self.unit_name,
            "memory_device": self.memory_device,
            "endurance": self.endurance,
        }

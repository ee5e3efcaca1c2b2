"""The ``Substrate`` protocol and its capability descriptor.

A *substrate* is anything that can hold named integer matrices and
evaluate dot-product waves against them under a simulated cost model.
The protocol below is extracted verbatim from the surface the mining,
serving, fault and repair layers already used on
:class:`~repro.hardware.pim_array.PIMArray`; any class implementing it
(structurally — no inheritance required) can serve queries, be wrapped
by the fault injectors, be scrubbed and repaired, and aggregate into
fleet-wide :class:`~repro.hardware.pim_array.PIMStats`.

The :class:`SubstrateCapabilities` descriptor is the *planner-facing*
half: it predicts query/programming latency and energy for a workload
shape without instantiating (or touching) a device, which is what the
cost router uses to pick a backend per query batch.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Substrate(Protocol):
    """Structural interface of one memory-side compute device.

    Implementations: :class:`~repro.hardware.pim_array.PIMArray`
    (``"crossbar"``) and
    :class:`~repro.substrate.hbm_pim.HBMPIMArray` (``"hbm_pim"``).

    Conventions every implementation must honour — the exactness and
    repair invariants lean on them:

    * arithmetic is exact integer dot products truncated to
      ``config.accumulator_bits`` (``bitslice.truncate_result``), so
      answers are independent of the backend;
    * ``stats`` is a :class:`~repro.hardware.pim_array.PIMStats` whose
      ``backend`` field names the substrate and whose backend-specific
      counters live in ``stats.extra``;
    * physical units (crossbars, banks, ...) are integers named by
      ``unit_ids_of``; every backend answers the crossbar-era
      ``crossbar_ids_of``/``remap_crossbar(s)`` names with its own
      units, so the repair layer runs unmodified on any backend;
    * every wave kernel is bit-identical to the backend's slow loop
      oracle in :mod:`repro.oracle`, which subclasses the device and
      overrides only the kernel hook.
    """

    unit_name: str
    stats: object
    endurance: object
    spares_remaining: int

    # -- programming (offline stage) --
    def program_matrix(
        self, name: str, matrix: np.ndarray, input_bits: int | None = None
    ): ...

    def reset_matrix(self, name: str) -> None: ...

    def layouts(self) -> dict: ...

    def matrix_of(self, name: str) -> np.ndarray: ...

    # -- querying (online stage) --
    def query(
        self, name: str, vector: np.ndarray, input_bits: int | None = None
    ): ...

    def query_many(
        self, name: str, vectors: np.ndarray, input_bits: int | None = None
    ): ...

    def query_batch(
        self, name: str, vectors: np.ndarray, input_bits: int | None = None
    ): ...

    def total_pim_time_ns(self) -> float: ...

    # -- capacity / placement --
    def units_needed(self, n_vectors: int, dims: int) -> int: ...

    def fits_matrix(
        self, n_vectors: int, dims: int, exclude: str | None = None
    ) -> bool: ...

    # -- endurance + spare/remap hooks (repair layer) --
    def unit_ids_of(self, name: str) -> list[int]: ...

    def crossbar_ids_of(self, name: str) -> list[int]: ...

    def remap_crossbar(self, old_id: int) -> tuple[int, float]: ...

    def remap_crossbars(
        self, old_ids: list[int]
    ) -> tuple[list[int], float]: ...

    def wear_report(self, top: int | None = None) -> dict: ...

    # -- planner surface --
    def capabilities(self) -> "SubstrateCapabilities": ...


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
    #: whether the factory's ``simulate_cells=True`` builds a
    #: cell-faithful device
    supports_cell_simulation: bool = False

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
            "supports_cell_simulation": self.supports_cell_simulation,
            "endurance": self.endurance,
        }

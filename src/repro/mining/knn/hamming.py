"""kNN on binary codes under Hamming distance (paper Fig. 14).

The paper observes no filtering technique beats a linear scan for HD, so
only two algorithms exist:

* :class:`HammingKNN` — the CPU linear scan over bit-packed codes
  (``d`` bits of transfer per object);
* :class:`PIMHammingKNN` — Standard-PIM: PIM computes HD *exactly* via
  the two-dot-product decomposition of Table 4, moving only ``2 x 32``
  result bits per object. For short codes that transfer saving is too
  small to matter — exactly the crossover Fig. 14 shows.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.pim import PIMHammingDistance
from repro.cost.counters import PerfCounters
from repro.errors import OperandError
from repro.hardware.config import HardwareConfig, PIMArrayConfig
from repro.hardware.controller import PIMController
from repro.mining.knn.base import KNNAlgorithm, KNNResult, validate_query
from repro.similarity import measures


def binary_pim_platform(
    pim_capacity_bytes: int = 2 * 1024**3,
) -> HardwareConfig:
    """A PIM platform configured for 1-bit operands / 32-bit results."""
    return HardwareConfig(
        pim=PIMArrayConfig(
            capacity_bytes=pim_capacity_bytes,
            operand_bits=1,
            accumulator_bits=32,
        )
    )


class HammingKNN(KNNAlgorithm):
    """Linear-scan kNN over binary codes."""

    name = "Standard"

    def __init__(self) -> None:
        super().__init__(measure="hamming")
        self.offloadable_functions = ("hamming",)

    def query(self, q: np.ndarray, k: int) -> KNNResult:
        q = validate_query(q, self.dims, k)
        counters = PerfCounters()
        scores = measures.hamming_batch(self.data, q)
        self.charge_exact(counters, self.n_objects)
        self.charge_heap(counters, self.n_objects)
        return self._finalize(
            *self._topk(scores, k), counters,
            exact_computations=self.n_objects,
        )


class PIMHammingKNN(KNNAlgorithm):
    """Standard-PIM kNN over binary codes: exact HD from two PIM waves."""

    name = "Standard-PIM"

    def __init__(self, controller: PIMController | None = None) -> None:
        super().__init__(measure="hamming")
        self.controller = (
            controller
            if controller is not None
            else PIMController(binary_pim_platform())
        )
        if self.controller.pim.config.operand_bits != 1:
            raise OperandError(
                "PIMHammingKNN needs a 1-bit-operand platform; "
                "use binary_pim_platform()"
            )
        self._distance = PIMHammingDistance(self.controller)
        self.offloadable_functions = ("hamming", self._distance.name)

    def _prepare(self, data: np.ndarray) -> None:
        self._distance.prepare(data)

    def query(self, q: np.ndarray, k: int) -> KNNResult:
        q = validate_query(q, self.dims, k)
        counters = PerfCounters()
        pim_before = self.controller.pim.stats.pim_time_ns
        values = self._distance.evaluate(q)
        self._distance.charge(counters, self.n_objects)
        self.charge_heap(counters, self.n_objects)
        pim_after = self.controller.pim.stats.pim_time_ns
        return self._finalize(
            *self._topk(values, k),
            counters,
            pim_time_ns=pim_after - pim_before,
            exact_computations=0,
        )

    def query_batch(self, queries: np.ndarray, k: int) -> list[KNNResult]:
        """Batched variant: two amortized waves cover every query's HD."""
        queries = np.atleast_2d(np.asarray(queries))
        pim_before = self.controller.pim.stats.pim_time_ns
        self._distance.prime_queries(queries)
        prime_ns = self.controller.pim.stats.pim_time_ns - pim_before
        results = [self.query(q, k) for q in queries]
        share = prime_ns / len(results) if results else 0.0
        for result in results:
            result.pim_time_ns += share
        return results

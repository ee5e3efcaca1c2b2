"""Standard kNN: the linear-scan baseline (paper's 'Standard').

Every object pays one exact measure evaluation — O(N d) transfer, which
is what makes it the algorithm PIM accelerates the most (Fig. 13a).
"""

from __future__ import annotations

import numpy as np

from repro.cost.counters import PerfCounters
from repro.mining.knn.base import KNNAlgorithm, KNNResult, validate_query
from repro.similarity import measures


class StandardKNN(KNNAlgorithm):
    """Exhaustive scan with a canonical top-k cut."""

    name = "Standard"

    def __init__(self, measure: str = "euclidean") -> None:
        super().__init__(measure=measure)
        self.offloadable_functions = (measure,)

    def query(self, q: np.ndarray, k: int) -> KNNResult:
        q = validate_query(q, self.dims, k)
        counters = PerfCounters()
        scores = measures.compute_batch(self.measure, self.data, q)
        self.charge_exact(counters, self.n_objects)
        self.charge_heap(counters, self.n_objects)
        return self._finalize(
            *self._topk(scores, k),
            counters,
            exact_computations=self.n_objects,
            stage_evaluations={self.measure: self.n_objects},
        )

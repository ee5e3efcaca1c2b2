"""Approximate PIM kNN — the design the paper argues *against*.

GraphR-style accelerators accept the analog value itself as the answer.
:class:`ApproximatePIMKNN` does exactly that: it ranks candidates by the
(possibly noisy, quantization-truncated) PIM distance estimate and never
refines, so a query costs a single wave and *zero* exact computations —
but returns approximate neighbours. :func:`recall_at_k` measures what
that costs, which is the quantitative version of the paper's Section
II-A argument ("such precision loss may compromise the accuracy of
results in data mining tasks").

Useful in its own right for recall-tolerant applications, and as the
contrast case in the noise-accuracy bench.
"""

from __future__ import annotations

import numpy as np

from repro.cost.counters import PerfCounters
from repro.errors import OperandError
from repro.hardware.controller import PIMController
from repro.mining.knn.base import KNNAlgorithm, KNNResult, validate_query
from repro.similarity.quantization import Quantizer


class ApproximatePIMKNN(KNNAlgorithm):
    """Rank by the raw PIM distance estimate; never refine.

    The distance estimate is the quantized expansion
    ``(Phi(p) + Phi(q) - 2 * dot) / alpha^2`` with whatever error the
    device introduced (floor truncation, analog noise); results are
    approximate and :attr:`KNNResult.scores` carry the *estimates*.
    """

    name = "Approx-PIM"

    def __init__(
        self,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(measure="euclidean")
        self.controller = (
            controller if controller is not None else PIMController()
        )
        self.quantizer = (
            quantizer
            if quantizer is not None
            else Quantizer(assume_normalized=True)
        )
        self.offloadable_functions = ("euclidean",)
        self._matrix_name = f"approx#{id(self)}"
        self._phi: np.ndarray | None = None

    def _prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        qv = self.quantizer.quantize(data)
        self._phi = (qv.scaled**2).sum(axis=1)
        self.controller.program(
            self._matrix_name, qv.integers, self._phi.nbytes
        )

    def query(self, q: np.ndarray, k: int) -> KNNResult:
        q = validate_query(q, self.dims, k)
        if self._phi is None:
            raise OperandError(f"{self.name} is not fitted")
        counters = PerfCounters()
        pim_before = self.controller.pim.stats.pim_time_ns
        qq = self.quantizer.quantize(np.asarray(q, dtype=np.float64))
        dots = self.controller.dot_products(
            self._matrix_name, qq.integers
        ).values.astype(np.float64)
        phi_q = float((qq.scaled**2).sum())
        estimates = np.maximum(
            (self._phi + phi_q - 2.0 * dots) / self.quantizer.alpha**2, 0.0
        )
        counters.record(
            "euclidean",
            calls=self.n_objects,
            flops=5.0 * self.n_objects,
            bytes_from_memory=12.0 * self.n_objects,
            branches=float(self.n_objects),
        )
        pim_after = self.controller.pim.stats.pim_time_ns
        return self._finalize(
            *self._topk(estimates, k),
            counters,
            pim_time_ns=pim_after - pim_before,
        )


def recall_at_k(
    approximate: np.ndarray, exact: np.ndarray
) -> float:
    """|approx top-k ∩ exact top-k| / k."""
    approximate = np.asarray(approximate)
    exact = np.asarray(exact)
    if exact.size == 0:
        raise OperandError("exact neighbour set is empty")
    return len(set(approximate.tolist()) & set(exact.tolist())) / exact.size

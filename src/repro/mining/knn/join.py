"""kNN join: the k nearest neighbours in S for *every* object of R.

The batch workhorse behind classification pipelines, LOF-style outlier
scores and recommendation candidate generation — and the heaviest
similarity workload of all (|R| x |S| distances for the baseline).
PIM changes the economics: the quantized S is programmed once and one
wave per R-object delivers lower bounds to all of S, so the exact work
collapses to the few true neighbours per object.

Self-joins (R is S) exclude each object from its own neighbour list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.pim import PIMEuclideanBound
from repro.cost.counters import OTHER, PerfCounters
from repro.errors import ConfigurationError, OperandError
from repro.hardware.controller import PIMController
from repro.kernels import canonical_topk, exact_sq_distances, refine_topk
from repro.mining.knn.base import OPERAND_BYTES
from repro.similarity.quantization import Quantizer


@dataclass
class KNNJoinResult:
    """Per-R-object neighbour lists, nearest first."""

    indices: np.ndarray  # (|R|, k)
    distances: np.ndarray  # (|R|, k), true (rooted) distances
    counters: PerfCounters
    pim_time_ns: float = 0.0
    exact_computations: int = 0


class _BaseKNNJoin:
    name = "knn-join"

    def __init__(self, k: int = 5) -> None:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        self.k = k
        self._s: np.ndarray | None = None

    @property
    def s_data(self) -> np.ndarray:
        if self._s is None:
            raise OperandError(f"{self.name} is not fitted")
        return self._s

    def fit(self, s_data: np.ndarray) -> "_BaseKNNJoin":
        s_data = np.asarray(s_data, dtype=np.float64)
        if s_data.ndim != 2 or s_data.shape[0] <= self.k:
            raise OperandError("fit() needs a 2-D S with more than k rows")
        self._s = s_data
        self._prepare(s_data)
        return self

    def _prepare(self, s_data: np.ndarray) -> None:
        """Hook for subclasses."""

    def _charge_ed(self, counters: PerfCounters, n: int) -> None:
        d = self.s_data.shape[1]
        counters.record(
            "ED",
            calls=n,
            flops=3.0 * d * n,
            bytes_from_memory=d * OPERAND_BYTES * n,
            branches=float(n),
        )

    @staticmethod
    def _self_join_mask(r_index: int | None, n: int) -> np.ndarray:
        mask = np.ones(n, dtype=bool)
        if r_index is not None:
            mask[r_index] = False
        return mask


class StandardKNNJoin(_BaseKNNJoin):
    """Nested-loop kNN join (the |R| x |S| baseline)."""

    name = "Standard"
    offloadable_functions = ("ED",)

    def join(
        self, r_data: np.ndarray | None = None
    ) -> KNNJoinResult:
        """Neighbour lists for every row of R (default: self-join)."""
        s = self.s_data
        self_join = r_data is None
        r = s if self_join else np.asarray(r_data, dtype=np.float64)
        counters = PerfCounters()
        n_r = r.shape[0]
        indices = np.empty((n_r, self.k), dtype=np.int64)
        distances = np.empty((n_r, self.k))
        exact = 0
        for i in range(n_r):
            d2 = exact_sq_distances(s, r[i])
            exact += s.shape[0]
            mask = self._self_join_mask(i if self_join else None, s.shape[0])
            candidates = np.flatnonzero(mask)
            best, indices[i] = canonical_topk(
                d2[candidates], candidates, self.k
            )
            distances[i] = np.sqrt(best)
            counters.record(OTHER, branches=float(s.shape[0]))
        self._charge_ed(counters, exact)
        return KNNJoinResult(
            indices=indices,
            distances=distances,
            counters=counters,
            exact_computations=exact,
        )


class PIMKNNJoin(_BaseKNNJoin):
    """kNN join with one LB_PIM-ED wave per R-object."""

    name = "Standard-PIM"
    offloadable_functions = ("ED", "LB_PIM-ED")

    def __init__(
        self,
        k: int = 5,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(k)
        self.controller = (
            controller if controller is not None else PIMController()
        )
        self._bound = PIMEuclideanBound(self.controller, quantizer)

    def _prepare(self, s_data: np.ndarray) -> None:
        self._bound.prepare(s_data)

    def join(
        self, r_data: np.ndarray | None = None
    ) -> KNNJoinResult:
        """Exact neighbour lists via bound-sorted refinement.

        Each R row's walk is :func:`repro.kernels.refine_topk`, so ties
        resolve to the lowest S index, as in :class:`StandardKNNJoin`.
        """
        s = self.s_data
        self_join = r_data is None
        r = s if self_join else np.asarray(r_data, dtype=np.float64)
        counters = PerfCounters()
        pim_before = self.controller.pim.stats.pim_time_ns
        # one wave per R-object, batched through the array; squared
        # bounds and scores order rows as StandardKNNJoin's sort does
        lb_matrix = self._bound.evaluate_matrix(r)  # (|S|, |R|)
        self._bound.charge(counters, int(lb_matrix.size))
        n_r = r.shape[0]
        indices = np.empty((n_r, self.k), dtype=np.int64)
        distances = np.empty((n_r, self.k))
        exact = 0
        for i in range(n_r):
            mask = self._self_join_mask(i if self_join else None, s.shape[0])
            candidates = np.flatnonzero(mask)
            best, indices[i], n_exact, _, _ = refine_topk(
                lambda at: exact_sq_distances(s[candidates[at]], r[i]),
                lb_matrix[candidates, i],
                candidates,
                self.k,
            )
            distances[i] = np.sqrt(best)
            exact += n_exact
        self._charge_ed(counters, exact)
        pim_after = self.controller.pim.stats.pim_time_ns
        return KNNJoinResult(
            indices=indices,
            distances=distances,
            counters=counters,
            pim_time_ns=pim_after - pim_before,
            exact_computations=exact,
        )

"""Elkan's k-means (ICML'03): full triangle-inequality bounding.

Elkan keeps one upper bound per point and one lower bound per
(point, center) pair, plus half the pairwise center distances. The
bounds eliminate most exact distances, but *maintaining* the N x k
lower-bound matrix is itself O(N k) work and traffic per iteration —
which is why the paper finds Elkan-PIM gains little (Section VI-D:
"updating original bounds often occupies up to 45% of total time").
"""

from __future__ import annotations

import numpy as np

from repro.cost.counters import OTHER
from repro.mining.kmeans.base import BOUND_UPDATE, KMeansAlgorithm, nearest
from repro.mining.knn.base import OPERAND_BYTES


class ElkanKMeans(KMeansAlgorithm):
    """Elkan's exact accelerated k-means."""

    base_name = "Elkan"

    def _initialize_state(self, centers: np.ndarray) -> None:
        n = self.data.shape[0]
        k = self.n_clusters
        self._ub = np.full(n, np.inf)
        self._lb = np.zeros((n, k))
        self._a = np.full(n, -1, dtype=np.int64)
        self._first = True

    def _center_separations(self, centers: np.ndarray) -> np.ndarray:
        """Pairwise center distances, charged as ED on the host."""
        k = centers.shape[0]
        c_sq = np.einsum("cj,cj->c", centers, centers)
        d2 = c_sq[:, None] + c_sq[None, :] - 2.0 * centers @ centers.T
        np.maximum(d2, 0.0, out=d2)
        self._charge_ed(k * (k - 1) // 2)
        return np.sqrt(d2)

    def _assign(self, centers: np.ndarray) -> np.ndarray:
        n = self.data.shape[0]
        if self._first:
            # first pass: assignments, ub and the whole lb matrix
            self._first = False
            rows = np.arange(n)
            self._lb, exact = self._masked_values(centers, rows)
            self._a = nearest(self._lb, exact)
            self._ub = self._lb[rows, self._a]
            return self._a.copy()
        k = self.n_clusters
        dcc = self._center_separations(centers)
        np.fill_diagonal(dcc, np.inf)
        s = 0.5 * dcc.min(axis=1)
        ids = np.arange(k)
        for i in range(n):
            a = int(self._a[i])
            if self._ub[i] <= s[a]:
                self._counters.record(OTHER, branches=1.0)
                continue
            mask = (self._lb[i] < self._ub[i]) & (
                0.5 * dcc[a] < self._ub[i]
            )
            mask[a] = False
            self._counters.record(BOUND_UPDATE, flops=2.0 * k, branches=1.0)
            if not mask.any():
                continue
            # tighten the upper bound with one exact distance
            d_a = float(self._exact_distances(i, centers, np.array([a]))[0])
            self._ub[i] = d_a
            self._lb[i, a] = d_a
            mask &= (self._lb[i] < d_a) & (0.5 * dcc[a] < d_a)
            cand = ids[mask]
            if cand.size == 0:
                continue
            values, exact = self._distances_with_pim(
                i, centers, cand, self._ub[i]
            )
            self._lb[i, cand] = values
            if exact.any():
                j = int(np.argmin(values))
                if exact[j] and values[j] < self._ub[i]:
                    self._a[i] = int(cand[j])
                    self._ub[i] = float(values[j])
        return self._a.copy()

    def _after_update(
        self, old_centers: np.ndarray, new_centers: np.ndarray
    ) -> None:
        drifts = self._center_drifts(old_centers, new_centers)
        n, k = self._lb.shape
        self._lb = np.maximum(self._lb - drifts[None, :], 0.0)
        self._ub += drifts[self._a]
        # the N x k bound matrix is streamed from memory every update
        self._counters.record(
            BOUND_UPDATE,
            flops=float(n * k + n),
            bytes_from_memory=float(n * k * OPERAND_BYTES),
        )

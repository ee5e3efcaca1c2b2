"""Drake & Hamerly's k-means (NIPS OPT'12): adaptive distance bounds.

Instead of Elkan's k lower bounds per point, Drake tracks only the ``b``
closest centers (``b ~ k/8``) with individual lower bounds plus a single
aggregate bound covering all remaining centers — less bound-maintenance
traffic, slightly weaker pruning.
"""

from __future__ import annotations

import numpy as np

from repro.cost.counters import OTHER
from repro.mining.kmeans.base import BOUND_UPDATE, KMeansAlgorithm, nearest
from repro.mining.knn.base import OPERAND_BYTES


def default_tracked(k: int) -> int:
    """Drake's recommended starting point, ``b = k/8`` (at least 2)."""
    return max(2, min(k - 1, k // 8)) if k > 1 else 1


class DrakeKMeans(KMeansAlgorithm):
    """Drake's exact accelerated k-means (fixed ``b`` variant)."""

    base_name = "Drake"

    def __init__(
        self,
        n_clusters: int,
        max_iters: int = 20,
        pim_assist=None,
        n_tracked: int | None = None,
    ) -> None:
        super().__init__(n_clusters, max_iters, pim_assist)
        self.n_tracked = (
            n_tracked if n_tracked is not None else default_tracked(n_clusters)
        )

    def _initialize_state(self, centers: np.ndarray) -> None:
        n = self.data.shape[0]
        b = self.n_tracked
        self._ub = np.full(n, np.inf)
        self._a = np.full(n, -1, dtype=np.int64)
        self._tracked = np.zeros((n, b), dtype=np.int64)
        self._tracked_lb = np.zeros((n, b))
        self._rest_lb = np.zeros(n)
        self._first = True

    def _rebuild_rows(
        self, rows: np.ndarray, values: np.ndarray, exact: np.ndarray
    ) -> None:
        """Reset the state of ``rows`` from (rows x k) distance values.

        ``values`` may mix exact distances and safe lower bounds; both
        are valid bound-list entries, and the winner is :func:`nearest`.
        """
        m, k = values.shape
        b = self.n_tracked
        at = np.arange(m)
        winner = nearest(values, exact)
        self._a[rows] = winner
        self._ub[rows] = values[at, winner]
        if k == 1:
            # nothing to track; the assignment can never change
            self._tracked[rows] = winner[:, None]
            self._tracked_lb[rows] = np.inf
            self._rest_lb[rows] = np.inf
            return
        ranked = np.argsort(values, axis=1)
        others = ranked[ranked != winner[:, None]].reshape(m, k - 1)
        # with b > k - 1 the last of the others fills the spare slots
        tracked = others[:, np.minimum(np.arange(b), k - 2)]
        self._tracked[rows] = tracked
        self._tracked_lb[rows] = np.take_along_axis(values, tracked, axis=1)
        self._rest_lb[rows] = values[at, others[:, b]] if k - 1 > b else np.inf

    def _assign(self, centers: np.ndarray) -> np.ndarray:
        """One assign step over all points at once.

        A point's branch (skip on the guard, refresh ``d_a``, rescan
        every center, or refine the tracked ones and swap) depends on
        that point's own state only, so masks replay a point-by-point
        walk exactly; the step's cost buckets are opened in the order
        that walk would first touch them.
        """
        if self._first:
            self._first = False
            rows = np.arange(self.data.shape[0])
            self._rebuild_rows(rows, *self._masked_values(centers, rows))
            return self._a.copy()

        guard = np.minimum(
            self._tracked_lb.min(axis=1, initial=np.inf), self._rest_lb
        )
        skip = self._ub <= guard
        live = np.flatnonzero(~skip)
        d_a = self._pair_distances(live, self._a[live], centers)
        self._ub[live] = d_a
        still = d_a > guard[live]
        rows, d_a = live[still], d_a[still]
        rescan = self._rest_lb[rows] < d_a
        want = (self._tracked_lb[rows] < d_a[:, None]) & ~rescan[:, None]
        # open the buckets in the order a point-by-point walk first
        # touches them: the cost model sums them in insertion order
        firsts = [(np.flatnonzero(skip), 0, OTHER), (live, 0, "ED")]
        if self.pim is not None:
            consults = rows[rescan | want.any(axis=1)]
            firsts.append((consults, 1, self.pim.bound_name))
        for *_, name in sorted(
            (int(at[0]), rank, name) for at, rank, name in firsts if at.size
        ):
            self._counters.record(name)
        if skip.any():
            self._counters.record(OTHER, branches=float(skip.sum()))
        if live.size:
            self._charge_ed(live.size)

        # the aggregate bound fails: rescan every center
        r, d_r = rows[rescan], d_a[rescan]
        values, exact = self._masked_values(centers, r, threshold=d_r)
        at, a_r = np.arange(r.size), self._a[r]
        values[at, a_r], exact[at, a_r] = d_r, True
        self._rebuild_rows(r, values, exact)

        # refine the tracked centers whose bound fails; swap on a win
        t, d_t, want = rows[~rescan], d_a[~rescan], want[~rescan]
        ids, lbs = self._tracked[t], self._tracked_lb[t]
        values, exact = self._masked_values(centers, t, ids, want, d_t)
        lbs[want] = values[want]
        values = np.where(want, values, np.inf)
        j = np.argmin(values, axis=1)
        at = np.arange(t.size)
        win = exact[at, j] & (values[at, j] < d_t)
        at, j, swapped = at[win], j[win], t[win]
        old_a = self._a[swapped]
        self._a[swapped], self._ub[swapped] = ids[at, j], values[at, j]
        ids[at, j], lbs[at, j] = old_a, d_t[win]
        self._tracked[t], self._tracked_lb[t] = ids, lbs
        return self._a.copy()

    def _after_update(
        self, old_centers: np.ndarray, new_centers: np.ndarray
    ) -> None:
        drifts = self._center_drifts(old_centers, new_centers)
        n, b = self._tracked_lb.shape
        self._tracked_lb = np.maximum(
            self._tracked_lb - drifts[self._tracked], 0.0
        )
        self._rest_lb = np.maximum(self._rest_lb - drifts.max(), 0.0)
        self._ub += drifts[self._a]
        self._counters.record(
            BOUND_UPDATE,
            flops=float(n * b + 2 * n),
            bytes_from_memory=float(n * b * OPERAND_BYTES),
        )

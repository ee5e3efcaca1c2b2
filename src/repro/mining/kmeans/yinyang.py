"""Yinyang k-means (Ding et al., ICML'15): group-level filtering.

Centers are clustered into ``t ~ k/10`` groups once at start-up; each
point keeps one upper bound and one lower bound per *group* rather than
per center. The global filter skips points whose upper bound beats every
group bound; the group filter opens only groups whose bound fails. Fewer
bounds than Elkan means far cheaper maintenance, at slightly weaker
pruning — efficient at low dimensionality but ED-dominated at high
dimensionality, where the paper's Yinyang-PIM shines (up to 4.9x).
"""

from __future__ import annotations

import numpy as np

from repro.cost.counters import OTHER
from repro.mining.kmeans.base import BOUND_UPDATE, KMeansAlgorithm
from repro.mining.knn.base import OPERAND_BYTES


def default_groups(k: int) -> int:
    """Yinyang's recommended group count, ``t = k / 10`` (at least 1)."""
    return max(1, k // 10)


def group_centers(centers: np.ndarray, t: int, seed: int = 0) -> np.ndarray:
    """Cluster the initial centers into ``t`` groups (tiny Lloyd run).

    Grouping quality affects efficiency only, never correctness.
    """
    k = centers.shape[0]
    if t >= k:
        return np.arange(k, dtype=np.int64)
    rng = np.random.default_rng(seed)
    seeds = centers[rng.choice(k, size=t, replace=False)].copy()
    labels = np.zeros(k, dtype=np.int64)
    for _ in range(5):
        d2 = (
            np.einsum("cj,cj->c", centers, centers)[:, None]
            + np.einsum("gj,gj->g", seeds, seeds)[None, :]
            - 2.0 * centers @ seeds.T
        )
        labels = np.argmin(d2, axis=1).astype(np.int64)
        for g in range(t):
            members = labels == g
            if members.any():
                seeds[g] = centers[members].mean(axis=0)
    return labels


class YinyangKMeans(KMeansAlgorithm):
    """Yinyang exact accelerated k-means."""

    base_name = "Yinyang"

    def __init__(
        self,
        n_clusters: int,
        max_iters: int = 20,
        pim_assist=None,
        n_groups: int | None = None,
    ) -> None:
        super().__init__(n_clusters, max_iters, pim_assist)
        self.n_groups = (
            n_groups if n_groups is not None else default_groups(n_clusters)
        )

    def _initialize_state(self, centers: np.ndarray) -> None:
        n = self.data.shape[0]
        self._labels = group_centers(centers, self.n_groups)
        self._groups = [
            np.nonzero(self._labels == g)[0] for g in range(self.n_groups)
        ]
        self._ub = np.full(n, np.inf)
        self._glb = np.zeros((n, self.n_groups))
        self._a = np.full(n, -1, dtype=np.int64)
        self._first = True

    def _assign(self, centers: np.ndarray) -> np.ndarray:
        n = self.data.shape[0]
        if self._first:
            self._first = False
            for i in range(n):
                self._scan_point(i, centers, initial=True)
            return self._a.copy()
        for i in range(n):
            gmin = float(self._glb[i].min())
            if self._ub[i] <= gmin:
                self._counters.record(OTHER, branches=1.0)
                continue
            a = int(self._a[i])
            d_a = float(self._exact_distances(i, centers, np.array([a]))[0])
            self._ub[i] = d_a
            if d_a <= gmin:
                continue
            self._scan_point(i, centers, initial=False)
        return self._a.copy()

    def _scan_point(self, i: int, centers: np.ndarray, initial: bool) -> None:
        """Open failing groups and refresh the point's bounds.

        Group bounds must cover every non-assigned center: values seen
        during the scan (exact or PIM lower bounds) are collected per
        group and the bounds are rebuilt *after* the final winner is
        known, so interim bests never leave a center uncovered. When the
        assignment leaves a group that was not rescanned, the old
        center's exact distance is folded into that group's bound.
        """
        if initial:
            best_d, best_c = np.inf, -1
            open_groups = list(range(self.n_groups))
            old_a, old_d = -1, np.inf
        else:
            best_d, best_c = float(self._ub[i]), int(self._a[i])
            old_a, old_d = best_c, best_d
            open_groups = [
                g
                for g in range(self.n_groups)
                if self._glb[i, g] < best_d
            ]
            self._counters.record(
                BOUND_UPDATE, flops=float(self.n_groups), branches=1.0
            )
        seen: dict[int, np.ndarray] = {}
        for g in open_groups:
            members = self._groups[g]
            if members.size == 0:
                self._glb[i, g] = np.inf
                continue
            values, exact = self._distances_with_pim(
                i, centers, members, best_d
            )
            seen[g] = values
            exact_ids = np.nonzero(exact)[0]
            if exact_ids.size:
                j = int(exact_ids[np.argmin(values[exact_ids])])
                if values[j] < best_d:
                    best_d, best_c = float(values[j]), int(members[j])
        for g, values in seen.items():
            mask = self._groups[g] != best_c
            self._glb[i, g] = (
                float(values[mask].min()) if mask.any() else np.inf
            )
        if best_c != old_a and old_a >= 0:
            g_old = int(self._labels[old_a])
            if g_old not in seen:
                self._glb[i, g_old] = min(self._glb[i, g_old], old_d)
        self._a[i] = best_c
        self._ub[i] = best_d

    def _after_update(
        self, old_centers: np.ndarray, new_centers: np.ndarray
    ) -> None:
        drifts = self._center_drifts(old_centers, new_centers)
        group_drift = np.array(
            [
                drifts[members].max() if members.size else 0.0
                for members in self._groups
            ]
        )
        n, t = self._glb.shape
        self._glb = np.maximum(self._glb - group_drift[None, :], 0.0)
        self._ub += drifts[self._a]
        self._counters.record(
            BOUND_UPDATE,
            flops=float(n * t + n),
            bytes_from_memory=float(n * t * OPERAND_BYTES),
        )

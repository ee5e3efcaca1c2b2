"""Standard k-means: Lloyd's algorithm (paper's 'Standard').

The assign step computes all N*k distances — the heaviest data-transfer
pattern of the family, which is why Standard-PIM shows the largest
speedup (Table 7: up to 33.4x). With PIM assistance each point first
reads the LB_PIM-ED wave results, computes one exact distance to the
bound-minimising center, and refines only centers whose bound beats it
— all points at once, one array step per decision.
"""

from __future__ import annotations

import numpy as np

from repro.mining.kmeans.base import KMeansAlgorithm


class LloydKMeans(KMeansAlgorithm):
    """Exhaustive assign step (optionally PIM-filtered)."""

    base_name = "Standard"

    def _assign(self, centers: np.ndarray) -> np.ndarray:
        if self.pim is None:
            return self._assign_full(centers)
        return self._assign_pim(centers)

    def _assign_full(self, centers: np.ndarray) -> np.ndarray:
        data = self.data
        # ||x - c||^2 = ||x||^2 + ||c||^2 - 2 x.c, rooted for consistency
        x_sq = np.einsum("ij,ij->i", data, data)
        c_sq = np.einsum("cj,cj->c", centers, centers)
        d2 = x_sq[:, None] + c_sq[None, :] - 2.0 * data @ centers.T
        self._charge_ed(data.shape[0] * centers.shape[0])
        return np.argmin(d2, axis=1).astype(np.int64)

    def _assign_pim(self, centers: np.ndarray) -> np.ndarray:
        n, k = self.data.shape[0], centers.shape[0]
        rows = np.arange(n)
        lbs = self.pim.lower_bounds(slice(None), np.arange(k))
        self.pim.charge(self._counters, n * k)
        seed = np.argmin(lbs, axis=1)
        ub = self._pair_distances(rows, seed, centers)
        candidates = lbs < ub[:, None]
        candidates[rows, seed] = False
        dists = np.full((n, k), np.inf)
        r, c = np.nonzero(candidates)
        dists[r, c] = self._pair_distances(r, c, centers)
        self._charge_ed(n + r.size)
        # first-min over the candidates, kept only if strictly better
        best = np.argmin(dists, axis=1)
        return np.where(dists[rows, best] < ub, best, seed).astype(np.int64)

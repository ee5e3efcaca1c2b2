"""Standard k-means: Lloyd's algorithm (paper's 'Standard').

The assign step computes all N*k distances — the heaviest data-transfer
pattern of the family, which is why Standard-PIM shows the largest
speedup (Table 7: up to 33.4x). With PIM assistance the assign step is
one call of the shared seeded scan: each point computes one exact
distance to its bound-minimising center and refines only centers whose
bound does not exceed it — all points at once — and takes the
lowest-index nearest center, as the CPU path's ``argmin`` does.
"""

from __future__ import annotations

import numpy as np

from repro.mining.kmeans.base import KMeansAlgorithm, nearest


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
        rows = np.arange(self.data.shape[0])
        return nearest(*self._masked_values(centers, rows)).astype(np.int64)

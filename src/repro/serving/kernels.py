"""Exact scoring and canonical top-k kernels of the serving layer.

Every numeric step of a shard's host-side work lives here: the exact
squared-Euclidean score, Theorem 1's lower bounds, the canonical top-k
and its merge, the refine scan, the k-means assign sweep and the
degraded (bound-free) recompute. The functions take plain arrays, so
they do not depend on how rows are placed or dispatched; this module
imports nothing from :mod:`repro.serving`, :mod:`repro.faults` or
:mod:`repro.repair`, and the mining layer may share it.

The order every top-k here keeps is *canonical*: the k smallest
``(score, global index)`` pairs in lexicographic order, so duplicate
scores resolve to the lowest global index no matter which shard, block
or chunk produced them. That is what makes merged results bit-identical
for every placement.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.bounds.pim import theorem1_lower_bound


def exact_sq_distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Canonical exact scoring kernel: squared Euclidean per row.

    Every exact-scoring path — shard refinement, degraded host-side
    recompute, the k-means assist and the loop oracles in
    :mod:`repro.oracle` — must route through this one expression. The
    einsum reduces each row independently, so a row's score does not
    depend on which other rows ride in the same call; scoring rows one
    at a time, in blocks, or all at once yields bit-identical floats.
    That row independence is what lets the fused batch paths match the
    sequential loop oracles bit for bit (a plain ``diff @ diff`` BLAS
    dot does *not* guarantee this across batch shapes).
    """
    diff = np.atleast_2d(rows) - query
    return np.einsum("ij,ij->i", diff, diff)


class _CanonicalHeap:
    """The k smallest candidates by ``(score, global index)`` lex order.

    Unlike the mining layer's heap (which keeps the first-seen among
    equal scores, a visit-order artifact), ties always resolve to the
    lowest global index — the property that makes merged shard results
    placement-invariant.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (-score, -index)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def threshold(self) -> float:
        """Current k-th best score (+inf while not yet full)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def offer(self, score: float, index: int) -> bool:
        """Insert if ``(score, index)`` beats the current worst member."""
        entry = (-score, -index)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def sorted_items(self) -> list[tuple[float, int]]:
        """Members as ``(score, index)``, canonical order."""
        return sorted((-s, -i) for s, i in self._heap)


def _canonical_prefix(lb: np.ndarray, gidx: np.ndarray, m: int) -> np.ndarray:
    """An exact prefix of ``np.lexsort((gidx, lb))`` at least ``m`` long.

    Partitioning finds the ``m``-th smallest bound ``v``; every row with
    ``lb <= v`` precedes every other row in the full canonical order, so
    lexsorting just that set (boundary ties included) yields the full
    order's first ``count(lb <= v)`` entries without sorting the rest.
    """
    if m >= lb.size:
        return np.lexsort((gidx, lb))
    v = np.partition(lb, m - 1)[m - 1]
    head = np.flatnonzero(lb <= v)
    return head[np.lexsort((gidx[head], lb[head]))]


def canonical_topk(
    values: np.ndarray, gidx: np.ndarray, k: int
) -> _CanonicalHeap:
    """The ``k`` smallest ``(value, gidx)`` pairs, as a canonical heap.

    The same members, in the same order, as offering every pair to a
    :class:`_CanonicalHeap` one at a time — without the per-row loop.
    """
    heap = _CanonicalHeap(k)
    for j in _canonical_prefix(values, gidx, k)[:k].tolist():
        heap.offer(float(values[j]), int(gidx[j]))
    return heap


def _merge_heaps(heaps: list[_CanonicalHeap], k: int) -> _CanonicalHeap:
    """Global top-k from per-shard top-k lists (canonical order)."""
    merged = _CanonicalHeap(k)
    for heap in heaps:
        for score, index in heap.sorted_items():
            merged.offer(score, index)
    return merged


def knn_bounds(
    phi: np.ndarray,
    phi_q: np.ndarray,
    dots: np.ndarray,
    dims: int,
    alpha: float,
) -> np.ndarray:
    """Clamped lower bounds of every query against every row, ``(B, n)``.

    One broadcast builds every query's row, bit-identical to the
    per-query expression (:func:`theorem1_lower_bound` is elementwise).
    """
    return theorem1_lower_bound(
        phi[None, :], phi_q[:, None], dots, dims, alpha
    )


def refine_scan(
    floats: np.ndarray,
    sel: np.ndarray | None,
    gidx: np.ndarray,
    lb: np.ndarray,
    q_norm: np.ndarray,
    heap: _CanonicalHeap,
) -> int:
    """Refine candidates in canonical ``lexsort((gidx, lb))`` order.

    ``floats`` holds a shard's normalised rows and ``sel`` the subset
    being served (``None`` = all of them); ``gidx`` and ``lb`` describe
    exactly that subset. Stops at the first bound above the heap
    threshold (ascending bounds: the rest prune too) and returns the
    number of rows scored. Candidates are scored in doubling blocks
    ahead of the scan; the kernel's row independence makes block scores
    bit-identical to one-at-a-time scores, and the scan still checks the
    live heap threshold per candidate, so the refined/pruned counts —
    which feed the simulated CPU time — match the loop oracle exactly.
    The scan walks an exact :func:`_canonical_prefix` of about ``4k``
    rows, grown when the scan reaches its end without pruning, and
    gathers only the float rows it scores.
    """
    n_local = int(gidx.size)
    refined = 0
    order = _canonical_prefix(lb, gidx, 4 * heap.k)
    pos = 0
    block = 2 * heap.k
    while pos < n_local:
        if pos == order.size:
            order = _canonical_prefix(lb, gidx, 4 * order.size)
        chunk = order[pos : pos + block]
        lbs = lb[chunk].tolist()
        if lbs[0] > heap.threshold:
            break
        rows = chunk if sel is None else sel[chunk]
        scores = exact_sq_distances(floats[rows], q_norm).tolist()
        stopped = False
        for bound, score, index in zip(lbs, scores, gidx[chunk].tolist()):
            if bound > heap.threshold:
                stopped = True
                break
            heap.offer(score, index)
            refined += 1
        if stopped:
            break
        pos += chunk.size
        block *= 2
    return refined


def assign_sweep(
    phi: np.ndarray,
    floats: np.ndarray,
    dots: np.ndarray,
    c_norm: np.ndarray,
    phi_c: np.ndarray,
    dims: int,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest center of every row: ``(centers, dists, refined)``.

    ``phi``, ``floats`` and the ``(n_centers, n)`` dot products
    ``dots`` describe the rows to assign. Sweeps centers in index order
    across all rows at once. Each row's prune test (``lb > best_d``) and
    strict ``d < best_d`` update depend only on that row's own state, so
    the center-major sweep replays the per-row loop's decisions exactly
    — same refined count, same canonical lowest-center-index tie-break,
    same distance bits (row independence of the kernel). Only the
    surviving rows are gathered and scored per center: the lb pruning is
    heavy enough that scoring whole row blocks costs more than the
    per-center gathers save.
    """
    lb = theorem1_lower_bound(
        phi[:, np.newaxis], phi_c[np.newaxis, :], dots.T, dims, alpha
    )
    best_d = np.full(phi.size, np.inf)
    best_c = np.zeros(phi.size, dtype=np.int64)
    refined = 0
    for c in range(c_norm.shape[0]):
        hit = np.flatnonzero(lb[:, c] <= best_d)
        if hit.size == 0:
            continue
        d = exact_sq_distances(floats[hit], c_norm[c])
        refined += int(hit.size)
        closer = d < best_d[hit]
        upd = hit[closer]
        best_d[upd] = d[closer]
        best_c[upd] = c
    return best_c, best_d, refined


def nearest_centers(
    floats: np.ndarray, c_norm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bound-free nearest center of every row (degraded recompute).

    All rows x all centers; ``argmin`` keeps the first (i.e.
    lowest-index) minimum — the strict ``<`` tie-break.
    """
    dists = np.stack(
        [exact_sq_distances(floats, c) for c in c_norm], axis=1
    )
    best = dists.argmin(axis=1)
    return best, dists[np.arange(best.size), best]

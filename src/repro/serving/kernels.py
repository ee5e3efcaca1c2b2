"""Exact scoring and canonical top-k kernels of the serving layer.

Every numeric step of a shard's host-side work lives here: the exact
squared-Euclidean score, Theorem 1's lower bounds, the canonical top-k
and its merge, the stop-at-k refine, the k-means assign sweep and the
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
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest ``(value, gidx)`` pairs in canonical order.

    Returns ``(values, gidx)`` arrays of ``min(k, n)`` entries: the
    first entries of the full ``lexsort((gidx, values))``, without
    sorting the rest.
    """
    top = _canonical_prefix(values, gidx, k)[:k]
    return values[top], gidx[top]


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


def _kth_smallest(scores: np.ndarray, k: int) -> float:
    """The ``k``-th smallest entry of ``scores`` (``k <= scores.size``)."""
    return float(np.partition(scores, k - 1)[k - 1])


def refine_topk(
    floats: np.ndarray,
    sel: np.ndarray | None,
    gidx: np.ndarray,
    lb: np.ndarray,
    q_norm: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One query's refined top-k on a shard: ``(scores, gidx, refined)``.

    ``floats`` holds a shard's normalised rows and ``sel`` the subset
    being served (``None`` = all of them); ``gidx`` and ``lb`` describe
    exactly that subset. The result is what the loop oracle gets by
    visiting candidates in canonical ``lexsort((gidx, lb))`` order,
    scoring each and offering it to a k-best list, and stopping at the
    first bound above the list's threshold (+inf until ``k`` rows are
    scored): the canonical top-k of the scored rows and their number,
    which feeds the simulated CPU time.

    Bounds ascend along the canonical order and the threshold — the
    k-th smallest score so far — only falls, so the stop test is false
    and then true, and the stop point is found with array operations:

    * **fast path** — score the first ``k`` rows of the canonical order
      at once; if the next row's bound exceeds their largest score, the
      scan stops there (the common case: bounds prune about 99% of
      rows);
    * **general path** — score further rows of an exact
      :func:`_canonical_prefix` in doubling blocks, and binary-search
      each block for the first row whose bound exceeds the k-th
      smallest score before it.

    Scores come from :func:`exact_sq_distances`, whose row independence
    makes block scores bit-identical to one-at-a-time scores.
    """
    n = int(gidx.size)
    if n <= k:  # the threshold never leaves +inf: every row is scored
        rows = floats if sel is None else floats[sel]
        scores = exact_sq_distances(rows, q_norm)
        top = np.lexsort((gidx, scores))
        return scores[top], gidx[top], n
    order = _canonical_prefix(lb, gidx, k + 1)

    def score(at: np.ndarray) -> np.ndarray:
        return exact_sq_distances(
            floats[at if sel is None else sel[at]], q_norm
        )

    scores = score(order[:k])
    if lb[order[k]] > scores.max():
        refined = k
    else:
        # the stop test failed at every position up to ``checked``
        checked, refined = k, n
        while scores.size < n:
            end = min(n, 2 * (checked + 1))  # score rows [.., end)
            if order.size < min(end + 1, n):
                order = _canonical_prefix(
                    lb, gidx, max(end + 1, 4 * order.size)
                )
            scores = np.concatenate(
                (scores, score(order[scores.size : end]))
            )
            hi = min(end, n - 1)  # the last position testable now
            if hi == checked or lb[order[hi]] <= _kth_smallest(scores[:hi], k):
                checked = hi
                continue
            lo = checked + 1  # the stop lies in [lo, hi]
            while lo < hi:
                mid = (lo + hi) // 2
                if lb[order[mid]] > _kth_smallest(scores[:mid], k):
                    hi = mid
                else:
                    lo = mid + 1
            refined = lo
            break
    scores = scores[:refined]
    kept = gidx[order[:refined]]
    top = np.lexsort((kept, scores))[:k]
    return scores[top], kept[top], refined


def merge_topk(
    scores: list[np.ndarray], gidx: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global canonical top-k from per-shard top-k lists."""
    all_scores = np.concatenate(scores)
    all_gidx = np.concatenate(gidx)
    top = np.lexsort((all_gidx, all_scores))[:k]
    return all_scores[top], all_gidx[top]


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

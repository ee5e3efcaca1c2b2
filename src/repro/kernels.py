"""Exact scoring, canonical top-k and filter-and-refine kernels.

Every numeric step of a shard's host-side work lives here, and the
mining algorithms share it: the exact squared-Euclidean score, Theorem
1's lower bounds, the canonical top-k and its merge, the one sorted
filter-and-refine walk (:func:`refine_topk`), the k-means assign sweep
and the degraded (bound-free) recompute. The functions take plain
arrays and callables, so they do not depend on how rows are placed or
dispatched; this module imports nothing from :mod:`repro.serving`,
:mod:`repro.mining`, :mod:`repro.faults` or :mod:`repro.repair`.

Scoring gathers rather than copies: :func:`exact_sq_distances` takes
row positions, gathers those rows into one fresh array and subtracts
the query in place. The in-place subtract is only ever done on that
fresh gather, so no kernel here writes into the caller's rows (a
shard's stored ``floats`` stay byte-identical across every call). Its
callers: the assign sweep and the degraded recompute here, the shards'
refine closure, the kNN join, the k-means algorithms (one call per
center group in ``KMeansAlgorithm._pair_distances``, one per point in
``_exact_distances``, one per chosen center in k-means++ seeding) and
the loop oracles of :mod:`repro.oracle`. The assign sweep keeps its
bounds as ``(n_centers, n)``, the wave's own ``(C, n)`` dot layout, so
each center's prune test reads one contiguous row.

The order every top-k here keeps is *canonical*: the k smallest
``(score, global index)`` pairs in lexicographic order, so duplicate
scores resolve to the lowest global index no matter which shard, block
or chunk produced them, or which algorithm visited them. That is what
makes merged results bit-identical for every placement, and a PIM
variant's answer bit-identical to its baseline's.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Sequence

import numpy as np

from repro.bounds.pim import theorem1_lower_bound


def exact_sq_distances(
    matrix: np.ndarray, query: np.ndarray, at: np.ndarray | None = None
) -> np.ndarray:
    """Canonical exact scoring kernel: squared Euclidean per row.

    Scores the rows of ``matrix``, or with ``at`` (a 1-D integer array
    of row positions, repeats allowed) the rows ``matrix[at]`` in that
    order. Every exact-scoring path — shard refinement, degraded
    host-side recompute, the k-means assist and the loop oracles in
    :mod:`repro.oracle` — must route through this one expression. The
    one exception is CPU Standard k-means' assign step
    (``LloydKMeans._assign_full``), a BLAS ``x.x + c.c - 2 x.c`` over
    all N x k pairs: it keeps only each point's ``argmin`` and no
    distance bits, and it is about 10x faster than this kernel there
    (1.1 against 10.5 ms per step at 3000 x 90 x 16 on one BLAS thread
    of a 2-vCPU Xeon). The einsum reduces each row independently, so a
    row's score does not depend on which other rows ride in the same
    call; scoring rows one at a time, in blocks, or all at once yields
    bit-identical floats.
    That row independence is what lets the fused batch paths match the
    sequential loop oracles bit for bit (a plain ``diff @ diff`` BLAS
    dot does *not* guarantee this across batch shapes).

    With ``at`` the gather ``matrix[at]`` is the one full-size buffer
    of the call: the query is subtracted from it in place, which gives
    the bits of ``matrix[at] - query``. Subtracting in place is only
    ever done on that fresh gather, never on ``matrix`` or a view of
    it, so the caller's rows are never written.
    """
    if at is None:
        diff = np.atleast_2d(matrix) - query
    else:
        # advanced indexing copies; cast (a no-op for float64 rows) to
        # the dtype ``matrix[at] - query`` would have
        diff = matrix[np.atleast_1d(at)].astype(
            np.result_type(matrix, query), copy=False
        )
        np.subtract(diff, query, out=diff)
    return np.einsum("ij,ij->i", diff, diff)


def _canonical_prefix(lb: np.ndarray, gidx: np.ndarray, m: int) -> np.ndarray:
    """An exact prefix of ``np.lexsort((gidx, lb))`` at least ``m`` long.

    Partitioning finds the ``m``-th smallest bound ``v``; every row with
    ``lb <= v`` precedes every other row in the full canonical order, so
    lexsorting just that set (boundary ties included) yields the full
    order's first ``count(lb <= v)`` entries without sorting the rest.
    """
    if m >= lb.size:
        # the full order: a quicksort, and a lexsort only if bounds tie
        order = np.argsort(lb)
        ranked = lb[order]
        if (ranked[1:] == ranked[:-1]).any():
            order = order[np.lexsort((gidx[order], ranked))]
        return order
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
    score: Callable[[np.ndarray], np.ndarray],
    keys: np.ndarray,
    gidx: np.ndarray,
    k: int,
    stages: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
) -> tuple[np.ndarray, np.ndarray, int, list[int], bool]:
    """One query's sorted filter-and-refine walk: ``(scores, gidx,
    exact, stage_evals, stopped)``.

    ``keys`` are the coarse bounds and ``gidx`` the tie ids of the
    candidates; ``score(at)`` gives the exact scores and each finer
    ``stage(at)`` its bounds of the candidates at positions ``at``, all
    sign-adjusted so smaller is better (a similarity and its upper
    bounds negated, which is exact). The result is the one-at-a-time
    loop's: visit candidates in canonical ``lexsort((gidx, keys))``
    order, stop at the first key above the threshold (the k-th smallest
    score so far, +inf until ``k`` rows are scored), skip a candidate
    at the first finer stage above it, score the rest and keep the
    ``k`` smallest ``(score, gidx)`` pairs. Returned are those pairs in
    canonical order, the number of rows scored, each finer stage's
    evaluations and whether a key stopped the walk before the last row.

    Keys ascend along that order and the threshold only falls, so the
    stop test is false and then true, and array operations find the
    stop point:

    * **fast path** (no finer stage) — score the first ``k`` rows at
      once; if the next row's key exceeds their largest score, the walk
      stops there (the common case: bounds prune about 99% of rows);
    * **general path** (no finer stage) — score further rows of an
      exact :func:`_canonical_prefix` in doubling blocks, and
      binary-search each block for the first row whose key exceeds the
      k-th smallest score before it;
    * **staged path** — take the full canonical order in the same
      doubling blocks, each a lazy cascade: cut the block at the
      block-start threshold's stop point, run stage ``s`` only on the
      rows that pass every stage before it (on no rows if need be, so a
      PIM stage fires its wave in the first block, as in the loop), and
      score only the rows that pass them all. A replay then takes the
      per-row decisions at the live threshold: between two scored rows
      it is fixed, so only stage survivors are visited one by one,
      ``searchsorted`` finds the stop point and one pass finds each
      visited row's first failing stage. The replay tracks the
      threshold's value only, so it needs no tie rule.

    Stages and the exact measure score each row on its own, so scoring
    rows in blocks gives the bits of scoring them one at a time.
    """
    if stages:
        return _refine_staged(score, keys, gidx, k, stages)
    n = int(gidx.size)
    order = _canonical_prefix(keys, gidx, k + 1)
    scores = score(order[:k])
    # at most k rows: the threshold never leaves +inf, all are scored
    if n <= k or keys[order[k]] > scores.max():
        refined = min(k, n)
    else:
        # the stop test failed at every position up to ``checked``
        checked, refined = k, n
        while scores.size < n:
            end = min(n, 2 * (checked + 1))  # score rows [.., end)
            if order.size < min(end + 1, n):
                order = _canonical_prefix(
                    keys, gidx, max(end + 1, 4 * order.size)
                )
            scores = np.concatenate(
                (scores, score(order[scores.size : end]))
            )
            hi = min(end, n - 1)  # the last position testable now
            if hi == checked or keys[order[hi]] <= _kth_smallest(
                scores[:hi], k
            ):
                checked = hi
                continue
            lo = checked + 1  # the stop lies in [lo, hi]
            while lo < hi:
                mid = (lo + hi) // 2
                if keys[order[mid]] > _kth_smallest(scores[:mid], k):
                    hi = mid
                else:
                    lo = mid + 1
            refined = lo
            break
    scores = scores[:refined]
    kept = gidx[order[:refined]]
    top = np.lexsort((kept, scores))[:k]
    return scores[top], kept[top], refined, [], refined < n


def _refine_staged(score, keys, gidx, k, stages):
    """:func:`refine_topk` with finer stages (its staged path)."""
    n = int(gidx.size)
    best: list[float] = []  # the k smallest scores so far, ascending
    limit = np.inf  # the threshold: best[k - 1] once k rows are scored
    kept: list[int] = []  # positions of the scored rows
    kept_scores: list[float] = []
    stage_evals = np.zeros(len(stages), dtype=np.int64)
    order = _canonical_prefix(keys, gidx, n)
    start, end, stopped = 0, min(k, n), False
    while start < n and not stopped:
        block = order[start:end]
        firsts = keys[block]
        start, end = end, min(n, 2 * end + 2)
        if firsts[0] > limit:
            stopped = True  # the block's first row stops the walk
            break
        # the threshold only falls, so what the block-start limit stops
        # or rejects stays stopped or rejected: the rows that pass it
        # are a superset of the rows the walk can still use
        cut = int(np.searchsorted(firsts, limit, side="right"))
        rows = block[:cut]
        stage_values = np.full((cut, len(stages)), np.inf)
        alive = np.arange(cut)
        for s, stage in enumerate(stages):
            values = stage(rows[alive])
            stage_values[alive, s] = values
            alive = alive[~(values > limit)]
        scores = score(rows[alive])
        tops = stage_values[alive].max(axis=1).tolist()

        # replay the per-row walk: between two scored rows the limit is
        # fixed, so only survivors of every stage can move it
        scored: list[int] = []
        limits = [limit]
        visited, next_row = cut, 0
        for t, head, top, value in zip(
            alive.tolist(), firsts[alive].tolist(), tops, scores.tolist()
        ):
            if head > limit:
                visited = next_row + int(
                    np.searchsorted(firsts[next_row:t], limit, "right")
                )
                stopped = True
                break
            if top > limit:
                continue
            bisect.insort(best, value)
            del best[k:]
            if len(best) == k:
                limit = best[-1]
            kept_scores.append(value)
            scored.append(t)
            limits.append(limit)
            next_row = t + 1
        else:
            visited = next_row + int(
                np.searchsorted(firsts[next_row:cut], limit, "right")
            )
            stopped = visited < firsts.size
        kept.extend(rows[scored].tolist())
        if visited:
            # each visited row at the limit in force when it was reached
            # (a scored row at the limit before it was scored): stage s
            # ran on the rows that passed every stage before s
            spans = np.diff([0, *(t + 1 for t in scored), visited])
            at = np.repeat(limits, spans)
            passed = np.logical_and.accumulate(
                ~(stage_values[:visited] > at[:, None]), axis=1
            )
            stage_evals[0] += visited
            stage_evals[1:] += passed[:, :-1].sum(axis=0)
    scores = np.array(kept_scores, dtype=np.float64)
    kept_gidx = gidx[np.array(kept, dtype=np.intp)]
    top = np.lexsort((kept_gidx, scores))[:k]
    return (
        scores[top], kept_gidx[top], len(kept), stage_evals.tolist(), stopped
    )


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
    sel: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest center of every row: ``(centers, dists, refined)``.

    The rows to assign are ``phi`` and ``floats`` at the positions
    ``sel`` (``None``: every row), and ``dots`` are their
    ``(n_centers, n)`` dot products, one wave row per center. The
    bounds keep that ``(C, n)`` layout, so each center's prune test
    reads one contiguous row. Sweeps centers in index order across all
    rows at once. Each row's prune test (``lb > best_d``) and strict
    ``d < best_d`` update depend only on that row's own state, so the
    center-major sweep replays the per-row loop's decisions exactly —
    same refined count, same canonical lowest-center-index tie-break,
    same distance bits (row independence of the kernel). Only the
    surviving rows are scored per center, each center's in one
    :func:`exact_sq_distances` call on their composed positions, so
    neither ``floats`` nor ``phi`` is copied whole: the lb pruning is
    heavy enough that scoring whole row blocks costs more than the
    per-center gathers save.
    """
    lb = theorem1_lower_bound(
        (phi if sel is None else phi[sel])[np.newaxis, :],
        phi_c[:, np.newaxis], dots, dims, alpha,
    )
    n = lb.shape[1]
    best_d = np.full(n, np.inf)
    best_c = np.zeros(n, dtype=np.int64)
    refined = 0
    for c in range(c_norm.shape[0]):
        hit = np.flatnonzero(lb[c] <= best_d)
        if hit.size == 0:
            continue
        d = exact_sq_distances(
            floats, c_norm[c], hit if sel is None else sel[hit]
        )
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

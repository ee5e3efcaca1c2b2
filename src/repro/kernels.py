"""Exact scoring, canonical top-k and filter-and-refine kernels.

Every numeric step of a shard's host-side work lives here, and the
mining algorithms share it: the exact squared-Euclidean score, Theorem
1's lower bounds, the canonical top-k and its merge, the one sorted
filter-and-refine walk (:func:`refine_topk`), the k-means pair scoring
and certified assign sweep, and the degraded (bound-free) recompute.
The functions take plain arrays and callables, so they do not depend
on how rows are placed or dispatched; this module imports nothing from
:mod:`repro.serving`, :mod:`repro.mining`, :mod:`repro.faults` or
:mod:`repro.repair`.

Scoring gathers rather than copies: :func:`exact_sq_distances` takes
row positions, gathers those rows into one fresh array and subtracts
the query in place. The in-place subtract is only ever done on that
fresh gather, so no kernel here writes into the caller's rows (a
shard's stored ``floats`` stay byte-identical across every call). Its
callers: :func:`pair_sq_distances` here (one call per center group),
which scores the assign sweep's winners and its current bests and
``KMeansAlgorithm._pair_distances``'s pairs; the assign sweep's
candidates and the degraded recompute here; the shards' refine
closure; the kNN join; the k-means algorithms' ``_exact_distances``
(one call per point) and k-means++ seeding (one per chosen center); and
the loop oracles of :mod:`repro.oracle`. The assign sweep keeps its
bounds as ``(n_centers, n)``, the wave's own ``(C, n)`` dot layout, so
each center's pass test reads one contiguous row, and settles nearly
every decision from Theorem 3's window (:func:`assign_window`) without
scoring.

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
from repro.similarity.quantization import theorem3_error_bound


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
    sorting just that head (boundary ties included) yields the full
    order's first ``count(lb <= v)`` entries without sorting the rest.
    The head (every row when ``m >= lb.size``) is quicksorted by bound,
    and lexsorted by ``(bound, gidx)`` only if two bounds tie.
    """
    if m >= lb.size:
        head, keys = None, lb
    else:
        v = np.partition(lb, m - 1)[m - 1]
        head = (lb <= v).nonzero()[0]
        keys = lb[head]
    order = np.argsort(keys)
    ranked = keys[order]
    if np.count_nonzero(ranked[1:] == ranked[:-1]):
        ids = gidx if head is None else gidx[head]
        order = order[np.lexsort((ids[order], ranked))]
    return order if head is None else head[order]


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


def pair_sq_distances(
    matrix: np.ndarray,
    centers: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Exact squared distance of ``matrix[rows[t]]`` to ``centers[cols[t]]``.

    The pairs are grouped by center with one stable sort, and each
    group is one :func:`exact_sq_distances` call on its rows: one
    center's gather at a time, never a (pairs x dims) array. The kernel
    reduces each row on its own, so every pair gets the bits of scoring
    it alone (and ``x - c`` is exactly ``-(c - x)``, so also the bits of
    scoring the center against the row).
    """
    order = np.argsort(cols, kind="stable")
    grouped_rows = rows[order]
    grouped = np.empty(len(rows))
    counts = np.bincount(cols)
    present = counts.nonzero()[0]
    lo = 0
    for c, hi in zip(present.tolist(), np.cumsum(counts[present]).tolist()):
        grouped[lo:hi] = exact_sq_distances(
            matrix, centers[c], grouped_rows[lo:hi]
        )
        lo = hi
    out = np.empty(len(rows))
    out[order] = grouped
    return out


def assign_window(
    dims: int, alpha: float, accumulator_bits: int = 64
) -> tuple[float, float]:
    """``(below, above)``: a pair's score is in ``[lb - below, lb + above]``.

    For a row ``x`` and a center ``c`` in ``[0, 1]^d`` (what
    ``Quantizer.normalize`` yields), ``lb`` their clamped Theorem 1
    bound as :func:`~repro.bounds.pim.theorem1_lower_bound` computes it
    from exact dot products, and ``E`` their
    :func:`exact_sq_distances` score, ``lb - below <= E <= lb + above``
    with ``below = delta`` and ``above = eps + delta``.

    ``eps`` is Theorem 3's bound. With ``p = fl(alpha x)``, ``q =
    fl(alpha c)`` (both in ``[0, alpha]``), ``P = floor(p)`` and
    ``Q = floor(q)``, the exact Theorem 1 expression ``L`` on them and
    ``S = sum (p - q)^2 / alpha^2`` satisfy ``0 <= S - L <= 2 sum (P +
    Q + 1) / alpha^2 <= 4d/alpha + 2d/alpha^2``, and ``S >= 0`` makes
    that hold for ``max(0, L)`` too.

    ``delta`` covers float rounding (``u = 2**-53``, magnitudes from
    values in ``[0, alpha]``, error terms to first order in ``u``):

    * ``S`` against ``D = sum (x - c)^2``: ``p / alpha`` is ``x`` up to
      a relative ``u``, so each term moves by at most ``4u``: ``4du``;
    * ``E`` against ``D``: one rounded difference, square and ``d - 1``
      adds of non-negative terms at most 1: ``(d + 2) d u``;
    * the computed bound against ``L``: the two ``sum p^2`` (``d``
      rounded squares and adds of terms ``<= alpha^2``) ``2 d^2 u``;
      the float conversions of ``2 sum P``, ``2 sum Q`` and ``2 dots``
      and the five additions, each at most ``8 d alpha^2 + 2d`` in
      size, ``34 d u + 2 d u / alpha^2`` together after the division
      by ``alpha^2``; that division, on a value at most ``8d +
      2d/alpha^2``, ``16 d u + 4 d u / alpha^2``;
    * rounding ``eps`` (at most ``4d/alpha + 2d/alpha^2``) and the
      window ends ``lb - below`` and ``lb + above``: ``48 d u + 42 d u
      / alpha^2`` (``1/alpha <= 1 + 1/alpha^2``).

    Together ``3 d^2 u + 104 d u + 48 d u / alpha^2``, below ``delta =
    4 d (d + 32 + 16 / alpha^2) u``, whose extra ``d^2 u`` also covers
    the second-order terms. With ``d = 420`` and ``alpha =
    1e6``, ``delta`` is 8.4e-11 against ``eps`` = 1.68e-3, so the window
    is Theorem 3's own.

    Dot products are exact only while they fit the accumulator: the
    largest is ``d floor(alpha)^2``, and past ``2**63`` (or
    ``2**accumulator_bits`` for a narrower one) they may wrap, and
    ``lb`` bounds nothing. The window is then the whole line,
    ``(inf, inf)``.
    """
    limit = 2.0 ** min(accumulator_bits, 63)
    if dims * float(alpha) ** 2 >= limit:
        return np.inf, np.inf
    u = np.finfo(np.float64).eps / 2
    delta = 4.0 * dims * (dims + 32.0 + 16.0 / alpha**2) * u
    return delta, theorem3_error_bound(dims, alpha) + delta


def assign_sweep(
    phi: np.ndarray,
    floats: np.ndarray,
    dots: np.ndarray,
    c_norm: np.ndarray,
    phi_c: np.ndarray,
    dims: int,
    alpha: float,
    sel: np.ndarray | None = None,
    accumulator_bits: int = 64,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest center of every row: ``(centers, dists, refined)``.

    The rows to assign are ``phi`` and ``floats`` at the positions
    ``sel`` (``None``: every row), and ``dots`` are their
    ``(n_centers, n)`` dot products, one wave row per center; rows and
    centers lie in ``[0, 1]``. The result is the per-row loop's: visit
    centers in index order, refine center ``c`` iff ``lb[c] <=
    best_d``, and take it iff its exact score ``d < best_d`` (strict,
    so ties keep the lowest center index), with the bits of
    :func:`exact_sq_distances`.

    The sweep takes those decisions for all rows at once, center by
    center, without scoring every refined pair. Each row keeps an
    interval ``[lo, hi]`` that holds its running ``best_d``: the
    :func:`assign_window` of its best center's bound, or one exact
    score. A row's pass test is certain when ``lb[c] <= lo`` or
    ``lb[c] > hi``, and its update is certain when ``c``'s whole window
    lies below ``lo``. Theorem 3's window is far narrower than the gaps
    between centers, so nearly every decision is certain; a row whose
    decision is not is scored exactly (its current best if that is
    still a window, then its candidate if it passes), and at the end
    each row's winner that is still a window is scored once, with
    :func:`pair_sq_distances`. Decisions, refined count, tie rule and
    bits are the loop's by construction.

    Every exact score is checked against its window. One outside it
    means wrong dot products slipped past the wave checks; the shard's
    sweep is then redone on the whole-line window, where every refined
    pair is scored exactly and no decision reads a window.
    """
    lb = theorem1_lower_bound(
        (phi if sel is None else phi[sel])[np.newaxis, :],
        phi_c[:, np.newaxis], dots, dims, alpha,
    )
    rows = np.arange(lb.shape[1]) if sel is None else sel
    below, above = assign_window(dims, alpha, accumulator_bits)
    swept = _certified_sweep(lb, floats, c_norm, rows, below, above)
    if swept is None:
        swept = _certified_sweep(lb, floats, c_norm, rows, np.inf, np.inf)
    return swept


def _outside(d: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether any exact score left its window."""
    return bool(((d < lo) | (d > hi)).any())


def _certified_sweep(lb, floats, c_norm, rows, below, above):
    """:func:`assign_sweep` on ``(below, above)`` windows, or ``None``
    when an exact score falls outside its window."""
    n = lb.shape[1]
    best_c = np.zeros(n, dtype=np.int64)
    lo = np.full(n, np.inf)  # best_d lies in [lo, hi]; inf: no best yet
    hi = np.full(n, np.inf)
    refined = 0

    def settle(at: np.ndarray) -> bool:
        """Score the current bests of rows ``at``; False if one left
        its window."""
        b = pair_sq_distances(floats, c_norm, rows[at], best_c[at])
        if _outside(b, lo[at], hi[at]):
            return False
        lo[at] = hi[at] = b
        return True

    for c in range(lb.shape[0]):
        lbc = lb[c]
        hit = (lbc <= hi).nonzero()[0]  # the others certainly fail
        if hit.size == 0:
            continue
        lb_hit = lbc[hit]
        top = lb_hit + above
        sure = top < lo[hit]  # certain pass and certain update
        if not sure.all():
            # open decisions: score the row's best if it is still a
            # window, so the pass test is exact, then the candidate
            unsure = hit[~sure]
            windowed = unsure[lo[unsure] < hi[unsure]]
            if windowed.size and not settle(windowed):
                return None
            passed = unsure[lbc[unsure] <= hi[unsure]]
            if passed.size:
                d = exact_sq_distances(floats, c_norm[c], rows[passed])
                lb_passed = lbc[passed]
                if _outside(d, lb_passed - below, lb_passed + above):
                    return None
                closer = d < hi[passed]
                won = passed[closer]
                best_c[won] = c
                lo[won] = hi[won] = d[closer]
                refined += int(passed.size)
            hit, lb_hit, top = hit[sure], lb_hit[sure], top[sure]
        refined += int(hit.size)
        best_c[hit] = c
        lo[hit] = lb_hit - below
        hi[hit] = top
    windowed = (lo < hi).nonzero()[0]
    if windowed.size and not settle(windowed):
        return None
    return best_c, hi, refined


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

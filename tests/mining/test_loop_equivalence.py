"""The array-speed mining paths against the loops they replay.

``FilteredKNN.query`` walks the canonical ``(bound, index)`` order in
blocks as a lazy cascade with an array replay
(:func:`repro.kernels.refine_topk`), and the Lloyd-PIM and Drake assign
steps and Elkan's first pass work on all points at once through one
nearest-center scan. The loops below are the one-candidate-at-a-time
and one-point-at-a-time walks those paths replace; on tie-heavy data (a
five-value alphabet and duplicate rows) every answer, count, cost
bucket, wave and simulated ns must come out equal, bucket order
included, since the cost model sums buckets in insertion order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds.base import LOWER, Bound
from repro.bounds.ed import FNNBound, PartitionUpperBound
from repro.bounds.pim import PIMFNNBound
from repro.cost.counters import OTHER, PerfCounters
from repro.hardware.controller import PIMController
from repro.mining.kmeans import (
    DrakeKMeans,
    ElkanKMeans,
    LloydKMeans,
    PIMAssist,
)
from repro.mining.kmeans.base import initial_centers
from repro.mining.knn import (
    FNNKNN,
    FNNPIMKNN,
    FNNPIMOptimizeKNN,
    OSTKNN,
    OSTPIMKNN,
    SMKNN,
    SMPIMKNN,
    StandardPIMKNN,
)
from repro.mining.knn.filtered import FilteredKNN
from repro.oracle import _CanonicalHeap


def tie_heavy(n: int, dims: int, seed: int) -> np.ndarray:
    """Values from a five-letter alphabet, a quarter of rows repeated."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 5, (n, dims)) / 4.0
    dup = rng.choice(n, n // 4, replace=False)
    data[dup] = data[rng.integers(0, n, dup.size)]
    return data


def buckets(counters: PerfCounters) -> list:
    return list(counters.functions.items())


# ----------------------------------------------------------------------
# kNN: the per-candidate filter-and-refine walk
# ----------------------------------------------------------------------
def loop_query(algo: FilteredKNN, q: np.ndarray, k: int):
    """One candidate at a time, in canonical ``(key, index)`` order.

    Keys and scores are sign-adjusted (a similarity and its upper
    bounds negated), so the canonical heap keeps the k smallest
    ``(score, index)`` pairs and its threshold is a k-th smallest score.
    """
    pim_before = algo.controller.pim.stats.pim_time_ns if algo.controller else 0.0
    counters = PerfCounters()
    for bound in algo.bounds:
        bound.charge_query_setup(counters, algo.dims)
    first, finer = algo.bounds[0], algo.bounds[1:]
    sign = 1.0 if algo.minimize else -1.0
    keys = sign * first.evaluate(q)
    first.charge(counters, algo.n_objects)
    stage_evals = {b.name: 0 for b in algo.bounds}
    stage_evals[first.name] = algo.n_objects
    heap = _CanonicalHeap(k)
    exact = 0
    for i in np.lexsort((np.arange(keys.size), keys)):
        if keys[i] > heap.threshold:
            counters.record(OTHER, branches=1.0)
            break
        candidate = int(i)
        pruned = False
        for bound in finer:
            v = sign * bound.evaluate(q, np.array([candidate]))[0]
            bound.charge(counters, 1)
            stage_evals[bound.name] += 1
            if v > heap.threshold:
                pruned = True
                break
        if pruned:
            continue
        score = sign * float(algo.exact_scores(q, np.array([candidate]))[0])
        algo.charge_exact(counters, 1)
        algo.charge_heap(counters, 1)
        exact += 1
        heap.offer(score, candidate)
    stage_evals[algo.measure] = exact
    pim_after = algo.controller.pim.stats.pim_time_ns if algo.controller else 0.0
    items = heap.sorted_items()
    return algo._finalize(
        [i for _, i in items],
        [sign * s for s, _ in items],
        counters,
        pim_time_ns=pim_after - pim_before,
        exact_computations=exact,
        stage_evaluations=stage_evals,
    )


def assert_same_walk(fast: FilteredKNN, slow: FilteredKNN, q, k, label):
    """``fast.query`` equals the per-candidate loop run on ``slow``.

    Two equal instances on their own controllers, so each side fires
    (or reuses) its own waves and the simulated ns can be compared too.
    """
    want = loop_query(slow, q, k)
    got = fast.query(q, k)
    assert np.array_equal(got.indices, want.indices), (k, label)
    assert np.array_equal(got.scores, want.scores), (k, label)
    assert got.exact_computations == want.exact_computations
    assert got.stage_evaluations == want.stage_evaluations
    assert buckets(got.counters) == buckets(want.counters)
    assert got.pim_time_ns == want.pim_time_ns, (k, label)
    if fast.controller is not None:
        assert fast.controller.pim.stats.waves == slow.controller.pim.stats.waves


DIMS = 32


def _fnn_optimize(ctl):
    return FNNPIMOptimizeKNN(
        [PIMFNNBound(4, ctl), FNNBound(2), FNNBound(8)], ctl
    )


def _fnn_pim_finer(ctl):
    """A PIM bound as a finer stage: its one wave fires mid-cascade."""
    return FNNPIMOptimizeKNN(
        [FNNBound(2), PIMFNNBound(4, ctl), FNNBound(8)], ctl
    )


KNN_FACTORIES = {
    "OST": lambda n: OSTKNN(DIMS),
    "SM": lambda n: SMKNN(DIMS),
    "FNN": lambda n: FNNKNN(DIMS),
    "UB_part-CS": lambda n: FilteredKNN(
        [PartitionUpperBound(DIMS // 4)], measure="cosine"
    ),
    "Standard-PIM-ED": lambda n: StandardPIMKNN(controller=PIMController()),
    "Standard-PIM-CS": lambda n: StandardPIMKNN(
        measure="cosine", controller=PIMController()
    ),
    "Standard-PIM-PCC": lambda n: StandardPIMKNN(
        measure="pearson", controller=PIMController()
    ),
    "OST-PIM": lambda n: OSTPIMKNN(DIMS, controller=PIMController()),
    "SM-PIM": lambda n: SMPIMKNN(DIMS, controller=PIMController()),
    "FNN-PIM": lambda n: FNNPIMKNN(DIMS, n, controller=PIMController()),
    "FNN-PIM-optimize": lambda n: _fnn_optimize(PIMController()),
    "FNN-PIM-finer": lambda n: _fnn_pim_finer(PIMController()),
    "UB_part-CS-ladder": lambda n: FilteredKNN(
        [PartitionUpperBound(DIMS // 4), PartitionUpperBound(DIMS // 2)],
        measure="cosine",
    ),
}


def fitted_pair(name: str, data: np.ndarray):
    n = data.shape[0]
    make = KNN_FACTORIES[name]
    return make(n).fit(data), make(n).fit(data)


def walk_queries(data: np.ndarray) -> np.ndarray:
    """Dataset rows (exact ties at distance 0) and nearby perturbations."""
    rng = np.random.default_rng(7)
    dims = data.shape[1]
    return np.vstack(
        [data[:3], np.clip(data[3:6] + 0.1 * rng.random((3, dims)), 0, 1)]
    )


@pytest.mark.parametrize("name", sorted(KNN_FACTORIES))
def test_filtered_knn_matches_per_candidate_loop(name):
    n = 90
    data = tie_heavy(n, DIMS, seed=len(name))
    fast, slow = fitted_pair(name, data)
    for q in walk_queries(data):
        for k in (1, 2, 5, 17, 60, n, n + 7):
            assert_same_walk(fast, slow, q, k, name)


@pytest.mark.parametrize(
    "name", ["FNN", "FNN-PIM", "FNN-PIM-finer", "UB_part-CS-ladder"]
)
def test_k_beyond_the_first_block_matches_loop(name):
    """A large ``k``: the threshold is still +inf across blocks."""
    n = 700
    data = tie_heavy(n, DIMS, seed=11)
    fast, slow = fitted_pair(name, data)
    for q in walk_queries(data)[[0, 4]]:
        for k in (257, 562):
            assert_same_walk(fast, slow, q, k, name)


class TableBound(Bound):
    """A lower bound read from a fixed table, to pin the visit order."""

    def __init__(self, values: np.ndarray) -> None:
        super().__init__(name="LB_table", kind=LOWER)
        self.values = np.asarray(values, dtype=np.float64)

    def prepare(self, data: np.ndarray) -> None:
        self._n_objects = data.shape[0]

    def evaluate(self, query, indices=None):
        return self.values if indices is None else self.values[indices]

    @property
    def per_object_transfer_bits(self) -> float:
        return 32.0

    @property
    def per_object_flops(self) -> float:
        return 1.0


def test_block_rejected_whole_by_its_first_finer_stage():
    """Every row of the second block fails the first finer stage.

    Rows are visited in index order. The first ``2k`` rows sit at
    distance 1/16, which fills the heap; the next ``4k`` rows are far
    and hold a whole block of the walk (rows 8-17 for ``k = 3``), so
    LB_FNN at full resolution (the exact distance) rejects all of it at
    block start and none of it is exact-scored.
    """
    k, dims = 3, DIMS
    q = np.zeros(dims)
    data = tie_heavy(90, dims, seed=3)
    data[: 2 * k] = 0.0
    data[: 2 * k, 0] = 0.25
    data[2 * k : 6 * k] = 1.0
    data[6 * k :: 5] = 0.0  # later exact matches still enter the heap
    order = TableBound(np.arange(90) * 1e-6)

    def build():
        return FilteredKNN([order, FNNBound(dims)]).fit(data)

    fast, slow = build(), build()
    scored = []
    exact_scores = fast.exact_scores
    fast.exact_scores = lambda q, idx: scored.extend(idx.tolist()) or (
        exact_scores(q, idx)
    )
    assert_same_walk(fast, slow, q, k, "table")
    assert scored and not set(scored) & set(range(2 * k, 6 * k))
    assert fast.query(q, k).scores.max() == 0.0


# ----------------------------------------------------------------------
# k-means: the per-point assign steps
# ----------------------------------------------------------------------
def loop_scan(algo, i, centers, ids, threshold=None):
    """Point ``i``'s row of the nearest-center scan, walked on its own.

    Every bound is read and charged once; an entry is computed exactly
    iff its bound is ``<=`` the threshold. With no threshold the row is
    seeded by the exact distance to its smallest-bound center, which
    stays in the row as an exact entry.
    """
    if algo.pim is None:
        values = algo._exact_distances(i, centers, ids)
        return values, np.ones(len(ids), dtype=bool)
    lbs = algo.pim.lower_bounds(i, ids)
    algo.pim.charge(algo._counters, len(ids))
    values, exact = lbs.copy(), np.zeros(len(ids), dtype=bool)
    if threshold is None:
        seed = int(np.argmin(lbs))
        threshold = float(algo._exact_distances(i, centers, ids[[seed]])[0])
        values[seed], exact[seed] = threshold, True
    refine = ~exact & (lbs <= threshold)
    if refine.any():
        values[refine] = algo._exact_distances(i, centers, ids[refine])
        exact |= refine
    return values, exact


def loop_nearest(values, exact):
    """The lowest-index minimum among the exact entries."""
    exact_ids = np.nonzero(exact)[0]
    return int(exact_ids[np.argmin(values[exact_ids])])


class LoopLloydKMeans(LloydKMeans):
    def _assign_pim(self, centers):
        ids = np.arange(centers.shape[0])
        return np.array(
            [
                loop_nearest(*loop_scan(self, i, centers, ids))
                for i in range(self.data.shape[0])
            ],
            dtype=np.int64,
        )


class LoopElkanKMeans(ElkanKMeans):
    """Elkan with a per-point first pass and per-point candidate scan."""

    def _distances_with_pim(self, i, centers, center_ids, ub):
        return loop_scan(self, i, centers, center_ids, ub)

    def _assign(self, centers):
        if not self._first:
            return super()._assign(centers)
        self._first = False
        ids = np.arange(self.n_clusters)
        for i in range(self.data.shape[0]):
            values, exact = loop_scan(self, i, centers, ids)
            self._lb[i] = values
            self._a[i] = loop_nearest(values, exact)
            self._ub[i] = values[self._a[i]]
        return self._a.copy()


class LoopDrakeKMeans(DrakeKMeans):
    def _rebuild_point(self, i, values, exact):
        b = self.n_tracked
        winner = loop_nearest(values, exact)
        self._a[i] = winner
        self._ub[i] = float(values[winner])
        others = np.argsort(values)
        others = others[others != winner]
        if others.size == 0:
            self._tracked[i] = winner
            self._tracked_lb[i] = np.inf
            self._rest_lb[i] = np.inf
            return
        self._tracked[i] = others[:b]
        self._tracked_lb[i] = values[self._tracked[i]]
        self._rest_lb[i] = (
            float(values[others[b]]) if others.size > b else np.inf
        )

    def _assign(self, centers):
        n = self.data.shape[0]
        ids = np.arange(self.n_clusters)
        if self._first:
            self._first = False
            for i in range(n):
                self._rebuild_point(i, *loop_scan(self, i, centers, ids))
            return self._a.copy()
        for i in range(n):
            guard = min(
                float(self._tracked_lb[i].min(initial=np.inf)),
                float(self._rest_lb[i]),
            )
            if self._ub[i] <= guard:
                self._counters.record(OTHER, branches=1.0)
                continue
            a = int(self._a[i])
            d_a = float(self._exact_distances(i, centers, np.array([a]))[0])
            self._ub[i] = d_a
            if d_a <= guard:
                continue
            if self._rest_lb[i] < d_a:
                values, exact = loop_scan(self, i, centers, ids, d_a)
                values[a] = d_a
                exact[a] = True
                self._rebuild_point(i, values, exact)
                continue
            mask = self._tracked_lb[i] < d_a
            cand = self._tracked[i][mask]
            if cand.size == 0:
                continue
            values, exact = loop_scan(self, i, centers, cand, d_a)
            self._tracked_lb[i][mask] = values
            j = int(np.argmin(values))
            if exact[j] and values[j] < self._ub[i]:
                old_a, old_d = a, d_a
                self._a[i] = int(cand[j])
                self._ub[i] = float(values[j])
                pos = int(np.nonzero(self._tracked[i] == cand[j])[0][0])
                self._tracked[i, pos] = old_a
                self._tracked_lb[i, pos] = old_d
        return self._a.copy()


def _assist():
    return PIMAssist(PIMController())


KMEANS_CASES = [
    # (algorithm, k, n_tracked): k == 1, Drake's b above k - 1 (a
    # broadcast), b == k - 1, and the default b
    ("Standard", 1, None),
    ("Standard", 9, None),
    ("Standard", 16, None),
    ("Drake", 1, None),
    ("Drake", 2, 3),
    ("Drake", 4, 3),
    ("Drake", 9, None),
    ("Drake", 16, None),
    ("Elkan", 1, None),
    ("Elkan", 9, None),
    ("Elkan", 16, None),
]


LOOP_PAIRS = {
    "Standard": (LloydKMeans, LoopLloydKMeans),
    "Drake": (DrakeKMeans, LoopDrakeKMeans),
    "Elkan": (ElkanKMeans, LoopElkanKMeans),
}


@pytest.mark.parametrize("pim", [False, True], ids=["cpu", "pim"])
@pytest.mark.parametrize("algorithm,k,n_tracked", KMEANS_CASES)
def test_kmeans_assign_matches_per_point_loop(algorithm, k, n_tracked, pim):
    data = tie_heavy(120, 12, seed=k)
    centers = initial_centers(data, k, seed=3)

    def build(cls):
        kwargs = {"pim_assist": _assist() if pim else None}
        if algorithm == "Drake":
            kwargs["n_tracked"] = n_tracked
        return cls(k, max_iters=8, **kwargs)

    fast, slow = (build(cls) for cls in LOOP_PAIRS[algorithm])
    got = fast.fit(data, centers=centers.copy())
    want = slow.fit(data, centers=centers.copy())
    assert np.array_equal(got.assignments, want.assignments)
    assert np.array_equal(got.centers, want.centers)
    assert got.inertia == want.inertia
    assert got.n_iterations == want.n_iterations
    assert got.iteration_exact_distances == want.iteration_exact_distances
    assert [buckets(c) for c in got.iteration_counters] == [
        buckets(c) for c in want.iteration_counters
    ]
    assert buckets(got.counters) == buckets(want.counters)


def test_drake_tracks_more_centers_than_exist():
    """``n_tracked`` above ``k - 1`` pads the list and stays exact."""
    data = tie_heavy(120, 12, seed=5)
    centers = initial_centers(data, 3, seed=1)
    lloyd = LloydKMeans(3, max_iters=8).fit(data, centers=centers.copy())
    drake = DrakeKMeans(3, max_iters=8, n_tracked=5).fit(
        data, centers=centers.copy()
    )
    assert np.array_equal(drake.assignments, lloyd.assignments)


# ----------------------------------------------------------------------
# verification: a PIM variant and its baseline agree on ties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("baseline", ["Standard", "OST", "SM", "FNN"])
def test_accelerate_knn_verifies_on_tie_heavy_data(baseline):
    """Scores tie all over, so answers match only if both sides keep
    the lowest tied indices in the same order. The queries are dataset
    rows (every 50th), so some rows sit at distance 0."""
    from repro.core.framework import PIMAccelerator

    accelerator = PIMAccelerator()
    for seed in range(6):
        data = tie_heavy(300, DIMS, seed)
        for k in (1, 5, 10):
            report = accelerator.accelerate_knn(
                baseline, data, data[::50], k
            )
            assert report.results_match, (baseline, seed, k)


@pytest.mark.parametrize("baseline", ["Standard", "Elkan", "Drake", "Yinyang"])
def test_accelerate_kmeans_verifies_on_tie_heavy_data(baseline):
    """Points sit at equal distances from several centers, so the fits
    match only if both sides pick the same nearest center on every
    tie; the verify step compares assignments, centers and inertia
    bit for bit."""
    from repro.core.framework import PIMAccelerator

    accelerator = PIMAccelerator()
    for seed in range(6):
        data = tie_heavy(300, 24, seed)
        for k in (2, 8, 16):
            report = accelerator.accelerate_kmeans(
                baseline, data, k, max_iters=10, seed=seed
            )
            assert report.results_match, (baseline, seed, k)

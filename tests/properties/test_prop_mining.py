"""Property-based tests: mining results are exact under randomness.

The paper's headline guarantee — PIM optimization never changes results
— must hold for arbitrary datasets, ks and measures.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import exact_sq_distances
from repro.mining.kmeans import (
    LloydKMeans,
    PIMAssist,
    initial_centers,
    make_kmeans,
)
from repro.mining.kmeans.base import nearest
from repro.mining.knn import (
    FNNKNN,
    HammingKNN,
    PIMHammingKNN,
    StandardKNN,
    StandardPIMKNN,
)


@st.composite
def knn_case(draw):
    n = draw(st.integers(min_value=5, max_value=80))
    dims = draw(st.sampled_from([8, 16, 24]))
    k = draw(st.integers(min_value=1, max_value=min(n, 10)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    # mixture data so the test also exercises the pruning path
    centers = rng.random((4, dims))
    data = np.clip(
        centers[rng.integers(0, 4, n)]
        + 0.1 * rng.standard_normal((n, dims)),
        0,
        1,
    )
    query = rng.random(dims)
    return data, query, k


class TestKNNExactness:
    @given(knn_case())
    @settings(max_examples=25, deadline=None)
    def test_standard_pim_equals_standard(self, case):
        data, query, k = case
        ref = StandardKNN().fit(data).query(query, k)
        res = StandardPIMKNN().fit(data).query(query, k)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))

    @given(knn_case())
    @settings(max_examples=25, deadline=None)
    def test_fnn_equals_standard(self, case):
        data, query, k = case
        ref = StandardKNN().fit(data).query(query, k)
        res = FNNKNN(dims=data.shape[1]).fit(data).query(query, k)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))

    @given(knn_case(), st.sampled_from(["cosine", "pearson"]))
    @settings(max_examples=20, deadline=None)
    def test_similarity_measures_exact(self, case, measure):
        data, query, k = case
        ref = StandardKNN(measure=measure).fit(data).query(query, k)
        res = StandardPIMKNN(measure=measure).fit(data).query(query, k)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))


class TestHammingExactness:
    @given(
        st.integers(min_value=5, max_value=60),
        st.sampled_from([32, 64]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_pim_equals_cpu(self, n, bits, k, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2, size=(n, bits))
        q = rng.integers(0, 2, size=bits)
        ref = HammingKNN().fit(codes).query(q, k)
        res = PIMHammingKNN().fit(codes).query(q, k)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))


@st.composite
def kmeans_case(draw):
    n = draw(st.integers(min_value=20, max_value=100))
    dims = draw(st.sampled_from([4, 8, 16]))
    k = draw(st.integers(min_value=2, max_value=min(8, n // 3)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    centers = rng.random((k, dims))
    data = np.clip(
        centers[rng.integers(0, k, n)]
        + 0.08 * rng.standard_normal((n, dims)),
        0,
        1,
    )
    return data, k, seed


class TestKMeansEquivalence:
    @given(
        kmeans_case(),
        st.sampled_from(
            ["Elkan", "Drake", "Yinyang", "Standard-PIM", "Elkan-PIM"]
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_variant_matches_lloyd(self, case, name):
        data, k, seed = case
        init = initial_centers(data, k, seed=seed % 1000)
        ref = LloydKMeans(k, max_iters=6).fit(data, init.copy())
        res = make_kmeans(name, k, max_iters=6).fit(data, init.copy())
        assert res.inertia <= ref.inertia * (1 + 1e-9) + 1e-12
        assert res.n_iterations == ref.n_iterations
        assert np.array_equal(res.assignments, ref.assignments)


@st.composite
def tie_kmeans_case(draw):
    """Grid data: a five-value alphabet with a quarter of rows repeated,
    so points tie between centers and initial centers may coincide."""
    n = draw(st.integers(min_value=12, max_value=120))
    dims = draw(st.sampled_from([2, 3, 8, 24]))
    k = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 5, (n, dims)) / 4.0
    dup = rng.choice(n, n // 4, replace=False)
    data[dup] = data[rng.integers(0, n, dup.size)]
    return data, k, seed


class TightAssist(PIMAssist):
    """An assist whose "bound" is the exact distance itself.

    That is the tightest valid lower bound: every bound that meets a
    threshold ties it. LB_PIM-ED's ``2d / alpha^2`` slack keeps it
    strictly below the distance except where it clamps to 0, so only a
    tight bound shows that the scan stays exact on bound ties.
    """

    def prepare(self, data):
        super().prepare(data)
        self._data = data

    def begin_iteration(self, centers):
        super().begin_iteration(centers)
        self._lb = np.sqrt(
            np.stack([exact_sq_distances(self._data, c) for c in centers], 1)
        )


class TestPIMVariantsBitExact:
    """Every ``-PIM`` variant returns its baseline's fit bit for bit."""

    @given(
        tie_kmeans_case(),
        st.sampled_from(["Standard", "Elkan", "Drake", "Yinyang"]),
        st.sampled_from([PIMAssist, TightAssist]),
    )
    @settings(max_examples=60, deadline=None)
    def test_pim_variant_equals_baseline(self, case, name, assist):
        data, k, seed = case
        init = initial_centers(data, k, seed=seed % 1000)
        ref = make_kmeans(name, k, max_iters=8).fit(data, init.copy())
        res = make_kmeans(
            name + "-PIM", k, max_iters=8, pim_assist=assist()
        ).fit(data, init.copy())
        assert np.array_equal(res.assignments, ref.assignments)
        assert res.centers.tobytes() == ref.centers.tobytes()
        assert res.inertia == ref.inertia
        assert res.n_iterations == ref.n_iterations

    @given(tie_kmeans_case(), st.sampled_from([PIMAssist, TightAssist]))
    @settings(max_examples=40, deadline=None)
    def test_scan_at_the_nearest_distance_finds_lowest_index(
        self, case, assist
    ):
        """Each row's threshold is its nearest distance, so only the
        ``<=`` rule refines a center whose bound ties it; the winner
        must be the lowest-index nearest center on every row."""
        data, k, seed = case
        init = initial_centers(data, k, seed=seed % 1000)
        alg = LloydKMeans(k, max_iters=1, pim_assist=assist())
        alg.fit(data, init.copy())  # leaves the first center wave loaded
        true = np.sqrt(
            np.stack([exact_sq_distances(data, c) for c in init], 1)
        )
        rows = np.arange(data.shape[0])
        values, exact = alg._masked_values(
            init, rows, threshold=true.min(axis=1)
        )
        assert np.array_equal(nearest(values, exact), np.argmin(true, 1))
        assert values[exact].tobytes() == true[exact].tobytes()


@st.composite
def pair_case(draw):
    """A fitted Lloyd run plus a pair list over its points and centers.

    Pairs draw their centers from a random subset, so some centers go
    unreferenced; rows and centers repeat, and the list may be empty.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    dims = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    # mixed magnitudes so differences round differently per pair
    scale = 10.0 ** rng.integers(-3, 4, size=(1, dims))
    data = rng.standard_normal((n, dims)) * scale
    centers = rng.standard_normal((k, dims)) * scale
    used = draw(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)
    )
    size = draw(st.integers(min_value=0, max_value=60))
    rows = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
        dtype=np.int64,
    )
    cols = np.array(
        draw(st.lists(st.sampled_from(used), min_size=size, max_size=size)),
        dtype=np.int64,
    )
    return data, centers, rows, cols


def _digest(*arrays):
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


_EMPTY = np.array([], dtype=np.int64)


class TestPairDistances:
    @given(pair_case())
    # an empty pair list
    @example((np.eye(3), np.eye(3)[[2, 0, 1]], _EMPTY, _EMPTY))
    # a single center
    @example(
        (np.arange(12.0).reshape(4, 3), np.full((1, 3), 0.1),
         np.array([3, 0, 3, 1]), np.zeros(4, dtype=np.int64))
    )
    # unsorted cols, centers 0 and 2 unreferenced
    @example(
        (np.arange(15.0).reshape(5, 3) / 7, np.eye(4, 3) * 3,
         np.array([4, 4, 0, 2, 0]), np.array([3, 1, 3, 1, 1]))
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_pairs_equal_per_pair_loop(self, case):
        data, centers, rows, cols = case
        alg = LloydKMeans(centers.shape[0], max_iters=1)
        alg.fit(data, centers)
        assert alg.data is data
        before = _digest(data, centers)
        got = alg._pair_distances(rows, cols, centers)
        want = np.array(
            [
                alg._exact_distances(int(r), centers, np.array([c]))[0]
                for r, c in zip(rows, cols)
            ],
            dtype=np.float64,
        )
        assert got.shape == rows.shape
        assert got.tobytes() == want.tobytes()
        # the kernel subtracts in place, but only on its fresh gather
        assert _digest(data, centers) == before

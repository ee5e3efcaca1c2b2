"""Unit tests for the k-means family: every variant must match Lloyd."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError, OperandError
from repro.mining.kmeans import (
    DrakeKMeans,
    ElkanKMeans,
    LloydKMeans,
    PIMAssist,
    YinyangKMeans,
    initial_centers,
    make_kmeans,
)


@pytest.fixture
def data(rng):
    centers = rng.random((10, 24))
    labels = rng.integers(0, 10, size=600)
    return np.clip(
        centers[labels] + 0.05 * rng.standard_normal((600, 24)), 0, 1
    )


@pytest.fixture
def init(data):
    return initial_centers(data, 12, seed=5)


@pytest.fixture
def reference(data, init):
    return LloydKMeans(12, max_iters=10).fit(data, init.copy())


ALL_NAMES = [
    "Elkan",
    "Drake",
    "Yinyang",
    "Standard-PIM",
    "Elkan-PIM",
    "Drake-PIM",
    "Yinyang-PIM",
]


class TestInitialCenters:
    def test_deterministic(self, data):
        a = initial_centers(data, 5, seed=1)
        b = initial_centers(data, 5, seed=1)
        assert np.array_equal(a, b)

    def test_plusplus_deterministic_and_valid(self, data):
        from repro.mining.kmeans import initial_centers_plusplus

        a = initial_centers_plusplus(data, 6, seed=2)
        b = initial_centers_plusplus(data, 6, seed=2)
        assert np.array_equal(a, b)
        assert a.shape == (6, data.shape[1])
        for c in a:
            assert np.any(np.all(np.isclose(data, c), axis=1))

    def test_plusplus_spreads_better_than_uniform(self, data):
        from repro.mining.kmeans import initial_centers_plusplus

        def min_pairwise(centers):
            d2 = (
                np.einsum("ij,ij->i", centers, centers)[:, None]
                + np.einsum("ij,ij->i", centers, centers)[None, :]
                - 2 * centers @ centers.T
            )
            np.fill_diagonal(d2, np.inf)
            return d2.min()

        uniform = np.mean(
            [min_pairwise(initial_centers(data, 8, s)) for s in range(5)]
        )
        plusplus = np.mean(
            [
                min_pairwise(initial_centers_plusplus(data, 8, s))
                for s in range(5)
            ]
        )
        assert plusplus > uniform

    def test_plusplus_handles_duplicate_points(self):
        from repro.mining.kmeans import initial_centers_plusplus

        data = np.tile(np.array([[0.5, 0.5]]), (10, 1))
        centers = initial_centers_plusplus(data, 3, seed=0)
        assert centers.shape == (3, 2)

    def test_plusplus_rejects_bad_k(self, data):
        from repro.mining.kmeans import initial_centers_plusplus
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            initial_centers_plusplus(data, 0)

    def test_centers_are_data_points(self, data):
        centers = initial_centers(data, 5, seed=2)
        for c in centers:
            assert np.any(np.all(np.isclose(data, c), axis=1))

    def test_rejects_k_above_n(self, data):
        with pytest.raises(ConfigurationError):
            initial_centers(data, data.shape[0] + 1)


class TestLloyd:
    def test_converges_on_clustered_data(self, reference):
        assert reference.converged
        assert reference.n_iterations <= 10

    def test_assignment_is_nearest_center(self, data, reference):
        diff = data[:, None, :] - reference.centers[None, :, :]
        d2 = np.einsum("nkj,nkj->nk", diff, diff)
        best = d2[np.arange(len(data)), reference.assignments]
        assert np.all(best <= d2.min(axis=1) + 1e-9)

    def test_inertia_matches_assignments(self, data, reference):
        diff = data - reference.centers[reference.assignments]
        assert reference.inertia == pytest.approx(
            float(np.einsum("ij,ij->", diff, diff))
        )

    def test_counts_all_distances(self, data, init):
        result = LloydKMeans(12, max_iters=3).fit(data, init.copy())
        expected = data.shape[0] * 12 * result.n_iterations
        assert result.exact_distances == expected

    def test_rejects_wrong_center_shape(self, data):
        with pytest.raises(OperandError):
            LloydKMeans(4).fit(data, np.zeros((3, 3)))

    def test_rejects_unfit_usage(self):
        with pytest.raises(ConfigurationError):
            LloydKMeans(0)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestVariantEquivalence:
    def test_same_clustering_as_lloyd(self, name, data, init, reference):
        result = make_kmeans(name, 12, max_iters=10).fit(data, init.copy())
        assert result.inertia == pytest.approx(reference.inertia, rel=1e-9)
        assert result.n_iterations == reference.n_iterations
        assert np.array_equal(result.assignments, reference.assignments)

    def test_fewer_exact_distances_than_lloyd(
        self, name, data, init, reference
    ):
        if name == "Elkan":
            pytest.skip("Elkan trades point distances for center distances")
        result = make_kmeans(name, 12, max_iters=10).fit(data, init.copy())
        assert result.exact_distances < reference.exact_distances


class TestPIMVariants:
    def test_pim_time_positive(self, data, init):
        result = make_kmeans("Standard-PIM", 12, max_iters=5).fit(
            data, init.copy()
        )
        assert result.pim_time_ns > 0

    def test_lb_bucket_charged(self, data, init):
        result = make_kmeans("Standard-PIM", 12, max_iters=5).fit(
            data, init.copy()
        )
        assert result.counters.events("LB_PIM-ED").calls > 0

    def test_shared_assist_reuses_programming(self, data, init):
        assist = PIMAssist()
        algo = make_kmeans("Standard-PIM", 12, max_iters=3, pim_assist=assist)
        algo.fit(data, init.copy())
        crossbars = assist.controller.pim.stats.crossbars_used
        algo2 = make_kmeans(
            "Elkan-PIM", 12, max_iters=3, pim_assist=assist
        )
        algo2.fit(data, init.copy())
        assert assist.controller.pim.stats.crossbars_used == crossbars

    def test_assist_requires_preparation(self, data):
        assist = PIMAssist()
        with pytest.raises(OperandError):
            assist.begin_iteration(np.zeros((2, data.shape[1])))


class TestBoundMaintenanceCosts:
    def test_elkan_charges_bound_update(self, data, init):
        result = ElkanKMeans(12, max_iters=5).fit(data, init.copy())
        assert result.counters.events("bound_update").flops > 0

    def test_elkan_computes_center_separations(self, data, init):
        lloyd = LloydKMeans(12, max_iters=5).fit(data, init.copy())
        elkan = ElkanKMeans(12, max_iters=5).fit(data, init.copy())
        # Elkan's ED bucket includes k*(k-1)/2 center distances/iteration
        assert elkan.counters.events("ED").calls < lloyd.counters.events(
            "ED"
        ).calls

    def test_drake_tracks_fewer_bounds_than_elkan(self):
        assert DrakeKMeans(64).n_tracked < 64

    def test_yinyang_group_count(self):
        assert YinyangKMeans(64).n_groups == 6
        assert YinyangKMeans(5).n_groups == 1


class TestFactory:
    def test_base_names(self):
        assert make_kmeans("Standard", 4).name == "Standard"
        assert make_kmeans("Standard-PIM", 4).name == "Standard-PIM"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_kmeans("MiniBatch", 4)

    def test_iteration_exact_distance_trace(self, data, init):
        result = make_kmeans("Standard", 12, max_iters=4).fit(
            data, init.copy()
        )
        assert len(result.iteration_exact_distances) == result.n_iterations
        assert sum(result.iteration_exact_distances) == result.exact_distances


class TestIterationDynamics:
    def test_per_iteration_counters_sum_to_total(self, data, init):
        result = make_kmeans("Elkan", 12, max_iters=6).fit(
            data, init.copy()
        )
        assert len(result.iteration_counters) == result.n_iterations
        per_iter_calls = sum(
            c.events("ED").calls for c in result.iteration_counters
        )
        assert per_iter_calls == result.counters.events("ED").calls

    def test_bound_algorithms_get_cheaper_as_they_converge(self, data, init):
        # the whole point of Elkan: later iterations skip most distances
        result = make_kmeans("Elkan", 12, max_iters=8).fit(
            data, init.copy()
        )
        trace = result.iteration_exact_distances
        assert len(trace) >= 3
        assert trace[-1] < trace[0]

    @pytest.mark.parametrize(
        "name", ["Standard", "Elkan", "Drake", "Yinyang", "Drake-PIM"]
    )
    def test_k_equals_one(self, name, data):
        # degenerate but legal: a single cluster; every variant must
        # agree with the trivial answer (all points, center = mean)
        result = make_kmeans(name, 1, max_iters=3).fit(data, seed=1)
        assert np.all(result.assignments == 0)
        diff = data - data.mean(axis=0)
        assert result.inertia == pytest.approx(
            float(np.einsum("ij,ij->", diff, diff)), rel=1e-9
        )

    def test_lloyd_cost_is_flat(self, data, init):
        result = make_kmeans("Standard", 12, max_iters=6).fit(
            data, init.copy()
        )
        trace = result.iteration_exact_distances
        assert len(set(trace)) == 1  # N*k every iteration


class TestPairDistances:
    def test_grid_holds_one_center_gather(self):
        # Drake's all-center rescan scores every (point, center) pair:
        # grouped by center, the call holds one center's gather plus a
        # few pair-length arrays, never a (pairs x dims) buffer
        n, k, dims = 3000, 16, 90
        rng = np.random.default_rng(0)
        data, centers = rng.random((n, dims)), rng.random((k, dims))
        alg = LloydKMeans(k, max_iters=1)
        alg.fit(data, centers)
        rows = np.repeat(np.arange(n), k)
        cols = np.tile(np.arange(k), n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = alg._pair_distances(rows, cols, centers)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (n * k,)
        gather_bytes, pair_bytes = n * dims * 8, n * k * 8
        assert peak <= gather_bytes + 6 * pair_bytes + (64 << 10), peak

"""Unit tests for kNN internals: canonical ties and the sorted refine."""

import numpy as np
import pytest

from repro.bounds.ed import FNNBound, PartitionUpperBound, SMBound
from repro.mining.knn.filtered import FilteredKNN
from repro.mining.knn.standard import StandardKNN


class TestCanonicalTies:
    """Equal scores resolve to the lowest index, best first."""

    @pytest.fixture
    def data(self):
        # rows 1, 3 and 4 tie at distance 1 from the origin, rows 0 and
        # 2 at distance 2; rows 5 and 6 are far
        return np.array(
            [[2.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [0.0, 1.0],
             [5.0, 5.0], [6.0, 6.0]]
        )

    def test_standard_keeps_lowest_tied_indices(self, data):
        result = StandardKNN().fit(data).query(np.zeros(2), 4)
        assert result.indices.tolist() == [1, 3, 4, 0]
        assert result.scores.tolist() == [1.0, 1.0, 1.0, 4.0]  # squared

    def test_filtered_keeps_lowest_tied_indices(self, data):
        result = FilteredKNN([FNNBound(1)]).fit(data).query(np.zeros(2), 2)
        assert result.indices.tolist() == [1, 3]
        assert result.scores.tolist() == [1.0, 1.0]

    def test_similarity_ties_resolve_the_same_way(self, data):
        # rows 1, 2 and 4 all have cosine similarity 1 to the query
        q = np.array([0.0, 1.0])
        want = StandardKNN("cosine").fit(data).query(q, 2)
        got = FilteredKNN(
            [PartitionUpperBound(1)], measure="cosine"
        ).fit(data).query(q, 2)
        assert want.indices.tolist() == [1, 2]
        assert want.scores.tolist() == [1.0, 1.0]
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.scores, want.scores)


class TestSortedRefineLoop:
    @pytest.fixture
    def algo(self, clustered_data):
        return FilteredKNN(
            bounds=[FNNBound(4)], measure="euclidean", name="test"
        ).fit(clustered_data)

    def test_first_bound_evaluated_on_all(self, algo, query_vector):
        result = algo.query(query_vector, 5)
        assert result.stage_evaluations["LB_FNN_4"] == algo.n_objects

    def test_early_stop_limits_refinements(self, algo, query_vector):
        result = algo.query(query_vector, 5)
        # on clustered data the walk terminates long before N
        assert result.exact_computations < algo.n_objects

    def test_finer_bounds_see_fewer_candidates(
        self, clustered_data, query_vector
    ):
        algo = FilteredKNN(
            bounds=[SMBound(4), FNNBound(8)],
            measure="euclidean",
            name="two-stage",
        ).fit(clustered_data)
        result = algo.query(query_vector, 5)
        assert (
            result.stage_evaluations["LB_FNN_8"]
            <= result.stage_evaluations["LB_SM_4"]
        )
        # and exactness still holds
        ref = StandardKNN().fit(clustered_data).query(query_vector, 5)
        assert np.allclose(np.sort(result.scores), np.sort(ref.scores))

    def test_k_equals_n(self, clustered_data, query_vector):
        n = clustered_data.shape[0]
        result = FilteredKNN(
            bounds=[FNNBound(4)], measure="euclidean", name="all"
        ).fit(clustered_data).query(query_vector, n)
        assert len(result.indices) == n

    def test_k_one(self, algo, query_vector, clustered_data):
        result = algo.query(query_vector, 1)
        ref = StandardKNN().fit(clustered_data).query(query_vector, 1)
        assert result.scores[0] == pytest.approx(ref.scores[0])

    def test_exact_measure_scores_only_rows_that_can_win(self, monkeypatch):
        """The lazy cascade exact-scores little beyond what it keeps.

        Baseline FNN on MSD 3000x420 with eight perturbed queries: the
        rows handed to the exact measure stay within twice the exact
        computations the walk counts (a block-wide refine scores about
        38 times as many).
        """
        from repro.data.catalog import make_dataset
        from repro.mining.knn import FNNKNN

        data = make_dataset("MSD", n=3000, seed=0)
        rng = np.random.default_rng(0)
        picks = rng.choice(len(data), 8, replace=False)
        queries = np.clip(
            data[picks] + 0.02 * rng.standard_normal((8, data.shape[1])),
            0.0,
            1.0,
        )
        scored = []
        exact_scores = FNNKNN.exact_scores
        monkeypatch.setattr(
            FNNKNN,
            "exact_scores",
            lambda self, q, idx: scored.append(len(idx))
            or exact_scores(self, q, idx),
        )
        algo = FNNKNN(data.shape[1]).fit(data)
        counted = sum(algo.query(q, 10).exact_computations for q in queries)
        assert counted > 0
        assert sum(scored) <= 2 * counted

"""Unit tests for kNN internals: the heap and the sorted refine loop."""

import numpy as np
import pytest

from repro.bounds.ed import FNNBound, SMBound
from repro.mining.knn.base import _Heap
from repro.mining.knn.filtered import FilteredKNN
from repro.mining.knn.standard import StandardKNN


class TestHeap:
    def test_minimizing_keeps_smallest(self):
        heap = _Heap(3, minimize=True)
        for score, idx in [(5.0, 0), (1.0, 1), (3.0, 2), (2.0, 3), (9.0, 4)]:
            heap.push(score, idx)
        items = heap.sorted_items()
        assert [i for i, _ in items] == [1, 3, 2]
        assert [s for _, s in items] == [1.0, 2.0, 3.0]

    def test_maximizing_keeps_largest(self):
        heap = _Heap(2, minimize=False)
        for score, idx in [(0.1, 0), (0.9, 1), (0.5, 2)]:
            heap.push(score, idx)
        items = heap.sorted_items()
        assert [i for i, _ in items] == [1, 2]

    def test_threshold_before_full(self):
        heap = _Heap(3, minimize=True)
        assert heap.threshold == float("inf")
        heap.push(1.0, 0)
        assert not heap.full
        assert heap.threshold == float("inf")

    def test_threshold_after_full(self):
        heap = _Heap(2, minimize=True)
        heap.push(1.0, 0)
        heap.push(5.0, 1)
        assert heap.full
        assert heap.threshold == 5.0
        heap.push(2.0, 2)
        assert heap.threshold == 2.0

    def test_maximizing_threshold(self):
        heap = _Heap(2, minimize=False)
        heap.push(0.2, 0)
        heap.push(0.8, 1)
        assert heap.threshold == 0.2


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

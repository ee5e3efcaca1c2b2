"""Unit tests for the kNN baselines and their exactness contracts."""

import numpy as np
import pytest

from repro.cost.counters import OTHER
from repro.errors import ConfigurationError, OperandError, PlanError
from repro.mining.knn import (
    FNNKNN,
    FilteredKNN,
    OSTKNN,
    SMKNN,
    StandardKNN,
    make_baseline,
)
from repro.bounds.ed import FNNBound, PartitionUpperBound
from repro.similarity.measures import euclidean_batch


@pytest.fixture
def data(clustered_data):
    return clustered_data


@pytest.fixture
def query(query_vector):
    return query_vector


def reference_knn(data, q, k):
    """Ground truth via a plain sort."""
    ed = euclidean_batch(data, q)
    order = np.argsort(ed, kind="stable")[:k]
    return order, ed[order]


class TestStandardKNN:
    def test_matches_reference(self, data, query):
        result = StandardKNN().fit(data).query(query, 10)
        _, ref_scores = reference_knn(data, query, 10)
        assert np.allclose(np.sort(result.scores), np.sort(ref_scores))

    def test_scores_sorted_best_first(self, data, query):
        result = StandardKNN().fit(data).query(query, 10)
        assert np.all(np.diff(result.scores) >= -1e-12)

    def test_counts_every_exact_computation(self, data, query):
        result = StandardKNN().fit(data).query(query, 5)
        assert result.exact_computations == data.shape[0]
        assert result.counters.events("euclidean").calls == data.shape[0]

    def test_k_larger_than_dataset(self, rng):
        data = rng.random((5, 4))
        result = StandardKNN().fit(data).query(rng.random(4), 10)
        assert len(result.indices) == 5

    def test_cosine_direction(self, data, query):
        result = StandardKNN(measure="cosine").fit(data).query(query, 5)
        # similarities: best first means descending
        assert np.all(np.diff(result.scores) <= 1e-12)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigurationError):
            StandardKNN(measure="manhattan")

    def test_rejects_unfitted_query(self, query):
        with pytest.raises(OperandError):
            StandardKNN().query(query, 3)

    def test_rejects_wrong_query_shape(self, data):
        with pytest.raises(OperandError):
            StandardKNN().fit(data).query(np.zeros(3), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, data, query, k):
        for algo in (StandardKNN(), FNNKNN(dims=data.shape[1])):
            with pytest.raises(ConfigurationError, match="k must be >= 1"):
                algo.fit(data).query(query, k)


@pytest.mark.parametrize(
    "factory",
    [
        lambda d: OSTKNN(dims=d),
        lambda d: SMKNN(dims=d),
        lambda d: FNNKNN(dims=d),
    ],
    ids=["OST", "SM", "FNN"],
)
class TestBoundedBaselinesExactness:
    def test_same_results_as_standard(self, factory, data, query):
        ref = StandardKNN().fit(data).query(query, 10)
        result = factory(data.shape[1]).fit(data).query(query, 10)
        assert np.allclose(np.sort(result.scores), np.sort(ref.scores))

    def test_multiple_queries(self, factory, data, rng):
        algo = factory(data.shape[1]).fit(data)
        standard = StandardKNN().fit(data)
        for _ in range(3):
            q = np.clip(
                data[rng.integers(0, len(data))]
                + 0.03 * rng.standard_normal(data.shape[1]),
                0,
                1,
            )
            assert np.allclose(
                np.sort(algo.query(q, 7).scores),
                np.sort(standard.query(q, 7).scores),
            )

    def test_prunes_on_clustered_data(self, factory, data, query):
        result = factory(data.shape[1]).fit(data).query(query, 10)
        assert result.exact_computations < data.shape[0]


class TestFilteredKNN:
    def test_requires_bounds(self):
        with pytest.raises(PlanError):
            FilteredKNN(bounds=[], measure="euclidean")

    def test_rejects_direction_mismatch(self):
        with pytest.raises(PlanError, match="upper"):
            FilteredKNN(
                bounds=[FNNBound(4)], measure="cosine", name="bad"
            )

    def test_stage_evaluations_reported(self, data, query):
        algo = FNNKNN(dims=data.shape[1]).fit(data)
        result = algo.query(query, 10)
        for bound in algo.bounds:
            assert bound.name in result.stage_evaluations
        assert result.stage_evaluations["euclidean"] == (
            result.exact_computations
        )

    def test_other_bucket_charged(self, data, query):
        result = FNNKNN(dims=data.shape[1]).fit(data).query(query, 10)
        assert result.counters.events(OTHER).branches > 0


class TestUpperBoundFiltering:
    def test_cosine_with_ub_part(self, data, query):
        algo = FilteredKNN(
            bounds=[PartitionUpperBound(head_dims=16)],
            measure="cosine",
            name="LEMP",
        ).fit(data)
        ref = StandardKNN(measure="cosine").fit(data).query(query, 8)
        result = algo.query(query, 8)
        assert np.allclose(np.sort(result.scores), np.sort(ref.scores))


class TestFactory:
    @pytest.mark.parametrize("name", ["Standard", "OST", "SM", "FNN"])
    def test_known_baselines(self, name, data):
        algo = make_baseline(name, data.shape[1])
        assert algo.name == name

    def test_unknown_baseline(self):
        with pytest.raises(ConfigurationError):
            make_baseline("Annoy", 10)

"""Unit tests for the workload generators."""

import numpy as np
import pytest

from repro.data.workloads import KINDS, make_workload, workload_suite
from repro.errors import DatasetError


class TestWorkloads:
    @pytest.fixture
    def data(self, rng):
        return rng.random((100, 12))

    def test_all_kinds_generate(self, data):
        suite = workload_suite(data, n_queries=4)
        assert set(suite) == set(KINDS)
        for queries in suite.values():
            assert queries.shape == (4, 12)
            assert queries.min() >= 0.0 and queries.max() <= 1.0

    def test_member_queries_are_dataset_rows(self, data):
        queries = make_workload(data, "member", n_queries=3, seed=1)
        for q in queries:
            assert np.any(np.all(np.isclose(data, q), axis=1))

    def test_deterministic(self, data):
        a = make_workload(data, "near", seed=2)
        b = make_workload(data, "near", seed=2)
        assert np.array_equal(a, b)

    def test_adversarial_queries_sit_centrally(self, data):
        queries = make_workload(data, "adversarial", n_queries=3, seed=1)
        center = data.mean(axis=0)
        for q in queries:
            assert np.linalg.norm(q - center) < np.linalg.norm(
                data - center, axis=1
            ).mean()

    def test_validation(self, data):
        with pytest.raises(DatasetError):
            make_workload(data, "weird")
        with pytest.raises(DatasetError):
            make_workload(data, "near", n_queries=0)
        with pytest.raises(DatasetError):
            make_workload(data[0], "near")

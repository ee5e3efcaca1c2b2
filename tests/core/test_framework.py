"""Unit tests for the PIMAccelerator facade."""

import numpy as np
import pytest

from repro.core.framework import PIMAccelerator
from repro.errors import ConfigurationError
from repro.hardware.config import baseline_platform
from repro.mining.knn import StandardKNN
from repro.mining.outlier import PIMOutlierDetector


@pytest.fixture
def data(clustered_data):
    return clustered_data


@pytest.fixture
def queries(data, rng):
    picks = rng.integers(0, len(data), size=2)
    return np.clip(
        data[picks] + 0.02 * rng.standard_normal((2, data.shape[1])), 0, 1
    )


class TestConstruction:
    def test_rejects_platform_without_pim(self):
        with pytest.raises(ConfigurationError):
            PIMAccelerator(hardware=baseline_platform())


class TestAccelerateKNN:
    def test_standard_speedup_and_exactness(self, data, queries):
        report = PIMAccelerator().accelerate_knn(
            "Standard", data, queries, k=5
        )
        assert report.results_match
        assert report.speedup > 1.0
        assert report.promising
        assert report.oracle_speedup >= report.speedup * 0.9

    def test_plan_recorded(self, data, queries):
        report = PIMAccelerator().accelerate_knn(
            "Standard", data, queries, k=5
        )
        assert report.plan == ("LB_PIM-ED",)

    def test_fnn_with_plan_optimization(self, data, queries):
        report = PIMAccelerator().accelerate_knn(
            "FNN", data, queries, k=5, optimize_plan=True
        )
        assert report.results_match
        assert any("plan ratios" in note for note in report.notes)

    def test_plan_optimization_only_for_fnn(self, data, queries):
        report = PIMAccelerator().accelerate_knn(
            "Standard", data, queries, k=5, optimize_plan=True
        )
        assert any("only applies to FNN" in note for note in report.notes)

    def test_cosine_measure(self, data, queries):
        report = PIMAccelerator().accelerate_knn(
            "Standard", data, queries, k=5, measure="cosine"
        )
        assert report.results_match

    def test_each_workload_runs_once(self, data, queries, monkeypatch):
        """Verify reads the profiled answers instead of re-running."""
        controllers, calls = [], []
        make, query = PIMAccelerator._controller, StandardKNN.query
        monkeypatch.setattr(
            PIMAccelerator, "_controller",
            lambda self: controllers.append(make(self)) or controllers[-1],
        )
        monkeypatch.setattr(
            StandardKNN, "query",
            lambda self, q, k: calls.append(k) or query(self, q, k),
        )
        report = PIMAccelerator().accelerate_knn(
            "Standard", data, queries, k=5
        )
        assert report.results_match
        assert len(calls) == len(queries)
        assert controllers[0].pim.stats.batches == 1
        assert len(report.optimized.results) == len(queries)

    @pytest.mark.parametrize("optimize_plan", [False, True])
    def test_fnn_summarizes_each_level_once(self, optimize_plan, monkeypatch):
        """The baseline's LB_FNN ladder is shared, not summarised again.

        MSD's 420 dims give the ladder 6, 28, 105 and FNN-PIM's 420
        segments: four full-dataset summaries, with or without the plan
        optimizer.
        """
        from repro.bounds import ed, pim
        from repro.data.catalog import make_dataset

        data = make_dataset("MSD", n=600, seed=0)
        rng = np.random.default_rng(1)
        queries = np.clip(
            data[:4] + 0.02 * rng.standard_normal((4, data.shape[1])), 0, 1
        )
        segment_counts = []
        for module in (ed, pim):
            def counting(vectors, n_segments, summarize=module.summarize):
                if np.ndim(vectors) == 2 and len(vectors) == len(data):
                    segment_counts.append(n_segments)
                return summarize(vectors, n_segments)

            monkeypatch.setattr(module, "summarize", counting)
        report = PIMAccelerator().accelerate_knn(
            "FNN", data, queries, k=5, optimize_plan=optimize_plan
        )
        assert report.results_match
        assert sorted(segment_counts) == [6, 28, 105, 420]


class TestAccelerateOutliers:
    def test_exact_and_reported(self, data):
        report = PIMAccelerator().accelerate_outliers(
            data, n_neighbors=4, n_outliers=5
        )
        assert report.results_match
        assert report.plan == ("LB_PIM-ED",)
        assert report.baseline.total_time_ns > 0
        assert report.optimized.pim_time_ns > 0

    def test_swapped_tie_is_a_mismatch(self, data, monkeypatch):
        """Equal sorted scores are not enough: the indices must match."""
        twins = np.ones((2, data.shape[1]))  # two equally far outliers
        data = np.vstack([0.5 * data, twins])
        detect = PIMOutlierDetector.detect

        def swap_tie(self):
            result = detect(self)
            assert result.scores[0] == result.scores[1]
            result.indices[[0, 1]] = result.indices[[1, 0]]
            return result

        monkeypatch.setattr(PIMOutlierDetector, "detect", swap_tie)
        report = PIMAccelerator().accelerate_outliers(
            data, n_neighbors=4, n_outliers=5
        )
        assert not report.results_match


class TestAccelerateKMeans:
    def test_standard_speedup_and_exactness(self, data):
        report = PIMAccelerator().accelerate_kmeans(
            "Standard", data, k=8, max_iters=5
        )
        assert report.results_match
        assert report.speedup > 1.0

    def test_oracle_bound_respected(self, data):
        report = PIMAccelerator().accelerate_kmeans(
            "Standard", data, k=8, max_iters=5
        )
        assert report.speedup <= report.oracle_speedup + 1e-9

    def test_plan_names_the_pim_bound(self, data):
        report = PIMAccelerator().accelerate_kmeans(
            "Drake", data, k=8, max_iters=5
        )
        assert report.plan == ("LB_PIM-ED",)

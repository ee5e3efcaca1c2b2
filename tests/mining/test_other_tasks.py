"""Unit tests for outlier detection, motif discovery and MIPS.

The contract is always the same: the PIM variant returns the baseline's
exact result while computing far fewer exact distances.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, OperandError
from repro.mining.motif import (
    PIMMotifDiscovery,
    StandardMotifDiscovery,
    sliding_windows,
)
from repro.mining.outlier import PIMOutlierDetector, StandardOutlierDetector
from repro.mining.knn.maxip import PIMMIPS, StandardMIPS


@pytest.fixture
def outlier_data(rng):
    centers = rng.random((6, 16))
    data = np.clip(
        centers[rng.integers(0, 6, 300)]
        + 0.04 * rng.standard_normal((300, 16)),
        0,
        1,
    )
    data[:5] = rng.random((5, 16))  # planted anomalies
    return data


@pytest.fixture
def series(rng):
    t = np.sin(np.linspace(0, 20 * np.pi, 500))
    t = t + 0.1 * rng.standard_normal(500)
    t[80:120] = t[380:420]  # planted motif pair
    return t


class TestOutlierDetection:
    def test_finds_planted_anomalies(self, outlier_data):
        result = (
            StandardOutlierDetector(n_neighbors=4, n_outliers=5)
            .fit(outlier_data)
            .detect()
        )
        assert set(result.indices.tolist()) == {0, 1, 2, 3, 4}

    def test_pim_matches_standard(self, outlier_data):
        std = (
            StandardOutlierDetector(n_neighbors=4, n_outliers=5)
            .fit(outlier_data)
            .detect()
        )
        pim = (
            PIMOutlierDetector(n_neighbors=4, n_outliers=5)
            .fit(outlier_data)
            .detect()
        )
        assert np.allclose(np.sort(std.scores), np.sort(pim.scores))
        assert np.array_equal(std.indices, pim.indices)

    def test_pim_computes_fewer_distances(self, outlier_data):
        std = (
            StandardOutlierDetector(n_neighbors=4, n_outliers=5)
            .fit(outlier_data)
            .detect()
        )
        pim = (
            PIMOutlierDetector(n_neighbors=4, n_outliers=5)
            .fit(outlier_data)
            .detect()
        )
        assert pim.exact_computations < std.exact_computations
        assert pim.pim_time_ns > 0

    def test_scores_sorted_descending(self, outlier_data):
        result = (
            StandardOutlierDetector(n_neighbors=4, n_outliers=5)
            .fit(outlier_data)
            .detect()
        )
        assert np.all(np.diff(result.scores) <= 1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            StandardOutlierDetector(n_neighbors=0)

    def test_rejects_tiny_dataset(self, rng):
        detector = StandardOutlierDetector(n_neighbors=10, n_outliers=2)
        with pytest.raises(OperandError):
            detector.fit(rng.random((5, 4)))


class TestMotifDiscovery:
    def test_sliding_windows_shape_and_range(self, series):
        windows = sliding_windows(series, 40)
        assert windows.shape == (len(series) - 39, 40)
        assert windows.min() >= 0.0 and windows.max() <= 1.0

    def test_sliding_windows_validation(self, series):
        with pytest.raises(ConfigurationError):
            sliding_windows(series, 1)
        with pytest.raises(OperandError):
            sliding_windows(series.reshape(50, 10), 5)

    def test_finds_planted_motif(self, series):
        result = StandardMotifDiscovery(window=40).fit(series).discover()
        i, j = result.pair
        assert abs(i - 80) <= 2 and abs(j - 380) <= 2
        assert result.distance < 0.05

    def test_pim_matches_standard(self, series):
        std = StandardMotifDiscovery(window=40).fit(series).discover()
        pim = PIMMotifDiscovery(window=40).fit(series).discover()
        assert pim.distance == pytest.approx(std.distance, abs=1e-9)
        assert pim.pair == std.pair

    def test_pim_prunes_pairs(self, series):
        std = StandardMotifDiscovery(window=40).fit(series).discover()
        pim = PIMMotifDiscovery(window=40).fit(series).discover()
        assert pim.exact_computations < 0.2 * std.exact_computations

    def test_exclusion_zone_respected(self, series):
        result = StandardMotifDiscovery(window=40).fit(series).discover()
        i, j = result.pair
        assert abs(i - j) > 20  # default exclusion w/2

    def test_short_series_rejected(self):
        with pytest.raises(ConfigurationError):
            StandardMotifDiscovery(window=40).fit(np.zeros(45))


class TestMIPS:
    @pytest.fixture
    def data(self, rng):
        return rng.random((400, 32))

    def test_standard_matches_brute_force(self, data, rng):
        q = rng.random(32)
        result = StandardMIPS(top=5).fit(data).query(q)
        brute = np.sort(data @ q)[-5:]
        assert np.allclose(np.sort(result.products), brute)

    def test_pim_matches_standard(self, data, rng):
        q = rng.random(32)
        std = StandardMIPS(top=5).fit(data).query(q)
        pim = PIMMIPS(top=5).fit(data).query(q)
        assert np.array_equal(std.indices, pim.indices)
        assert np.array_equal(std.products, pim.products)

    @pytest.mark.parametrize("seed", range(8))
    def test_pim_matches_standard_on_ties(self, seed):
        """A five-value alphabet and repeated rows: products tie all
        over, and both variants keep the lowest tied indices."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 5, (400, 32)) / 4.0
        dup = rng.choice(400, 100, replace=False)
        data[dup] = data[rng.integers(0, 400, dup.size)]
        std = StandardMIPS(top=10).fit(data)
        pim = PIMMIPS(top=10).fit(data)
        for q in data[:6]:
            a, b = std.query(q), pim.query(q)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.products, b.products)

    def test_pim_computes_fewer_dots(self, data, rng):
        q = rng.random(32)
        std = StandardMIPS(top=5).fit(data).query(q)
        pim = PIMMIPS(top=5).fit(data).query(q)
        assert pim.exact_computations <= std.exact_computations
        assert pim.exact_computations < data.shape[0]

    def test_products_sorted_best_first(self, data, rng):
        result = StandardMIPS(top=5).fit(data).query(rng.random(32))
        assert np.all(np.diff(result.products) <= 1e-12)

    def test_rejects_bad_top(self):
        with pytest.raises(ConfigurationError):
            StandardMIPS(top=0)

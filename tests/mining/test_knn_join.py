"""Unit tests for the kNN join."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, OperandError
from repro.mining.knn.join import PIMKNNJoin, StandardKNNJoin


@pytest.fixture
def s_data(rng):
    centers = rng.random((5, 16))
    return np.clip(
        centers[rng.integers(0, 5, 200)]
        + 0.05 * rng.standard_normal((200, 16)),
        0,
        1,
    )


class TestStandardKNNJoin:
    def test_self_join_excludes_self(self, s_data):
        result = StandardKNNJoin(k=3).fit(s_data).join()
        for i in range(s_data.shape[0]):
            assert i not in result.indices[i]

    def test_neighbour_lists_are_true_knn(self, s_data):
        result = StandardKNNJoin(k=3).fit(s_data).join()
        for i in [0, 17, 113]:
            diff = s_data - s_data[i]
            dists = np.sqrt(np.einsum("sj,sj->s", diff, diff))
            dists[i] = np.inf
            expected = np.sort(dists)[:3]
            assert np.allclose(result.distances[i], expected)

    def test_rs_join(self, s_data, rng):
        r = np.clip(rng.random((10, 16)), 0, 1)
        result = StandardKNNJoin(k=4).fit(s_data).join(r)
        assert result.indices.shape == (10, 4)
        for i in range(10):
            diff = s_data - r[i]
            dists = np.sqrt(np.einsum("sj,sj->s", diff, diff))
            assert np.allclose(result.distances[i], np.sort(dists)[:4])

    def test_validation(self, s_data):
        with pytest.raises(ConfigurationError):
            StandardKNNJoin(k=0)
        with pytest.raises(OperandError):
            StandardKNNJoin(k=50).fit(s_data[:10])


def assert_same_join(std, pim):
    assert np.array_equal(std.indices, pim.indices)
    assert np.array_equal(std.distances, pim.distances)


class TestPIMKNNJoin:
    def test_matches_standard_self_join(self, s_data):
        std = StandardKNNJoin(k=3).fit(s_data).join()
        pim = PIMKNNJoin(k=3).fit(s_data).join()
        assert_same_join(std, pim)

    def test_matches_standard_rs_join(self, s_data, rng):
        r = np.clip(rng.random((8, 16)), 0, 1)
        std = StandardKNNJoin(k=5).fit(s_data).join(r)
        pim = PIMKNNJoin(k=5).fit(s_data).join(r)
        assert_same_join(std, pim)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_standard_on_uniform_data(self, seed):
        s = np.random.default_rng(seed).random((200, 32))
        std = StandardKNNJoin(k=4).fit(s).join()
        pim = PIMKNNJoin(k=4).fit(s).join()
        assert_same_join(std, pim)

    def test_matches_standard_on_ties(self):
        """A five-value alphabet and repeated rows: distances tie all
        over (repeats at distance 0), and both joins keep the lowest
        tied S indices in the same order."""
        rng = np.random.default_rng(5)
        s = rng.integers(0, 5, (200, 16)) / 4.0
        dup = rng.choice(200, 50, replace=False)
        s[dup] = s[rng.integers(0, 200, dup.size)]
        for r in (None, s[::7]):
            std = StandardKNNJoin(k=5).fit(s).join(r)
            pim = PIMKNNJoin(k=5).fit(s).join(r)
            assert_same_join(std, pim)

    def test_pim_computes_far_fewer_distances(self, s_data):
        std = StandardKNNJoin(k=3).fit(s_data).join()
        pim = PIMKNNJoin(k=3).fit(s_data).join()
        assert pim.exact_computations < 0.3 * std.exact_computations
        assert pim.pim_time_ns > 0

    def test_one_wave_per_r_object(self, s_data):
        join = PIMKNNJoin(k=3).fit(s_data)
        waves_before = join.controller.pim.stats.waves
        join.join()
        waves = join.controller.pim.stats.waves - waves_before
        assert waves == s_data.shape[0]

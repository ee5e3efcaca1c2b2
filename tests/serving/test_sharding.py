"""Unit tests for dataset placement and exact scatter/gather.

The load-bearing contract: a :class:`ShardManager` answers exactly the
same kNN / k-means-assist queries as a single array — sharding changes
timing, never answers. Brute-force references below route through the
shards' own canonical kernel (:func:`exact_sq_distances` on quantizer-
normalised vectors) so equality checks are bit-exact, not approximate.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProgrammingError, ServingError
from repro.serving import (
    KNNAnswer,
    ShardManager,
    ShardPlacement,
    plan_placement,
)
from repro.kernels import exact_sq_distances
from repro.serving.sharding import GatherTiming


def brute_knn(manager: ShardManager, data, query, k):
    """Canonical (score, index) top-k with the shards' own arithmetic."""
    nd = manager.quantizer.normalize(np.asarray(data, dtype=np.float64))
    nq = manager.quantizer.normalize(np.atleast_2d(query))[0]
    scores = exact_sq_distances(nd, nq)
    order = np.lexsort((np.arange(scores.size), scores))[:k]
    return order, scores[order]


@pytest.fixture
def data(rng):
    return rng.random((60, 8))


class TestPlacement:
    def test_range_blocks_cover_all_rows(self):
        placement = plan_placement(10, 3, kind="range")
        assert placement.n_rows == 10
        # first n % S shards absorb the remainder
        assert [placement.rows_of(s).size for s in range(3)] == [4, 3, 3]
        assert np.array_equal(
            np.sort(np.concatenate([placement.rows_of(s) for s in range(3)])),
            np.arange(10),
        )

    def test_range_rows_are_contiguous(self):
        placement = plan_placement(9, 3, kind="range")
        for s in range(3):
            rows = placement.rows_of(s)
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))

    def test_hash_is_deterministic_and_seeded(self):
        a = plan_placement(50, 4, kind="hash", seed=0)
        b = plan_placement(50, 4, kind="hash", seed=0)
        c = plan_placement(50, 4, kind="hash", seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_hash_covers_every_shard(self):
        placement = plan_placement(64, 4, kind="hash")
        assert sorted(set(placement.assignments.tolist())) == [0, 1, 2, 3]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ServingError):
            plan_placement(0, 2)
        with pytest.raises(ServingError):
            plan_placement(10, 0)
        with pytest.raises(ServingError):
            plan_placement(10, 2, kind="zigzag")

    def test_explicit_placement_validates_ids(self):
        with pytest.raises(ServingError):
            ShardPlacement(n_shards=2, assignments=np.array([0, 2]))
        with pytest.raises(ServingError):
            ShardPlacement(n_shards=0, assignments=np.array([], dtype=int))
        with pytest.raises(ServingError):
            ShardPlacement(n_shards=2, assignments=np.zeros((2, 2), int))

    def test_empty_shards_are_legal(self, data):
        placement = ShardPlacement(
            n_shards=3, assignments=np.zeros(len(data), dtype=np.int64)
        )
        manager = ShardManager(data, placement=placement)
        assert manager.shard_sizes() == [60, 0, 0]
        answer = manager.knn(data[4], k=5)
        assert answer.indices[0] == 4

    def test_negative_spares_rejected_up_front(self, data):
        # an HBM-only fleet builds no crossbar shard, the one place a
        # negative reservation used to be caught
        with pytest.raises(ConfigurationError):
            ShardManager(
                data, n_shards=2, spare_crossbars=-1, substrates="hbm_pim"
            )


class TestKNNExactness:
    def test_matches_brute_force(self, data):
        manager = ShardManager(data, n_shards=3)
        query = data[7] + 0.01
        answer = manager.knn(query, k=8)
        ref_idx, ref_scores = brute_knn(manager, data, query, 8)
        assert np.array_equal(answer.indices, ref_idx)
        assert np.array_equal(answer.scores, ref_scores)

    @pytest.mark.parametrize("placement", ["range", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_placement_invariant(self, data, placement, n_shards):
        single = ShardManager(data, n_shards=1)
        sharded = ShardManager(data, n_shards=n_shards, placement=placement)
        queries = data[[3, 11]] * 0.97
        singles, _ = single.knn_batch(queries, 5)
        shardeds, _ = sharded.knn_batch(queries, 5)
        for a, b in zip(singles, shardeds):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.scores, b.scores)

    def test_duplicate_distance_ties_take_lowest_index(self):
        # rows 2, 5, 9 identical -> equal scores -> canonical order
        data = np.ones((12, 4)) * np.arange(12)[:, None] / 12.0
        data[5] = data[2]
        data[9] = data[2]
        manager = ShardManager(data, n_shards=3, placement="hash")
        answer = manager.knn(data[2], k=3)
        assert answer.indices.tolist() == [2, 5, 9]
        assert answer.scores[0] == answer.scores[1] == answer.scores[2]

    def test_k_larger_than_dataset(self, data):
        manager = ShardManager(data[:6], n_shards=2)
        answer = manager.knn(data[0], k=50)
        assert answer.indices.size == 6

    def test_per_query_k_and_degrade_flags(self, data):
        manager = ShardManager(data, n_shards=2)
        answers, _ = manager.knn_batch(
            data[[0, 1]], ks=[3, 7], approximate=[False, True]
        )
        assert answers[0].indices.size == 3
        assert not answers[0].approximate
        assert answers[1].indices.size == 7
        assert answers[1].approximate
        assert answers[1].refined == 0  # degraded path never refines

    def test_approximate_scores_lower_bound_exact(self, data):
        manager = ShardManager(data, n_shards=2)
        exact = manager.knn(data[3], k=5)
        approx, _ = manager.knn_batch(data[[3]], 5, approximate=True)
        # Theorem 1: every lower bound <= its exact distance
        assert approx[0].scores[0] <= exact.scores[0] + 1e-12

    def test_rejects_bad_queries(self, data):
        manager = ShardManager(data, n_shards=2)
        with pytest.raises(ServingError):
            manager.knn(np.zeros(5), k=3)  # wrong dims
        with pytest.raises(ServingError):
            manager.knn_batch(data[:2], ks=[1, 2, 3])
        with pytest.raises(ServingError):
            manager.knn(data[0], k=0)
        with pytest.raises(ServingError):
            ShardManager(np.zeros((0, 4)))


class TestAssign:
    def test_matches_brute_force_argmin(self, data, rng):
        manager = ShardManager(data, n_shards=3, placement="hash")
        centers = rng.random((5, 8))
        answer, timing = manager.assign(centers)
        nd = manager.quantizer.normalize(data)
        nc = manager.quantizer.normalize(centers)
        dd = ((nd[:, None, :] - nc[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(answer.assignments, dd.argmin(axis=1))
        assert isinstance(timing, GatherTiming)
        assert timing.service_ns > 0

    def test_tie_breaks_to_lowest_center(self, data):
        manager = ShardManager(data, n_shards=2)
        centers = np.stack([data[0], data[0]])  # identical centers
        answer, _ = manager.assign(centers)
        assert (answer.assignments == 0).all()


class TestTimingAndStats:
    def test_gather_timing_is_max_plus_merge(self):
        timing = GatherTiming(wave_end_ns=[15.0, 31.0], merge_cpu_ns=2.0)
        assert timing.service_ns == 33.0
        assert GatherTiming().service_ns == 0.0

    def test_sharding_shrinks_service_time(self, rng):
        big = rng.random((2048, 16))
        t1 = ShardManager(big, n_shards=1).knn_batch(big[:4], 5)[1]
        t4 = ShardManager(big, n_shards=4).knn_batch(big[:4], 5)[1]
        assert t4.service_ns < t1.service_ns

    def test_busy_accounting_and_reset(self, data):
        manager = ShardManager(data, n_shards=2)
        assert manager.shard_busy_ns() == [0.0, 0.0]
        manager.knn(data[0], k=3)
        assert all(b > 0 for b in manager.shard_busy_ns())
        manager.reset_busy()
        assert manager.shard_busy_ns() == [0.0, 0.0]

    def test_merged_stats_namespaces_shards(self, data):
        manager = ShardManager(data, n_shards=2)
        manager.knn(data[0], k=3)
        stats = manager.merged_stats()
        assert stats.waves == sum(
            s.pim_stats.waves for s in manager.shards
        )
        assert "shard0.shard0" in stats.matrices
        assert "shard1.shard1" in stats.matrices

"""Heterogeneous placement: unlike substrates behind one ShardManager.

Covers the serving-layer substrate surface: per-shard backend tags,
validation, cost-routed replica preference (values invariant, order
routed), the routing report artifact, cache invalidation on topology
change, and repair/re-replication flows spanning unlike backends.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.faults import FaultEvent, FaultPlan
from repro.repair import RepairController, RepairPolicy
from repro.serving import ShardManager

DIMS = 24
MIX = ["crossbar", "hbm_pim", "crossbar", "hbm_pim"]


@pytest.fixture
def data(rng):
    return rng.random((320, DIMS))


@pytest.fixture
def queries(rng):
    return rng.random((6, DIMS))


def baseline(data):
    return ShardManager(data, n_shards=1)


class TestConstruction:
    def test_uniform_string_fans_out(self, data):
        m = ShardManager(data, n_shards=3, substrates="hbm_pim")
        assert m.substrates == ["hbm_pim"] * 3
        assert all(s.substrate == "hbm_pim" for s in m.shards)

    def test_default_stays_crossbar_with_no_router(self, data):
        m = ShardManager(data, n_shards=3)
        assert m.substrates == ["crossbar"] * 3
        assert m._router is None

    def test_list_length_must_match_shards(self, data):
        with pytest.raises(ServingError, match="names 2 shards"):
            ShardManager(data, n_shards=3, substrates=["crossbar"] * 2)

    def test_unknown_backend_rejected_with_registry_hint(self, data):
        with pytest.raises(ServingError, match="registered"):
            ShardManager(data, n_shards=2, substrates="optical")

    def test_bad_route_policy_rejected(self, data):
        with pytest.raises(ServingError, match="route"):
            ShardManager(data, n_shards=2, route="fastest")

    def test_auto_enables_router_only_when_heterogeneous(self, data):
        hom = ShardManager(data, n_shards=4, substrates="hbm_pim")
        het = ShardManager(data, n_shards=4, substrates=MIX)
        assert hom._router is None
        assert het._router is not None
        forced = ShardManager(
            data, n_shards=4, substrates="hbm_pim", route="energy"
        )
        assert forced._router is not None
        assert forced._router.objective == "energy"


class TestRoutedServing:
    def test_values_identical_under_routing(self, data, queries):
        a, _ = baseline(data).knn_batch(queries, 7)
        m = ShardManager(data, n_shards=4, replication=2, substrates=MIX)
        b, _ = m.knn_batch(queries, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)

    def test_routing_report_records_decisions(self, data, queries):
        m = ShardManager(data, n_shards=4, replication=2, substrates=MIX)
        m.knn_batch(queries, 5)
        report = m.routing_report()
        assert report["enabled"]
        assert report["objective"] == "latency"
        assert report["substrates"] == MIX
        assert len(report["decisions"]) == m.n_chunks
        for decision in report["decisions"]:
            assert decision["winner_substrate"] in ("crossbar", "hbm_pim")
            assert len(decision["ranked"]) == 2

    def test_route_none_keeps_round_robin(self, data, queries):
        m = ShardManager(
            data, n_shards=4, replication=2, substrates=MIX, route="none"
        )
        m.knn_batch(queries, 5)
        assert m._router is None
        assert m.routing_report()["decisions"] == []

    def test_route_cache_reused_per_shape(self, data, queries):
        m = ShardManager(data, n_shards=4, replication=2, substrates=MIX)
        m.knn_batch(queries, 5)
        decisions = len(m._route_decisions)
        m.knn_batch(queries, 5)  # same (chunk, batch) shapes -> cached
        assert len(m._route_decisions) == decisions

    def test_add_replica_invalidates_route_cache(self, data, queries):
        m = ShardManager(data, n_shards=4, substrates=MIX)
        m.knn_batch(queries, 5)
        assert m._route_cache
        m.add_replica(0, 1)
        assert not m._route_cache

    def test_wave_spans_labeled_by_substrate(self, data, queries):
        from repro.telemetry import telemetry_session

        m = ShardManager(data, n_shards=2, substrates=["crossbar", "hbm_pim"])
        with telemetry_session() as tele:
            m.knn_batch(queries, 5)
        seen = {
            s.args["substrate"]
            for s in tele.spans
            if s.name == "serving.scatter"
        }
        assert seen == {"crossbar", "hbm_pim"}

    def test_wave_metrics_count_every_backend(self, data, queries):
        from repro.telemetry import telemetry_session

        m = ShardManager(data, n_shards=2, substrates=["crossbar", "hbm_pim"])
        with telemetry_session() as tele:
            m.knn_batch(queries, 5)
        per_shard = [s.controller.pim.stats.waves for s in m.shards]
        assert all(waves > 0 for waves in per_shard)
        assert tele.metrics.get("pim.waves").value == sum(per_shard)


class TestMixedRepair:
    def test_rereplication_across_unlike_backends(self, data, queries):
        a, _ = baseline(data).knn_batch(queries, 7)
        m = ShardManager(data, n_shards=4, substrates=MIX)
        # chunk 1 lives on an HBM shard; host it on a crossbar shard too
        info = m.add_replica(1, 0)
        assert info["rows"] > 0
        assert m.replicas[1] == (1, 0)
        b, _ = m.knn_batch(queries, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)

    def test_repair_restores_replication_on_mixed_fleet(self, data, queries):
        a, _ = baseline(data).knn_batch(queries, 7)
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind="shard_crash", target="shard1")]
        )
        m = ShardManager(
            data,
            n_shards=4,
            replication=2,
            substrates=MIX,
            fault_plan=plan,
            spare_crossbars=2,
        )
        repair = RepairController(
            m, RepairPolicy(scrub_period_ns=1e6)
        )
        b, _ = m.knn_batch(queries, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)
        repair.advance(0.0, 1e9)
        repair.heal(1e9)
        # the dead HBM shard's chunks are re-replicated onto survivors
        assert repair.rereplications >= 1
        assert m.replica_counts() == [2] * m.n_chunks
        c, _ = m.knn_batch(queries, 7)
        for x, y in zip(a, c):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)

    def test_wear_reports_cover_both_device_classes(self, data):
        m = ShardManager(data, n_shards=2, substrates=["crossbar", "hbm_pim"])
        reports = m.wear_reports(top=2)
        assert len(reports) == 2
        assert all(r["units_tracked"] > 0 for r in reports)

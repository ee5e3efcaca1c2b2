"""Gray-failure defenses: detection, ejection, hedging, brownout.

Unit-level pins for DESIGN.md section 14: the latency-outlier detector
ejects the right shard (and only for *relative* slowness, never for
structural load imbalance), adaptive hedges race a duplicate wave and
cancel on first win with honest accounting (the slow-but-successful
loser must not double-count into latency, utilization or the merged
PIMStats), the hedge budget is a hard cap, flaky links drop or delay
without ever changing values, observed latency bends replica routing,
and the brownout controller trades fidelity for availability only
while a burn-rate alert is firing.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServingError
from repro.faults import FaultEvent, FaultPlan
from repro.observability import BrownoutController, BurnRateMonitor
from repro.serving import (
    HedgeBudget,
    QueryService,
    RecoveryPolicy,
    ShardHealthTracker,
    ShardManager,
)
from repro.substrate import CostRouter
from repro.telemetry import telemetry_session

K = 10
HORIZON_NS = 1.5e7


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(42).random((512, 32))


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(7).normal(size=(40, 32))


def straggler_plan(shard="shard0", factor=12.0, seed=3):
    """One shard sustained-slow for the whole horizon."""
    return FaultPlan(
        (
            FaultEvent(
                t_ns=0.0,
                kind="slow_shard",
                target=shard,
                duration_ns=HORIZON_NS,
                params={"factor": factor},
            ),
        ),
        seed=seed,
    )


def serve_trace(data, queries, plan, policy, n_shards=4):
    """Drive a paced trace; returns (manager, latencies, timings)."""
    manager = ShardManager(
        data, n_shards=n_shards, replication=2,
        fault_plan=plan, recovery=policy, seed=0,
    )
    gap = HORIZON_NS / (len(queries) + 1)
    t = 0.0
    latencies, timings = [], []
    for q in queries:
        _, timing = manager.knn_batch(np.atleast_2d(q), K, now_ns=t)
        latencies.append(timing.service_ns)
        timings.append(timing)
        t += timing.service_ns + gap
    return manager, np.asarray(latencies), timings


DEFENDED = RecoveryPolicy(
    outlier_ejection=True, adaptive_hedge=True, hedge_budget=0.5
)


class TestOutlierDetection:
    def test_straggler_is_ejected_and_only_the_straggler(
        self, data, queries
    ):
        manager, _, _ = serve_trace(
            data, queries, straggler_plan(), DEFENDED, n_shards=4
        )
        snap = manager.health.snapshot(HORIZON_NS)
        ejections = [entry["ejections"] for entry in snap]
        assert ejections[0] >= 1
        assert sum(ejections[1:]) == 0
        assert snap[0]["suspicion"] > snap[1]["suspicion"]

    def test_answers_stay_bit_exact_under_the_straggler(
        self, data, queries
    ):
        clean = ShardManager(data, n_shards=1)
        reference = [clean.knn(q, K) for q in queries]
        manager = ShardManager(
            data, n_shards=4, replication=2,
            fault_plan=straggler_plan(), recovery=DEFENDED, seed=0,
        )
        t = 0.0
        for q, ref in zip(queries, reference):
            answers, timing = manager.knn_batch(
                np.atleast_2d(q), K, now_ns=t
            )
            assert answers[0].indices.tolist() == ref.indices.tolist()
            assert answers[0].scores.tolist() == ref.scores.tolist()
            t += timing.service_ns + HORIZON_NS / (len(queries) + 1)

    def test_structural_imbalance_is_not_ejected(self, data, queries):
        # no faults at all: any latency spread between shards is
        # structural (chunk sizes, substrate), and the magnitude gate
        # must keep every suspicion at zero
        manager, _, _ = serve_trace(
            data, queries, None, DEFENDED, n_shards=4
        )
        for entry in manager.health.snapshot(HORIZON_NS):
            assert entry["ejections"] == 0
            assert entry["status"] == "up"

    def test_snapshot_carries_detector_fields_and_gauges(
        self, data, queries
    ):
        with telemetry_session() as tele:
            manager, _, _ = serve_trace(
                data, queries, straggler_plan(), DEFENDED, n_shards=4
            )
            snap = manager.health.snapshot(HORIZON_NS)
            for entry in snap:
                assert "suspicion" in entry
                assert "ejected" in entry
                assert "observed_p95_ns" in entry
            assert snap[0]["observed_p95_ns"] is not None
            suspicion = tele.metrics.gauge("serving.shard0.suspicion")
            assert suspicion.value == pytest.approx(
                snap[0]["suspicion"]
            )
            assert (
                tele.metrics.gauge("serving.shard0.ejected").value
                == (1.0 if snap[0]["ejected"] else 0.0)
            )

    def test_ejection_is_demotion_not_blocking(self):
        policy = RecoveryPolicy(outlier_ejection=True)
        tracker = ShardHealthTracker(2, policy)
        tracker._eject(0, t_ns=0.0)
        assert tracker.available(0, 1.0)
        assert tracker.demoted(0, 1.0)
        assert tracker.prefer_order([0, 1], 1.0) == (1, 0)


class TestHedging:
    def test_hedge_wins_cut_the_tail(self, data, queries):
        _, lat_off, _ = serve_trace(
            data, queries, straggler_plan(), RecoveryPolicy()
        )
        _, lat_on, timings = serve_trace(
            data, queries, straggler_plan(), DEFENDED
        )
        assert sum(t.hedges_won for t in timings) >= 1
        # the detector needs min-samples to convict, so judge the tail
        # on the converged second half of the trace: once defenses are
        # up no request may pay the full straggler wave again
        steady = lat_on[len(lat_on) // 2:]
        assert steady.max() < np.percentile(lat_off, 99)
        assert np.percentile(lat_on, 50) < np.percentile(lat_off, 50)

    def test_losing_hedge_does_not_double_count(self, data, queries):
        """The slow-but-successful loser regression (satellite fix).

        Whichever side of the race loses still *completes* its wave;
        the loser's tail past the decision instant must vanish from
        the shard busy time and the merged PIMStats instead of being
        charged twice.
        """
        manager, lat_on, timings = serve_trace(
            data, queries, straggler_plan(), DEFENDED
        )
        cancelled = sum(t.hedge_cancelled_ns for t in timings)
        assert cancelled > 0.0
        merged = manager.merged_stats()
        assert merged.extra["hedge_cancelled_pim_ns"] == pytest.approx(
            sum(s.cancelled_pim_ns for s in manager.shards)
        )
        # device time actually charged = raw array accounting minus
        # what the races discarded
        raw = sum(
            s.pim_stats.pim_time_ns for s in manager.shards
        )
        assert merged.pim_time_ns < raw
        # latency always follows the winner: no completed request may
        # be slower than the unhedged straggler wave
        manager_off, lat_off, _ = serve_trace(
            data, queries, straggler_plan(), RecoveryPolicy()
        )
        assert lat_on.max() <= lat_off.max()
        # the straggler's busy time sheds the cancelled tails too
        assert (
            manager.shards[0].busy_ns < manager_off.shards[0].busy_ns
        )

    def test_hedge_rate_respects_the_budget(self, data, queries):
        budget = 0.005
        policy = RecoveryPolicy(
            outlier_ejection=True, adaptive_hedge=True,
            hedge_budget=budget,
        )
        _, _, timings = serve_trace(
            data, queries, straggler_plan(), policy
        )
        attempts = sum(t.attempts for t in timings)
        hedges = sum(t.hedges for t in timings)
        assert attempts > 0
        assert hedges <= budget * attempts + 1.0  # initial burst token
        assert sum(t.hedges_denied for t in timings) >= 1

    def test_budget_token_bucket_arithmetic(self):
        budget = HedgeBudget(0.25, burst=1.0)
        assert budget.try_take()  # the initial burst token
        assert not budget.try_take()
        for _ in range(4):
            budget.accrue()
        assert budget.try_take()
        assert not budget.try_take()
        snap = budget.snapshot()
        assert snap["granted"] == 2
        assert snap["denied"] == 2


class TestFlakyLinks:
    def test_drops_are_counted_and_answers_exact(self, data, queries):
        plan = FaultPlan(
            (
                FaultEvent(
                    t_ns=0.0,
                    kind="link_flaky",
                    target="shard0",
                    duration_ns=HORIZON_NS,
                    params={
                        "drop_probability": 0.5,
                        "delay_probability": 0.3,
                        "delay_ns": 50_000.0,
                    },
                ),
            ),
            seed=5,
        )
        clean = ShardManager(data, n_shards=1)
        reference = [clean.knn(q, K) for q in queries]
        manager = ShardManager(
            data, n_shards=2, replication=2,
            fault_plan=plan, recovery=RecoveryPolicy(), seed=0,
        )
        drops = 0
        t = 0.0
        for q, ref in zip(queries, reference):
            answers, timing = manager.knn_batch(
                np.atleast_2d(q), K, now_ns=t
            )
            drops += timing.link_drops
            assert answers[0].indices.tolist() == ref.indices.tolist()
            t += timing.service_ns + HORIZON_NS / (len(queries) + 1)
        assert drops >= 1

    def test_hedge_cut_cancels_only_device_time(self, data, queries):
        """A won hedge cuts the loser's link stall from its timeline, but
        only device time the device booked moves to ``cancelled_pim_ns``."""
        plan = FaultPlan(
            (
                FaultEvent(
                    t_ns=0.0,
                    kind="link_flaky",
                    target="shard0",
                    duration_ns=HORIZON_NS,
                    params={
                        "drop_probability": 0.0,
                        "delay_probability": 0.5,
                        "delay_ns": 200_000.0,
                    },
                ),
            ),
            seed=5,
        )
        manager, _, timings = serve_trace(data, queries, plan, DEFENDED)
        assert sum(t.hedges_won for t in timings) >= 1
        assert sum(t.hedge_cancelled_ns for t in timings) > 0.0
        for shard in manager.shards:
            assert shard.cancelled_pim_ns <= shard.pim_stats.pim_time_ns
        raw = sum(s.pim_stats.pim_time_ns for s in manager.shards)
        cancelled = sum(s.cancelled_pim_ns for s in manager.shards)
        assert manager.merged_stats().pim_time_ns == pytest.approx(
            raw - cancelled
        )

    def test_link_verdicts_are_stateless_in_time(self):
        # detector-on and detector-off arms consult the plan a
        # different number of times; the weather must not depend on it
        plan = FaultPlan.gray_chaos(2, HORIZON_NS, seed=9)
        first = [plan.hash_unit("link", "shard0", w) for w in range(50)]
        again = [plan.hash_unit("link", "shard0", w) for w in range(50)]
        assert first == again


class TestObservedRouting:
    def test_observed_latency_reorders_replicas(self):
        router = CostRouter(objective="latency", observed_weight=1.0)
        candidates = [
            (0, "crossbar", 100, 8), (1, "crossbar", 100, 8),
        ]
        predicted = [
            s for s, _, _ in router.order(0, candidates).ranked
        ]
        observed = {predicted[0]: 1e9, predicted[1]: 1.0}
        seen = [
            s for s, _, _ in router.order(
                0, candidates, observed=observed
            ).ranked
        ]
        assert seen[0] == predicted[1]

    def test_observed_weight_is_validated(self):
        with pytest.raises(ConfigurationError):
            CostRouter(objective="latency", observed_weight=1.5)

    def test_route_cache_invalidated_on_health_version(self, data):
        manager = ShardManager(
            data, n_shards=2, replication=2, recovery=DEFENDED,
            route="latency", seed=0,
        )
        manager.knn(data[0], K)
        assert manager._route_cache
        manager.health.version += 1
        manager.knn(data[0], K)
        assert manager._health_version_seen == manager.health.version


class _StubMonitor:
    def __init__(self):
        self.now = lambda: 0.0
        self._firing = []

    def firing(self):
        return list(self._firing)


class TestBrownout:
    def test_requires_a_monitor(self):
        with pytest.raises(ServingError):
            BrownoutController(None)

    def test_engages_while_firing_and_holds(self):
        monitor = _StubMonitor()
        ctl = BrownoutController(monitor, hold_ns=100.0)
        assert not ctl.active(0.0)
        monitor._firing = [("p99_deadline", "fast")]
        assert ctl.active(10.0)
        monitor._firing = []
        assert ctl.active(50.0)  # inside the hold-down window
        assert not ctl.active(200.0)
        snap = ctl.snapshot()
        assert snap["engagements"] == 1
        assert [e["event"] for e in snap["events"]] == [
            "engaged", "released",
        ]

    def test_ignores_unwatched_objectives(self):
        monitor = _StubMonitor()
        ctl = BrownoutController(
            monitor, objectives=("p99_deadline",), hold_ns=100.0
        )
        monitor._firing = [("exactness", "fast")]
        assert not ctl.active(10.0)

    def test_service_rejects_mismatched_monitor(self, data):
        manager = ShardManager(data, n_shards=2)
        tenants = []
        monitor = BurnRateMonitor()
        other = BurnRateMonitor()
        with pytest.raises(ServingError):
            QueryService(
                manager, tenants, monitor=monitor,
                brownout=BrownoutController(other),
            )
        with pytest.raises(ServingError):
            QueryService(
                manager, tenants,
                brownout=BrownoutController(monitor),
            )

"""Unit tests for serving-layer fault recovery.

The contract under test: whatever the fault plan does — crashes, hangs,
stragglers, corrupted waves, every replica of a chunk gone — completed
responses are bit-identical to a fault-free single-array run, and the
recovery bookkeeping (retries, failovers, breaker state, MTTR, SLO
fields) tells the true story of what it took. References are clean
``ShardManager`` instances over the same data; equality checks are
exact, never approximate.
"""

import numpy as np
import pytest

from repro.errors import (
    ChunkUnavailableError,
    ProgrammingError,
    ServingError,
    ShardHungError,
    WatchdogTimeoutError,
)
from repro.faults import FaultEvent, FaultPlan
from repro.hardware.pim_array import PIMStats
from repro.serving import (
    QueryService,
    RecoveryPolicy,
    Request,
    Response,
    ShardHealthTracker,
    ShardManager,
    SLOTracker,
)
from repro.serving.health import CRASH_DETECT_NS, backoff_ns
from repro.serving.sharding import GatherTiming


@pytest.fixture
def data(rng):
    return rng.random((40, 8))


@pytest.fixture
def queries(rng):
    return rng.random((3, 8))


def crash(shard, t_ns=0.0):
    return FaultEvent(t_ns=t_ns, kind="shard_crash", target=f"shard{shard}")


def assert_same_answers(got, expected):
    for a, b in zip(got, expected):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.scores, b.scores)


class TestRecoveryPolicy:
    def test_backoff_grows_exponentially_to_the_cap(self):
        # 50 us doubling per failure, capped at 1 ms
        assert backoff_ns(0) == 0.0
        assert backoff_ns(1) == 50_000.0
        assert backoff_ns(2) == 100_000.0
        assert backoff_ns(5) == 800_000.0
        assert backoff_ns(6) == 1_000_000.0
        assert backoff_ns(9) == 1_000_000.0

    def test_validation(self):
        with pytest.raises(ServingError):
            RecoveryPolicy(dispatch_timeout_ns=0.0)
        with pytest.raises(ServingError):
            RecoveryPolicy(breaker_threshold=0)


class TestShardHealthTracker:
    def test_breaker_opens_then_half_opens(self):
        policy = RecoveryPolicy(breaker_threshold=2, breaker_reset_ns=1000.0)
        health = ShardHealthTracker(2, policy)
        health.record_failure(0, 0.0)
        assert health.available(0, 1.0)  # one failure: still routable
        health.record_failure(0, 10.0)
        assert not health.available(0, 500.0)  # circuit open
        assert health.available(0, 1010.0)  # half-open probe allowed
        assert health.available(1, 0.0)  # the other shard is untouched

    def test_success_closes_the_circuit(self):
        policy = RecoveryPolicy(breaker_threshold=2, breaker_reset_ns=1000.0)
        health = ShardHealthTracker(1, policy)
        health.record_failure(0, 0.0)
        health.record_failure(0, 10.0)
        health.record_success(0, 1010.0)
        assert health.available(0, 1011.0)
        assert health.snapshot(1011.0)[0]["consecutive_failures"] == 0

    def test_permanent_failure_is_forever(self):
        health = ShardHealthTracker(3)
        health.record_failure(1, 5.0, permanent=True)
        assert not health.alive(1)
        assert health.dead_shards == [1]
        assert not health.available(1, 1e18)
        assert health.snapshot(1e18)[1]["status"] == "dead"

    def test_mttr_samples_measure_down_to_up(self):
        health = ShardHealthTracker(1)
        health.record_failure(0, 100.0)
        health.record_success(0, 400.0)
        assert health.drain_recoveries() == [300.0]
        assert health.drain_recoveries() == []  # drained exactly once

    def test_snapshot_statuses(self):
        policy = RecoveryPolicy(breaker_threshold=3, breaker_reset_ns=1e6)
        health = ShardHealthTracker(4, policy)
        health.record_failure(1, 0.0)  # below threshold -> suspect
        for _ in range(3):
            health.record_failure(2, 0.0)  # at threshold -> open
        health.record_failure(3, 0.0, permanent=True)
        statuses = [h["status"] for h in health.snapshot(10.0)]
        assert statuses == ["up", "suspect", "open", "dead"]

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ServingError):
            ShardHealthTracker(0)


class TestSLOTracker:
    def _response(self, ok=True, degraded=False, approximate=False):
        return Response(
            request_id="r",
            tenant="t",
            kind="knn",
            ok=ok,
            arrival_ns=0.0,
            completion_ns=100.0,
            shed_reason=None if ok else "fault:chunk_unavailable",
            approximate=approximate,
            degraded=degraded,
        )

    def test_record_dispatch_aggregates_gather_timing(self):
        tracker = SLOTracker()
        timing = GatherTiming(
            attempts=5,
            retries=2,
            failovers=1,
            timeouts=1,
            crashes=1,
            corrupt_detected=2,
            hedges=1,
            degraded_chunks=1,
        )
        tracker.record_dispatch(timing)
        tracker.record_dispatch(timing)
        assert tracker.dispatches == 2
        assert tracker.attempts == 10
        assert tracker.retries == 4
        assert tracker.failovers == 2
        assert tracker.timeouts == 2
        assert tracker.crashes == 2
        assert tracker.corrupt_detected == 4
        assert tracker.hedges == 2
        assert tracker.degraded_chunks == 2
        assert tracker.retry_rate == pytest.approx(0.4)

    def test_availability_is_completed_over_offered(self):
        tracker = SLOTracker()
        assert tracker.availability == 1.0  # idle: vacuously available
        for _ in range(3):
            tracker.observe(self._response(ok=True))
        tracker.observe(self._response(ok=False))
        assert tracker.availability == pytest.approx(0.75)

    def test_degraded_exact_counts_separately_from_approximate(self):
        tracker = SLOTracker()
        tracker.observe(self._response(degraded=True))
        tracker.observe(self._response(approximate=True))
        assert tracker.degraded_exact == 1
        assert tracker.degraded == 1

    def test_mttr_is_the_mean_of_recovery_samples(self):
        tracker = SLOTracker()
        assert tracker.mttr_ns == 0.0
        tracker.record_recovery(100.0)
        tracker.record_recovery(300.0)
        assert tracker.mttr_ns == pytest.approx(200.0)

    def test_summary_carries_the_robustness_fields(self):
        tracker = SLOTracker()
        tracker.observe(self._response(degraded=True))
        tracker.record_dispatch(GatherTiming(attempts=2, retries=1))
        tracker.record_recovery(50.0)
        summary = tracker.summary()
        assert summary["availability"] == 1.0
        assert summary["retry_rate"] == pytest.approx(0.5)
        assert summary["mttr_ns"] == 50.0
        assert summary["degraded_exact"] == 1
        assert summary["recovery"] == {
            "dispatches": 1,
            "attempts": 2,
            "retries": 1,
            "failovers": 0,
            "timeouts": 0,
            "crashes": 0,
            "corrupt_detected": 0,
            "hedges": 0,
            "hedges_won": 0,
            "hedges_lost": 0,
            "hedges_denied": 0,
            "hedge_cancelled_ns": 0.0,
            "hedge_rate": 0.0,
            "link_drops": 0,
            "degraded_chunks": 0,
        }


class TestGatherTiming:
    def test_service_ns_prefers_wave_end_times(self):
        timing = GatherTiming(
            per_shard_pim_ns=[10.0, 30.0],
            per_shard_cpu_ns=[5.0, 1.0],
            merge_cpu_ns=2.0,
        )
        timing.wave_end_ns = [50.0, 20.0]
        timing.degraded_cpu_ns = 4.0
        assert timing.service_ns == 56.0


class TestReplication:
    def test_replicated_placement_is_bit_identical_to_plain(
        self, data, queries
    ):
        plain = ShardManager(data, 4)
        replicated = ShardManager(data, 4, replication=2)
        a, _ = plain.knn_batch(queries, 5)
        b, _ = replicated.knn_batch(queries, 5)
        assert_same_answers(b, a)
        ap, _ = plain.assign(data[:3])
        bp, _ = replicated.assign(data[:3])
        assert np.array_equal(bp.assignments, ap.assignments)
        assert np.array_equal(bp.distances, ap.distances)

    def test_each_chunk_lands_on_its_replica_set(self, data):
        manager = ShardManager(data, 4, replication=2)
        assert manager.replicas == [(0, 1), (1, 2), (2, 3), (3, 0)]
        for c, reps in enumerate(manager.replicas):
            rows = manager.chunk_rows[c]
            for s in reps:
                shard = manager.shards[s]
                sl = shard.chunk_slices[c]
                assert np.array_equal(shard.global_indices[sl], rows)

    def test_replication_bounds_are_validated(self, data):
        with pytest.raises(ServingError):
            ShardManager(data, 4, replication=0)
        with pytest.raises(ServingError):
            ShardManager(data, 4, replication=5)

    def test_merged_stats_namespace_replicated_shards(self, data, queries):
        manager = ShardManager(data, 2, replication=2)
        manager.knn_batch(queries, 3)
        merged = manager.merged_stats()
        assert merged.waves == sum(
            s.pim_stats.waves for s in manager.shards
        )
        assert set(merged.matrices) == {"shard0.shard0", "shard1.shard1"}

    def test_merge_needs_one_prefix_per_part(self):
        with pytest.raises(ProgrammingError):
            PIMStats.merge([PIMStats()], prefixes=["a.", "b."])


class TestRecoveryDispatch:
    def test_crash_fails_over_and_stays_exact(self, data, queries):
        clean = ShardManager(data, 1)
        plan = FaultPlan([crash(1)])
        manager = ShardManager(data, 4, replication=2, fault_plan=plan)
        answers, timing = manager.knn_batch(queries, 5)
        expected, _ = clean.knn_batch(queries, 5)
        assert_same_answers(answers, expected)
        assert not answers[0].degraded
        assert timing.crashes >= 1
        assert timing.failovers >= 1
        assert manager.health.dead_shards == [1]

    def test_lost_chunk_degrades_to_exact_host_recompute(
        self, data, queries
    ):
        clean = ShardManager(data, 1)
        plan = FaultPlan([crash(0)])
        manager = ShardManager(data, 4, replication=1, fault_plan=plan)
        answers, timing = manager.knn_batch(queries, 5)
        expected, _ = clean.knn_batch(queries, 5)
        assert_same_answers(answers, expected)
        assert all(a.degraded for a in answers)
        assert timing.degraded_chunks == 1
        assert timing.degraded_cpu_ns > 0.0

    @pytest.mark.parametrize("lost", [0, 1])
    def test_degraded_rows_tie_with_live_rows(self, rng, lost):
        # chunk 1 repeats chunk 0 row for row, so every score of the
        # recomputed chunk ties with one from the live chunk: the merge
        # must still keep the lower global index first
        half = rng.random((20, 8))
        data = np.concatenate([half, half])
        queries = np.concatenate([half[:2], rng.random((2, 8))])
        ks = [1, 3, 8, 40]
        manager = ShardManager(
            data, 2, replication=1, fault_plan=FaultPlan([crash(lost)])
        )
        answers, timing = manager.knn_batch(queries, ks)
        expected, _ = ShardManager(data, 1).knn_batch(queries, ks)
        assert timing.degraded_chunks == 1
        assert any(np.any(np.diff(a.scores) == 0.0) for a in answers)
        assert_same_answers(answers, expected)

    def test_degraded_latency_counts_the_time_spent_failing(self):
        """A given-up chunk's failed attempts stay in ``service_ns``.

        The crash is only noticed ``CRASH_DETECT_NS`` after dispatch,
        and the chunk is given up when its backoff ends and no replica
        is left; the recompute starts after that, not at the end of the
        surviving shard's wave.
        """
        data = np.random.default_rng(0).random((200, 16))
        manager = ShardManager(
            data, 2, replication=1, fault_plan=FaultPlan([crash(0)])
        )
        answers, timing = manager.knn_batch(data[:2], 5)
        assert all(a.degraded for a in answers)
        assert timing.given_up_ns == CRASH_DETECT_NS + backoff_ns(1)
        assert max(timing.wave_end_ns) < CRASH_DETECT_NS
        assert timing.service_ns == (
            timing.given_up_ns + timing.degraded_cpu_ns + timing.merge_cpu_ns
        )
        path = timing.critical_path()
        assert path["retry_ns"] == timing.given_up_ns
        assert path["shard"] is None
        segments = sum(v for k, v in path.items() if k != "shard")
        assert segments == pytest.approx(timing.service_ns, abs=1.0)

    def test_unavailable_chunk_raises_when_degradation_disabled(
        self, data, queries
    ):
        plan = FaultPlan([crash(0)])
        manager = ShardManager(
            data,
            4,
            replication=1,
            fault_plan=plan,
            recovery=RecoveryPolicy(allow_degraded=False),
        )
        with pytest.raises(ChunkUnavailableError) as excinfo:
            manager.knn_batch(queries, 5)
        assert excinfo.value.unit == "chunk0"
        assert excinfo.value.context["replicas"] == [0]

    def test_corruption_is_detected_and_recovered_exactly(
        self, data, queries
    ):
        clean = ShardManager(data, 1)
        plan = FaultPlan(
            [
                FaultEvent(
                    t_ns=0.0,
                    kind="wave_corrupt",
                    target="shard0",
                    params={"probability": 1.0},
                )
            ]
        )
        manager = ShardManager(data, 4, replication=2, fault_plan=plan)
        assert manager.verify  # on by default when a plan is attached
        answers, timing = manager.knn_batch(queries, 5)
        expected, _ = clean.knn_batch(queries, 5)
        assert_same_answers(answers, expected)
        assert not answers[0].degraded  # a clean replica served the chunk
        assert timing.corrupt_detected >= 1
        assert timing.retries >= 1

    def test_hang_times_out_and_fails_over(self, data, queries):
        clean = ShardManager(data, 1)
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind="shard_hang", target="shard0")]
        )
        manager = ShardManager(data, 4, replication=2, fault_plan=plan)
        answers, timing = manager.knn_batch(queries, 5)
        expected, _ = clean.knn_batch(queries, 5)
        assert_same_answers(answers, expected)
        assert timing.timeouts >= 1
        # the abandoned attempt still occupied the dispatch for the full
        # watchdog window
        assert timing.service_ns >= manager.recovery.dispatch_timeout_ns

    def test_hang_without_watchdog_raises(self, data, queries):
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind="shard_hang", target="shard0")]
        )
        manager = ShardManager(
            data,
            2,
            fault_plan=plan,
            recovery=RecoveryPolicy(dispatch_timeout_ns=None),
        )
        with pytest.raises(ShardHungError) as excinfo:
            manager.knn_batch(queries, 5)
        assert isinstance(excinfo.value, TimeoutError)
        assert excinfo.value.unit == "shard0"

    def test_slow_shard_stretches_time_not_values(self, data, queries):
        baseline = ShardManager(data, 2, fault_plan=FaultPlan())
        slowed = ShardManager(
            data,
            2,
            fault_plan=FaultPlan(
                [
                    FaultEvent(
                        t_ns=0.0,
                        kind="slow_shard",
                        target="shard0",
                        params={"factor": 5.0},
                    )
                ]
            ),
        )
        a, t_base = baseline.knn_batch(queries, 5)
        b, t_slow = slowed.knn_batch(queries, 5)
        assert_same_answers(b, a)
        assert t_slow.service_ns > t_base.service_ns

    def test_hedging_duplicates_straggler_waves(self, data, queries):
        clean = ShardManager(data, 1)
        straggler = FaultEvent(
            t_ns=0.0, kind="slow_shard", target="shard0",
            params={"factor": 12.0},
        )
        manager = ShardManager(
            data,
            4,
            replication=2,
            fault_plan=FaultPlan([straggler]),
            recovery=RecoveryPolicy(
                outlier_ejection=True, adaptive_hedge=True
            ),
        )
        expected, _ = clean.knn_batch(queries, 5)
        hedges = []
        # the adaptive trigger stays off until the detector holds
        # enough samples for a p95; dispatches a millisecond apart keep
        # the ejected straggler's probe due, so it is still routed to
        for i in range(16):
            answers, timing = manager.knn_batch(queries, 5, now_ns=i * 1e6)
            assert_same_answers(answers, expected)
            hedges.append(timing.hedges)
        assert hedges[0] == 0
        assert sum(hedges) >= 1

    def test_assign_survives_crash_and_degradation(self, data):
        centers = data[:3]
        clean, _ = ShardManager(data, 1).assign(centers)
        plan = FaultPlan([crash(1)])
        replicated = ShardManager(data, 4, replication=2, fault_plan=plan)
        a, _ = replicated.assign(centers)
        assert np.array_equal(a.assignments, clean.assignments)
        assert np.array_equal(a.distances, clean.distances)
        assert not a.degraded
        lone = ShardManager(data, 4, replication=1, fault_plan=plan)
        b, timing = lone.assign(centers)
        assert np.array_equal(b.assignments, clean.assignments)
        assert np.array_equal(b.distances, clean.distances)
        assert b.degraded and timing.degraded_chunks == 1


class TestServiceUnderFaults:
    def _request(self, rid="r0", t=0.0, query=None, kind="knn"):
        return Request(
            request_id=rid,
            tenant="t",
            query=query,
            k=5,
            kind=kind,
            arrival_ns=t,
        )

    def test_unabsorbable_fault_becomes_a_reasoned_shed(self, data, rng):
        plan = FaultPlan([crash(0)])
        manager = ShardManager(
            data,
            1,
            fault_plan=plan,
            recovery=RecoveryPolicy(allow_degraded=False),
        )
        service = QueryService(manager)
        responses = service.run([self._request(query=rng.random(8))])
        assert len(responses) == 1
        assert not responses[0].ok
        assert responses[0].shed_reason == "fault:chunk_unavailable"
        assert service.tracker.shed_reasons == {
            "fault:chunk_unavailable": 1
        }

    def test_hung_shard_without_watchdog_escapes_as_timeout(
        self, data, rng
    ):
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind="shard_hang", target="shard0")]
        )
        manager = ShardManager(
            data,
            1,
            fault_plan=plan,
            recovery=RecoveryPolicy(dispatch_timeout_ns=None),
        )
        service = QueryService(manager)
        with pytest.raises(TimeoutError):
            service.run([self._request(query=rng.random(8))])

    def test_non_finite_service_time_trips_the_watchdog(self, data, rng):
        service = QueryService(ShardManager(data, 1))
        service._serve = lambda batch: float("inf")
        service.submit(self._request(query=rng.random(8)))
        with pytest.raises(WatchdogTimeoutError):
            service.drain()

    def test_degraded_completion_feeds_the_slo_tracker(self, data, rng):
        plan = FaultPlan([crash(0)])
        manager = ShardManager(data, 4, replication=1, fault_plan=plan)
        service = QueryService(manager)
        query = rng.random(8)
        responses = service.run(
            [self._request(rid=f"r{i}", query=query) for i in range(2)]
        )
        assert all(r.ok and r.degraded for r in responses)
        clean = ShardManager(data, 1).knn(query, 5)
        for r in responses:
            assert np.array_equal(r.indices, clean.indices)
            assert np.array_equal(r.scores, clean.scores)
        tracker = service.tracker
        assert tracker.degraded_exact == 2
        assert tracker.availability == 1.0
        assert tracker.crashes >= 1
        assert tracker.dispatches >= 1

    def test_recoveries_flow_into_mttr(self, data, rng):
        # a transient hang: down for one window, then back up
        plan = FaultPlan(
            [
                FaultEvent(
                    t_ns=0.0,
                    kind="shard_hang",
                    target="shard0",
                    duration_ns=1000.0,
                )
            ]
        )
        manager = ShardManager(
            data,
            2,
            replication=2,
            fault_plan=plan,
            recovery=RecoveryPolicy(dispatch_timeout_ns=2000.0),
        )
        service = QueryService(manager)
        service.run(
            [
                self._request(rid="r0", t=0.0, query=rng.random(8)),
                self._request(rid="r1", t=1e9, query=rng.random(8)),
            ]
        )
        assert service.tracker.timeouts >= 1
        assert service.tracker.mttr_ns > 0.0

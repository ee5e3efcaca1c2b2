"""Unit tests for the self-healing loop (:mod:`repro.repair`).

The contract: silent device faults are *detected* by background
scrubbing within one scrub period of idle time, *repaired* by remapping
the affected crossbars onto spares (or, when a shard is beyond repair,
by re-replicating its chunks elsewhere under a bandwidth budget), and
the repaired shard re-enters rotation only through quarantine — all of
it without ever changing an answer byte.
"""

import math

import numpy as np
import pytest

from repro.errors import (
    CapacityError,
    ChunkUnavailableError,
    ServingError,
    WatchdogTimeoutError,
)
from repro.faults import FaultEvent, FaultPlan
from repro.hardware.config import pim_platform
from repro.hardware.mapper import total_crossbars
from repro.repair import BackgroundScrubber, RepairController, RepairPolicy
from repro.repair.controller import _Transfer
from repro.serving import (
    QueryService,
    RecoveryPolicy,
    Request,
    ShardHealthTracker,
    ShardManager,
    SLOTracker,
)
from repro.serving.health import CRASH_DETECT_NS

DIMS = 32


@pytest.fixture
def data(rng):
    return rng.random((240, DIMS))


def stuck(shard, t=0.0, fraction=0.05):
    """A permanent silent stuck-at-zero defect on ``shard``."""
    return FaultEvent(
        t_ns=t,
        kind="stuck_cells",
        target=f"shard{shard}",
        params={"fraction": fraction, "stuck_to": 0},
    )


def crash(shard, t=0.0):
    return FaultEvent(t_ns=t, kind="shard_crash", target=f"shard{shard}")


def dead_array(shard, t=0.0):
    return FaultEvent(t_ns=t, kind="crossbar_dead", target=f"shard{shard}")


def build(data, events=None, *, n_shards=4, replication=1, spares=12,
          seed=3, recovery=None, plan=None):
    if plan is None and events is not None:
        plan = FaultPlan(events, seed=seed)
    return ShardManager(
        data,
        n_shards,
        replication=replication,
        fault_plan=plan,
        spare_crossbars=spares,
        recovery=recovery,
    )


def kinds_of(events):
    return [e["kind"] for e in events]


class TestRepairPolicy:
    def test_defaults_are_valid(self):
        policy = RepairPolicy()
        assert policy.scrub_period_ns > 0
        assert policy.copy_ns_per_byte == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ServingError):
            RepairPolicy(scrub_period_ns=0.0)
        with pytest.raises(ServingError):
            RepairPolicy(probe_confirmations=0)
        with pytest.raises(ServingError):
            RepairPolicy(repair_bandwidth_bytes_per_s=0.0)
        with pytest.raises(ServingError):
            RepairPolicy(target_replication=0)
        with pytest.raises(ServingError):
            RepairPolicy(quarantine_probes=-1)

    def test_copy_cost_follows_the_bandwidth(self):
        policy = RepairPolicy(repair_bandwidth_bytes_per_s=2e9)
        assert policy.copy_ns_per_byte == pytest.approx(0.5)


class TestBackgroundScrubber:
    def test_clean_probe_on_a_healthy_shard(self, data):
        manager = build(data, [])
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        probe = scrubber.probe(0.0)
        assert probe["outcome"] == "clean"
        assert probe["cost_ns"] > 0
        assert manager.shards[0].busy_ns > 0  # probe time is charged

    def test_interval_spreads_one_sweep_over_the_period(self, data):
        manager = build(data, [])
        scrubber = BackgroundScrubber(
            manager, RepairPolicy(scrub_period_ns=4e6)
        )
        assert scrubber.interval_ns == pytest.approx(1e6)

    def test_advance_walks_shards_and_counts_sweeps(self, data):
        manager = build(data, [])
        scrubber = BackgroundScrubber(
            manager, RepairPolicy(scrub_period_ns=4e6)
        )
        assert scrubber.due_ns() == 0.0
        for expected_cursor in (1, 2, 3, 0):
            scrubber.advance(0.0)
            assert scrubber.cursor == expected_cursor
        assert scrubber.sweeps == 1
        assert scrubber.due_ns() == pytest.approx(4e6)

    def test_backlog_is_capped_at_one_period(self, data):
        manager = build(data, [])
        scrubber = BackgroundScrubber(
            manager, RepairPolicy(scrub_period_ns=4e6)
        )
        scrubber.advance(1e12)  # a long stretch without idle time
        assert scrubber.due_ns() >= 1e12 - 4e6

    def test_hold_keeps_the_cursor_for_confirmation(self, data):
        manager = build(data, [])
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        due = scrubber.due_ns()
        scrubber.hold()
        assert scrubber.cursor == 0
        assert scrubber.due_ns() == due

    def test_dead_shard_is_skipped(self, data):
        manager = build(data, [])
        manager.health.record_failure(0, 0.0, permanent=True)
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        probe = scrubber.probe(0.0)
        assert probe["outcome"] == "skip"
        assert probe["cost_ns"] == 0.0

    def test_silent_stuck_cells_probe_corrupt(self, data):
        manager = build(data, [stuck(0)])
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        probe = scrubber.probe(1.0)
        assert probe["outcome"] == "corrupt"
        assert probe["bad_waves"] >= 1

    def test_dead_crossbar_probe_is_conclusive(self, data):
        manager = build(data, [dead_array(0)])
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        probe = scrubber.probe(1.0)
        assert probe["outcome"] == "dead_array"
        assert probe["cost_ns"] == CRASH_DETECT_NS

    def test_crashed_shard_probe_reports_crash(self, data):
        manager = build(data, [crash(0)])
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        probe = scrubber.probe(1.0)
        assert probe["outcome"] == "crash"
        assert probe["cost_ns"] == CRASH_DETECT_NS

    def test_hung_shard_probe_costs_the_watchdog(self, data):
        manager = build(
            data,
            [FaultEvent(t_ns=0.0, kind="shard_hang", target="shard0")],
        )
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        probe = scrubber.probe(1.0)
        assert probe["outcome"] == "hang"
        assert probe["cost_ns"] > 0

    def test_slow_shard_probe_costs_what_the_device_booked(self, data):
        clean = BackgroundScrubber(build(data, []), RepairPolicy())
        manager = build(
            data,
            [
                FaultEvent(
                    t_ns=0.0, kind="slow_shard", target="shard0",
                    params={"factor": 10.0},
                )
            ],
        )
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        device = manager.shards[0].pim_stats
        before = device.pim_time_ns
        probe = scrubber.probe(1.0)
        assert probe["outcome"] == "clean"
        assert probe["cost_ns"] == device.pim_time_ns - before
        assert probe["cost_ns"] == pytest.approx(
            10.0 * clean.probe(1.0)["cost_ns"], rel=1e-12
        )

    @pytest.mark.parametrize("defect, outcome", [(None, "clean"),
                                                 (stuck(0), "corrupt")])
    def test_probe_fires_through_a_flaky_link(self, data, defect, outcome):
        """A dropped or delayed link neither stops nor slows a probe."""
        link = [
            FaultEvent(
                t_ns=0.0, kind="link_flaky", target="shard0",
                params={"drop_probability": p, "delay_probability": 1 - p},
            )
            for p in (1.0, 0.0)
        ]
        clean = BackgroundScrubber(build(data, []), RepairPolicy())
        want = clean.probe(1.0)["cost_ns"]
        for event in link:
            events = [event] if defect is None else [event, defect]
            manager = build(data, events)
            assert manager.shards[0].verdict(1.0).status == (
                "drop" if event.params["drop_probability"] else "ok"
            )
            probe = BackgroundScrubber(manager, RepairPolicy()).probe(1.0)
            assert probe["outcome"] == outcome
            assert probe["cost_ns"] == want
            assert manager.shards[0].busy_ns == want

    def test_report_accumulates_outcomes(self, data):
        manager = build(data, [stuck(0)])
        scrubber = BackgroundScrubber(manager, RepairPolicy())
        scrubber.probe(1.0)
        scrubber.advance(1.0)
        scrubber.probe(1.0)
        report = scrubber.report()
        assert report["probes"] == 2
        assert report["outcomes"].get("corrupt") == 1


class TestScrubDetectionAndRemap:
    def test_stuck_shard_is_detected_and_remapped_within_a_period(
        self, data
    ):
        period = 1e6
        manager = build(data, [stuck(0)])
        ctrl = RepairController(
            manager, RepairPolicy(scrub_period_ns=period)
        )
        ctrl.advance(0.0, period)
        events = ctrl.drain_events()
        assert ctrl.detections == 1
        assert ctrl.remaps >= 1
        assert ctrl.remap_ns > 0
        assert "detect" in kinds_of(events)
        assert "remap" in kinds_of(events)
        assert "quarantine" in kinds_of(events)
        # detection happened within one scrub period of idle time
        detect = next(e for e in events if e["kind"] == "detect")
        assert detect["t_ns"] <= period

    def test_repaired_shard_sits_in_quarantine(self, data):
        manager = build(data, [stuck(0)])
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        entry = manager.health.snapshot(1e6)[0]
        assert entry["status"] == "quarantine"
        assert entry["quarantine_left"] > 0
        assert entry["quarantined_since_ns"] is not None

    def test_answers_stay_exact_after_the_remap(self, data):
        manager = build(data, [stuck(0)])
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        expected = ShardManager(data, 1).knn(data[0], 10)
        got = manager.knn(data[0], 10)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.scores, expected.scores)

    def test_corruption_needs_consecutive_confirmations(self, data):
        manager = build(data, [stuck(0)])
        ctrl = RepairController(
            manager,
            RepairPolicy(scrub_period_ns=1e6, probe_confirmations=3),
        )
        # two probes' worth of window: suspicion accumulates but no
        # repair fires before the third confirmation
        used = ctrl._scrub_once(0.0)
        ctrl._scrub_once(used)
        assert ctrl.detections == 0
        assert ctrl.remaps == 0
        assert ctrl.scrubber.cursor == 0  # held for confirmation

    def test_transient_corruption_is_left_to_the_query_path(self, data):
        # wave_corrupt is live at probe time but has no repairable
        # substrate: the controller must record the detection and walk
        # away without remapping or quarantining anything
        event = FaultEvent(
            t_ns=0.0,
            kind="wave_corrupt",
            target="shard0",
            params={"probability": 1.0, "magnitude": 101},
        )
        manager = build(data, [event])
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        events = ctrl.drain_events()
        assert ctrl.detections >= 1
        assert ctrl.remaps == 0
        assert "quarantine" not in kinds_of(events)
        assert manager.health.snapshot(1e6)[0]["status"] != "quarantine"

    def test_dead_crossbar_remaps_without_confirmation(self, data):
        manager = build(data, [dead_array(0)])
        ctrl = RepairController(
            manager,
            RepairPolicy(scrub_period_ns=1e6, probe_confirmations=5),
        )
        ctrl._scrub_once(0.0)  # one probe must be enough
        assert ctrl.detections == 1
        assert ctrl.remaps == 1

    def test_spare_exhaustion_on_a_stuck_shard_is_not_fatal(self, data):
        manager = build(data, [stuck(0)], spares=0)
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        events = ctrl.drain_events()
        assert "spares_exhausted" in kinds_of(events)
        assert ctrl.remaps == 0
        # a stuck shard still answers (the query path re-detects); it
        # must not be declared dead just because the pool is empty
        assert manager.health.alive(0)

    def test_exhaustion_precheck_spends_no_partial_spares(self, data):
        # 8 data crossbars need remapping but only 2 spares exist: the
        # pre-check must refuse up front instead of burning both spares
        # on a fault that stays live
        manager = build(data, [stuck(0)], spares=2)
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        assert ctrl.remaps == 0
        assert manager.shards[0].controller.pim.spares_remaining == 2

    def test_dead_crossbar_without_spares_kills_the_shard(self, data):
        manager = build(
            data, [dead_array(0)], replication=2, spares=0
        )
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        events = ctrl.drain_events()
        assert "spares_exhausted" in kinds_of(events)
        assert "shard_dead" in kinds_of(events)
        assert not manager.health.alive(0)
        # re-replication takes over: the dead shard's chunks are queued
        assert "rereplicate_start" in kinds_of(events)


class TestRereplication:
    def test_crashed_shard_restores_every_chunk_to_k(self, data):
        manager = build(data, [crash(1, t=0.0)], replication=2)
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e9)
        ctrl.heal(1e9)
        events = ctrl.drain_events()
        assert "shard_dead" in kinds_of(events)
        assert ctrl.rereplications >= 1
        assert ctrl.rereplicated_bytes > 0
        assert manager.replica_counts() == [2] * manager.n_chunks
        assert ctrl.report()["pending_transfers"] == 0

    def test_rereplicated_rows_equal_their_source(self, data):
        manager = build(data, [crash(1, t=0.0)], replication=2)
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e9)
        ctrl.heal(1e9)
        done = [
            e for e in ctrl.drain_events() if e["kind"] == "rereplicate_done"
        ]
        assert done
        for event in done:
            source = manager.shards[event["source"]]
            target = manager.shards[event["target"]]
            sl_s = source.chunk_slices[event["chunk"]]
            sl_t = target.chunk_slices[event["chunk"]]
            assert np.array_equal(
                source.integers[sl_s], target.integers[sl_t]
            )
            assert np.array_equal(
                source.global_indices[sl_s], target.global_indices[sl_t]
            )
            assert np.array_equal(source.floats[sl_s], target.floats[sl_t])
            assert np.array_equal(source.phi[sl_s], target.phi[sl_t])

    def test_copy_is_throttled_by_the_bandwidth_budget(self, data):
        # ~30 KiB per chunk at 1 MB/s -> tens of ms of copy time; a
        # 1 ms idle window cannot finish a single transfer
        manager = build(data, [crash(1, t=0.0)], replication=2)
        ctrl = RepairController(
            manager,
            RepairPolicy(
                scrub_period_ns=1e5, repair_bandwidth_bytes_per_s=1e6
            ),
        )
        ctrl.advance(0.0, 1e6)
        assert ctrl.rereplications == 0
        assert ctrl.report()["pending_transfers"] >= 1
        # ... but the transfer resumes across windows and finishes
        ctrl.heal(1e6)
        assert ctrl.rereplications >= 1
        assert manager.replica_counts() == [2] * manager.n_chunks

    def test_transfer_time_matches_bytes_over_bandwidth(self, data):
        manager = build(data, [crash(1, t=0.0)], replication=2)
        bw = 1e8
        ctrl = RepairController(
            manager,
            RepairPolicy(
                scrub_period_ns=1e6, repair_bandwidth_bytes_per_s=bw
            ),
        )
        ctrl.advance(0.0, 1e9)
        ctrl.heal(1e9)
        done = [
            e for e in ctrl.drain_events() if e["kind"] == "rereplicate_done"
        ]
        for event in done:
            floor_ns = event["bytes"] * 1e9 / bw + event["program_ns"]
            assert event["duration_ns"] >= floor_ns - 1e-6

    def test_unreplicated_chunk_is_declared_unrecoverable_once(self, data):
        manager = build(data, [crash(1, t=0.0)], replication=1)
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e7)
        ctrl.advance(1e7, 2e7)
        events = ctrl.drain_events()
        unrecoverable = [
            e for e in events if e["kind"] == "unrecoverable"
        ]
        assert len(unrecoverable) == 1  # noted once, not per window
        assert ctrl.rereplications == 0

    def test_exhausted_stuck_repair_leaves_no_outage_window(self, data):
        # spares gone + stuck cells: nothing is repaired, so no outage
        # window may be opened — otherwise the next routine success
        # would mint a spurious MTTR sample
        manager = build(data, [stuck(0)], spares=0)
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e6)
        assert "spares_exhausted" in kinds_of(ctrl.drain_events())
        health = manager.health
        assert health.snapshot(1e6)[0]["down_since_ns"] is None
        health.record_success(0, 2e6)
        assert health.drain_recoveries() == []

    def test_heal_gives_up_when_no_target_can_host(self, data):
        # 2 shards, one dead: the survivor already hosts every chunk,
        # so heal() must terminate with nothing queued (not spin)
        manager = build(
            data, [crash(1, t=0.0)], n_shards=2, replication=2
        )
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e7)
        ctrl.heal(1e7)
        assert ctrl.report()["pending_transfers"] == 0


def tight_platform(fit_rows, no_fit_rows, dims):
    """A platform whose array fits ``fit_rows`` vectors but not
    ``no_fit_rows`` — one crossbar short of the larger matrix."""
    ref = pim_platform().pim
    per_xbar_bytes = ref.crossbar.capacity_bits // 8
    assert total_crossbars(fit_rows, dims, ref) < total_crossbars(
        no_fit_rows, dims, ref
    )
    return pim_platform(
        pim_capacity_bytes=(total_crossbars(no_fit_rows, dims, ref) - 1)
        * per_xbar_bytes
    )


class TestRereplicationCapacity:
    """Re-replication must never overfill (or destroy) a target shard."""

    def test_add_replica_refuses_an_overfull_target_without_damage(
        self, data
    ):
        # 2 shards of 120 rows each; the array fits one chunk, not two
        hw = tight_platform(120, 240, DIMS)
        manager = ShardManager(data, 2, hardware=hw)
        expected = manager.knn(data[0], 10)
        with pytest.raises(CapacityError):
            manager.add_replica(0, 1)
        # the pre-check must refuse before touching shard 1: its healthy
        # replica of chunk 1 keeps serving, bit-identically
        target = manager.shards[1]
        assert 0 not in target.chunk_slices
        assert target.n_rows == 120
        assert 1 not in manager.replicas[0]
        got = manager.knn(data[0], 10)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.scores, expected.scores)

    def test_controller_skips_targets_that_cannot_fit(self, data):
        # 3 shards, replication 2: each hosts 160 rows (+1 checksum
        # row); no array can take a third chunk (241 rows). When shard
        # 1 dies the controller must leave the deficit unfilled instead
        # of crashing the serving loop with CapacityError
        hw = tight_platform(161, 241, DIMS)
        manager = ShardManager(
            data,
            3,
            hardware=hw,
            replication=2,
            fault_plan=FaultPlan([crash(1, t=0.0)], seed=3),
        )
        ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
        ctrl.advance(0.0, 1e9)
        ctrl.heal(1e9)
        assert ctrl.rereplications == 0
        assert ctrl.report()["pending_transfers"] == 0
        assert min(manager.replica_counts()) == 1

    def test_stale_transfer_to_an_overfull_target_is_absorbed(self, data):
        # backstop behind the candidate filter: a queued transfer whose
        # target can no longer fit fails softly with a timeline event
        hw = tight_platform(120, 240, DIMS)
        manager = ShardManager(data, 2, hardware=hw)
        ctrl = RepairController(manager)
        ctrl._pending.append(
            _Transfer(
                chunk=0, target=1, started_ns=0.0, bytes=8, remaining_ns=0.0
            )
        )
        ctrl._transfer_step(0.0, math.inf)
        assert "rereplicate_failed" in kinds_of(ctrl.drain_events())
        assert ctrl.report()["pending_transfers"] == 0
        assert manager.shards[1].n_rows == 120  # target untouched


class TestProbeTokenReleaseOnAbort:
    """An aborted dispatch must not wedge a probationary shard."""

    def test_aborted_dispatch_releases_the_probe_claim(self, data):
        recovery = RecoveryPolicy(
            breaker_threshold=1,
            breaker_reset_ns=100.0,
            allow_degraded=False,
        )
        manager = ShardManager(data, 2, recovery=recovery)
        health = manager.health
        health.record_failure(0, 0.0)  # half-open once the window elapses
        health.record_failure(1, 0.0, permanent=True)  # chunk 1 is doomed
        # chunk 0 claims shard 0's probe token, then chunk 1 aborts the
        # dispatch because degraded recompute is disabled
        with pytest.raises(ChunkUnavailableError):
            manager.knn_batch(data[:1], 5, now_ns=200.0)
        assert not health.snapshot(200.0)[0]["probe_in_flight"]
        assert health.available(0, 200.0)
        assert health.begin_probe(0, 200.0)


class TestProbeTokenRegression:
    """The half-open window admits exactly ONE probe dispatch."""

    def tracker(self):
        return ShardHealthTracker(
            2,
            RecoveryPolicy(breaker_threshold=1, breaker_reset_ns=100.0),
        )

    def test_open_circuit_blocks_until_the_window_elapses(self):
        health = self.tracker()
        health.record_failure(0, 0.0)
        assert not health.available(0, 50.0)
        assert health.available(0, 150.0)

    def test_half_open_admits_exactly_one_probe(self):
        health = self.tracker()
        health.record_failure(0, 0.0)
        assert health.begin_probe(0, 150.0)
        # the probe token is held: every later caller is refused
        assert not health.available(0, 150.0)
        assert not health.begin_probe(0, 150.0)

    def test_probe_success_closes_the_circuit(self):
        health = self.tracker()
        health.record_failure(0, 0.0)
        assert health.begin_probe(0, 150.0)
        health.record_success(0, 200.0)
        assert health.available(0, 200.0)
        assert not health.probationary(0, 200.0)

    def test_probe_failure_reopens_behind_a_fresh_window(self):
        health = self.tracker()
        health.record_failure(0, 0.0)
        assert health.begin_probe(0, 150.0)
        health.record_failure(0, 160.0)
        assert not health.available(0, 200.0)
        assert health.available(0, 160.0 + 100.0)

    def test_release_frees_an_abandoned_claim(self):
        health = self.tracker()
        health.record_failure(0, 0.0)
        assert health.begin_probe(0, 150.0)
        health.release_probe(0)
        assert health.available(0, 150.0)
        assert health.begin_probe(0, 150.0)

    def test_healthy_shard_needs_no_probe(self):
        health = self.tracker()
        assert health.available(1, 0.0)
        assert not health.begin_probe(1, 0.0)


class TestQuarantine:
    def tracker(self):
        return ShardHealthTracker(
            2,
            RecoveryPolicy(breaker_threshold=1, breaker_reset_ns=100.0),
        )

    def test_mark_repaired_revives_even_a_dead_shard(self):
        health = self.tracker()
        health.record_failure(0, 0.0, permanent=True)
        assert not health.alive(0)
        health.mark_repaired(0, 1_000.0, probes=2)
        assert health.alive(0)
        assert health.probationary(0, 1_000.0)

    def test_readmission_needs_n_clean_probes(self):
        health = self.tracker()
        health.record_failure(0, 0.0, permanent=True)
        health.mark_repaired(0, 1_000.0, probes=2)
        assert health.begin_probe(0, 1_100.0)
        health.record_success(0, 1_100.0)
        assert health.probationary(0, 1_100.0)  # one down, one to go
        assert health.drain_recoveries() == []
        assert health.begin_probe(0, 1_200.0)
        health.record_success(0, 1_200.0)
        assert not health.probationary(0, 1_200.0)
        # the MTTR sample covers detection -> re-admission
        assert health.drain_recoveries() == [1_200.0]

    def test_failed_probe_restarts_the_probation(self):
        health = self.tracker()
        health.record_failure(0, 0.0, permanent=True)
        health.mark_repaired(0, 1_000.0, probes=2)
        assert health.begin_probe(0, 1_100.0)
        health.record_success(0, 1_100.0)
        health.record_failure(0, 1_200.0)
        # back to the full probe count, behind a fresh open window
        assert not health.available(0, 1_250.0)
        snapshot = health.snapshot(1_250.0)[0]
        assert snapshot["quarantine_left"] == 2

    def test_zero_probes_readmits_immediately(self):
        health = self.tracker()
        health.record_failure(0, 0.0, permanent=True)
        health.mark_repaired(0, 500.0, probes=0)
        assert health.available(0, 500.0)
        assert health.drain_recoveries() == [500.0]

    def test_snapshot_carries_the_breaker_and_quarantine_fields(self):
        health = self.tracker()
        health.record_failure(0, 0.0)
        health.record_failure(1, 0.0, permanent=True)
        entries = health.snapshot(50.0)
        assert entries[0]["status"] == "open"
        assert entries[0]["open_until_ns"] == pytest.approx(100.0)
        assert entries[1]["status"] == "dead"
        assert entries[1]["dead_since_ns"] == 0.0
        health.mark_repaired(1, 200.0, probes=3)
        entry = health.snapshot(250.0)[1]
        assert entry["status"] == "quarantine"
        assert entry["quarantined_since_ns"] == 200.0
        assert entry["quarantine_left"] == 3


class TestSLOTrackerRepair:
    def test_record_repair_counts_by_kind(self):
        tracker = SLOTracker()
        tracker.record_repair({"t_ns": 1.0, "kind": "remap", "shard": 0})
        tracker.record_repair({"t_ns": 2.0, "kind": "remap", "shard": 1})
        tracker.record_repair({"t_ns": 3.0, "kind": "rereplicate_done"})
        assert tracker.repair_counts == {"remap": 2, "rereplicate_done": 1}
        assert len(tracker.repair_events) == 3

    def test_summary_surfaces_the_repair_activity(self):
        tracker = SLOTracker()
        tracker.record_repair({"t_ns": 1.0, "kind": "detect", "shard": 0})
        summary = tracker.summary()
        assert summary["repair_activity"] == {"detect": 1}

    def test_events_are_copied_not_aliased(self):
        tracker = SLOTracker()
        event = {"t_ns": 1.0, "kind": "remap"}
        tracker.record_repair(event)
        event["kind"] = "mutated"
        assert tracker.repair_events[0]["kind"] == "remap"


class TestServiceIntegration:
    HORIZON = 4e9
    N_REQUESTS = 60

    def requests(self):
        queries = np.random.default_rng(99).random((self.N_REQUESTS, DIMS))
        return [
            Request(
                request_id=f"r{i:03d}",
                tenant="t",
                query=queries[i],
                k=10,
                arrival_ns=i * self.HORIZON / self.N_REQUESTS,
            )
            for i in range(self.N_REQUESTS)
        ]

    def plan(self):
        return FaultPlan.sustained(
            4, self.HORIZON, seed=3, stuck_shards=2, kill_shards=1
        )

    def serve(self, data, *, repair: bool):
        manager = build(
            data,
            plan=self.plan(),
            replication=2,
            spares=12,
            recovery=RecoveryPolicy(quarantine_probes=2),
        )
        ctrl = (
            RepairController(manager, RepairPolicy(scrub_period_ns=2e8))
            if repair
            else None
        )
        service = QueryService(manager, repair=ctrl)
        responses = service.run(self.requests())
        return responses, service

    def test_repair_controller_must_share_the_manager(self, data):
        manager = build(data, [])
        other = build(data, [])
        ctrl = RepairController(other)
        with pytest.raises(ServingError, match="share"):
            QueryService(manager, repair=ctrl)

    def test_healed_run_is_bit_identical_to_fault_free(self, data):
        responses, _ = self.serve(data, repair=True)
        clean = QueryService(ShardManager(data, 1))
        expected = clean.run(self.requests())
        assert len(responses) == len(expected)
        for got, want in zip(responses, expected):
            assert got.ok and want.ok
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.scores, want.scores)

    def test_repair_beats_failover_only_on_degraded_recompute(self, data):
        _, with_repair = self.serve(data, repair=True)
        _, baseline = self.serve(data, repair=False)
        healed = with_repair.tracker.degraded_chunks
        unhealed = baseline.tracker.degraded_chunks
        assert healed < unhealed

    def test_replicas_return_to_k_and_mttr_is_recorded(self, data):
        _, service = self.serve(data, repair=True)
        summary = service.summary()
        report = summary["repair"]
        assert report["replica_counts"] == [2] * service.manager.n_chunks
        assert report["rereplications"] >= 1
        assert report["remaps"] >= 1
        assert summary["mttr_ns"] > 0
        activity = summary["repair_activity"]
        assert activity.get("remap", 0) >= 1
        assert activity.get("rereplicate_done", 0) >= 1
        assert activity.get("quarantine", 0) >= 1

    def test_summary_always_carries_the_health_snapshot(self, data):
        manager = build(data, [])
        service = QueryService(manager)
        service.run(self.requests()[:4])
        summary = service.summary()
        statuses = [entry["status"] for entry in summary["health"]]
        assert statuses == ["up"] * 4
        assert all("open_until_ns" in entry for entry in summary["health"])
        assert "repair" not in summary  # only present with a controller

    def test_healing_runs_are_deterministic(self, data):
        first, svc_a = self.serve(data, repair=True)
        second, svc_b = self.serve(data, repair=True)
        for a, b in zip(first, second):
            assert a.completion_ns == b.completion_ns
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.scores, b.scores)
        ra, rb = svc_a.summary()["repair"], svc_b.summary()["repair"]
        for key in ("detections", "remaps", "rereplications", "busy_ns"):
            assert ra[key] == rb[key]
        assert ra["scrub"] == rb["scrub"]

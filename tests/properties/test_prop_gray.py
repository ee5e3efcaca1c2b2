"""Property-based tests: gray failures slow answers, never change them.

Two adversarial contracts from DESIGN.md section 14:

1. **Exactness for-all gray weather.** For any schedule of gray faults
   — sustained stragglers, intermittent slowdowns, bank-group
   stragglers, flaky host<->shard links — every answer a defended
   :class:`~repro.serving.ShardManager` (outlier ejection + adaptive
   hedging on) completes is bit-identical to a fault-free single-array
   run. The detector may eject, hedges may race and cancel, probes may
   visit the straggler: none of it is allowed to show up in a value.

2. **Probation hysteresis (flap-admit).** Driving the
   :class:`~repro.serving.ShardHealthTracker` directly with an
   arbitrary clean/slow probe sequence: the required clean streak
   doubles on every slow probe (capped at ``EJECTION_MAX_PROBES``),
   never decreases, re-admission happens exactly when a full streak of
   clean probes lands, and a later re-ejection keeps the escalated
   target — a flapping shard earns longer probation, never shorter.

Data comes from the same coarse grid as ``test_prop_faults`` so tied
distances make the canonical tie-break do real work while ejections
and hedges reshuffle which replica answers what. ``link_flaky`` is
only drawn at replication >= 2: a dropped dispatch needs a second
replica to keep the for-all completion guarantee honest (single-replica
drop handling is exercised in the unit tests).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultPlan
from repro.serving import RecoveryPolicy, ShardHealthTracker, ShardManager
from repro.serving import health
from repro.similarity.quantization import Quantizer
from test_prop_faults import assert_booked_consistently

#: Coarse value grid -> many exact duplicate coordinates and rows.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

HORIZON_NS = 1.5e7

#: Gray kinds only: every one perturbs timing, none can touch a value.
GRAY_KINDS = [
    "slow_shard",
    "intermittent_slow",
    "bankgroup_straggler",
    "link_flaky",
]


@st.composite
def gridded_data(draw, max_rows=18):
    n = draw(st.integers(min_value=4, max_value=max_rows))
    dims = draw(st.sampled_from([2, 4]))
    cells = st.sampled_from(GRID)
    data = np.array(
        draw(
            st.lists(
                st.lists(cells, min_size=dims, max_size=dims),
                min_size=n,
                max_size=n,
            )
        )
    )
    query = np.array(draw(st.lists(cells, min_size=dims, max_size=dims)))
    k = draw(st.integers(min_value=1, max_value=n))
    return data, query, k


@st.composite
def gray_case(draw):
    """A dataset, a replicated layout, and an arbitrary gray plan."""
    data, query, k = draw(gridded_data())
    n_shards = draw(st.integers(min_value=2, max_value=4))
    replication = draw(st.integers(min_value=1, max_value=n_shards))
    kinds = GRAY_KINDS if replication >= 2 else GRAY_KINDS[:-1]
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(kinds))
        shard = draw(st.integers(min_value=0, max_value=n_shards - 1))
        t_ns = draw(st.sampled_from([0.0, 0.2 * HORIZON_NS]))
        duration = draw(st.sampled_from([None, 0.6 * HORIZON_NS]))
        params = {}
        if kind in ("slow_shard", "bankgroup_straggler"):
            params["factor"] = draw(st.sampled_from([2.0, 12.0]))
        if kind == "intermittent_slow":
            params["factor"] = draw(st.sampled_from([4.0, 10.0]))
            params["period_ns"] = HORIZON_NS / 16.0
            params["duty"] = draw(st.sampled_from([0.25, 0.5, 0.75]))
        if kind == "link_flaky":
            params["drop_probability"] = draw(st.sampled_from([0.2, 0.5]))
            params["delay_probability"] = draw(st.sampled_from([0.0, 0.3]))
            params["delay_ns"] = 50_000.0
        events.append(
            FaultEvent(
                t_ns=t_ns,
                kind=kind,
                target=f"shard{shard}",
                duration_ns=duration,
                params=params,
            )
        )
    seed = draw(st.integers(min_value=0, max_value=5))
    return data, query, k, n_shards, replication, FaultPlan(events, seed)


def clean_manager(data):
    """The fault-free single-array reference over the same data."""
    return ShardManager(data, 1, quantizer=Quantizer(assume_normalized=True))


class TestGrayExactness:
    @settings(max_examples=20, deadline=None)
    @given(gray_case())
    def test_any_gray_plan_is_bit_exact_with_defenses_on(self, case):
        data, query, k, n_shards, replication, plan = case
        expected = clean_manager(data).knn(query, k)
        manager = ShardManager(
            data,
            n_shards,
            replication=replication,
            fault_plan=plan,
            recovery=RecoveryPolicy(
                outlier_ejection=True,
                adaptive_hedge=True,
                hedge_budget=0.5,
            ),
            quantizer=Quantizer(assume_normalized=True),
        )
        # serve the same query across the horizon so ejections, probes
        # and hedges all get a chance to fire mid-trace
        t = 0.0
        timings = []
        for _ in range(8):
            answers, timing = manager.knn_batch(
                np.atleast_2d(query), k, now_ns=t
            )
            assert np.array_equal(answers[0].indices, expected.indices)
            assert np.array_equal(answers[0].scores, expected.scores)
            timings.append(timing)
            t += timing.service_ns + HORIZON_NS / 9.0
        # hedge wins and losses book through the same path as waves, and
        # the device books every slowdown: busy time is what the
        # dispatches recorded, and on shards only slow kinds target the
        # device's pim time is the ledger's
        assert_booked_consistently(manager, timings)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(0, 5))
    def test_gray_chaos_generator_emits_only_gray_kinds(
        self, n_shards, seed
    ):
        plan = FaultPlan.gray_chaos(
            n_shards, HORIZON_NS, seed=seed, bankgroup_shards=1
        )
        kinds = {event["kind"] for event in plan.describe()}
        assert kinds <= set(GRAY_KINDS)


BASE_NS = 1_000.0
SLOW_NS = 20_000.0


def convicted_tracker():
    """A 2-shard tracker with shard0 freshly ejected as a straggler.

    shard1 supplies a stable peer baseline of ``BASE_NS`` so probe
    verdicts on shard0 are deterministic: ``BASE_NS`` is clean,
    ``SLOW_NS`` is slow (``READMIT_SLACK`` x baseline sits between them).
    """
    tracker = ShardHealthTracker(2, RecoveryPolicy(outlier_ejection=True))
    for i in range(health.DETECTOR_MIN_SAMPLES + 2):
        tracker.record_service_time(1, float(i), BASE_NS)
    t = 100.0
    for _ in range(200):
        if tracker._shards[0].ejected:
            break
        tracker.record_service_time(0, t, SLOW_NS)
        t += 1.0
    assert tracker._shards[0].ejected
    return tracker, t


class TestProbationHysteresis:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    def test_streak_doubles_on_slow_and_never_shrinks(self, probes):
        tracker, t = convicted_tracker()
        h = tracker._shards[0]
        assert h.eject_probe_target == health.EJECTION_PROBES
        assert h.eject_probes_left == health.EJECTION_PROBES
        # mirror the promised state machine step by step
        exp_target = health.EJECTION_PROBES
        exp_left = exp_target
        for clean in probes:
            if not h.ejected:
                break
            prev_target = h.eject_probe_target
            tracker.record_service_time(
                0, t, BASE_NS if clean else SLOW_NS
            )
            t += health.EJECTION_PROBE_PERIOD_NS
            if clean:
                exp_left -= 1
            else:
                exp_target = min(
                    exp_target * 2, health.EJECTION_MAX_PROBES
                )
                exp_left = exp_target
            assert h.eject_probe_target == exp_target
            assert h.eject_probe_target >= prev_target
            assert h.eject_probe_target <= health.EJECTION_MAX_PROBES
            if exp_left <= 0:
                # a full clean streak landed: re-admitted, and only now
                assert not h.ejected
            else:
                assert h.ejected
                assert h.eject_probes_left == exp_left

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_reejection_keeps_the_escalated_probation(self, n_slow):
        tracker, t = convicted_tracker()
        h = tracker._shards[0]
        for _ in range(n_slow):
            tracker.record_service_time(0, t, SLOW_NS)
            t += health.EJECTION_PROBE_PERIOD_NS
        escalated = h.eject_probe_target
        assert escalated == min(
            health.EJECTION_PROBES * 2**n_slow,
            health.EJECTION_MAX_PROBES,
        )
        # serve the full clean streak to earn re-admission
        for _ in range(h.eject_probes_left):
            tracker.record_service_time(0, t, BASE_NS)
            t += health.EJECTION_PROBE_PERIOD_NS
        assert not h.ejected
        # the sticky part: a later ejection restarts probation at the
        # escalated target, not the policy default
        tracker._eject(0, t_ns=t)
        assert h.eject_probe_target == escalated
        assert h.eject_probes_left == escalated

    def test_readmission_bumps_the_route_version(self):
        tracker, t = convicted_tracker()
        h = tracker._shards[0]
        version = tracker.version
        for _ in range(h.eject_probes_left):
            tracker.record_service_time(0, t, BASE_NS)
            t += health.EJECTION_PROBE_PERIOD_NS
        assert not h.ejected
        assert tracker.version == version + 1
        assert tracker.suspicion(0) == pytest.approx(0.0)

"""Property-based tests: recovery is exact under ARBITRARY fault plans.

The robustness contract, stated adversarially: for any schedule of
shard-level faults — crashes, hangs, stragglers, corrupted waves, dead
crossbars, in any combination, against any replication degree — every
answer a replicated :class:`~repro.serving.ShardManager` completes is
bit-identical to a fault-free single-array run. Failover, retried
waves, and even the host-side degraded recompute of a chunk whose
replicas all died must be invisible in the values — and visible in
the accounting: every attempt is charged to its shard's busy time
exactly as the dispatch records it.

Data comes from a small grid so duplicate rows (and tied distances) are
common — the canonical tie-break has to do real work while the fault
machinery reshuffles which shard refines what. Corruption magnitudes
are drawn odd, so the injected residue error is never ``0 mod 2**bits``
and detection is certain (the 1/M blind spot is exercised separately in
the unit tests).
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ChunkUnavailableError
from repro.faults import ARRAY_FAULT_KINDS, FaultEvent, FaultPlan
from repro.serving import RecoveryPolicy, ShardManager
from repro.similarity.quantization import Quantizer

#: Coarse value grid -> many exact duplicate coordinates and rows.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]

#: Shard-affecting fault kinds the recovery machinery must absorb.
#: ``stuck_cells`` is excluded on purpose: it is a persistent *value*
#: fault whose residue detection is probabilistic (the ABFT 1/M blind
#: spot), so it cannot carry a for-all exactness guarantee.
KINDS = [
    "shard_crash",
    "shard_hang",
    "slow_shard",
    "wave_corrupt",
    "latency_spike",
    "crossbar_dead",
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
def fault_case(draw):
    """A dataset, a sharded+replicated layout, and an arbitrary plan."""
    data, query, k = draw(gridded_data())
    n_shards = draw(st.integers(min_value=2, max_value=4))
    replication = draw(st.integers(min_value=1, max_value=n_shards))
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(KINDS))
        shard = draw(st.integers(min_value=0, max_value=n_shards - 1))
        t_ns = draw(st.sampled_from([0.0, 5_000.0, 1e5]))
        duration = draw(st.sampled_from([None, 50_000.0]))
        params = {}
        if kind in ("slow_shard", "latency_spike"):
            params["factor"] = draw(st.sampled_from([2.0, 8.0]))
        if kind == "wave_corrupt":
            params["probability"] = draw(st.sampled_from([0.5, 1.0]))
            params["magnitude"] = draw(
                st.sampled_from([3, 101, 1_000_003])
            )
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
    """The fault-free single-array reference over the same data.

    A degenerate all-equal grid dataset breaks min-max normalisation, so
    the quantizer is told the data is already normalised — every manager
    in a comparison shares the setting, keeping the equality honest.
    """
    return ShardManager(data, 1, quantizer=Quantizer(assume_normalized=True))


#: Kinds whose cost only the dispatch ledger books: a hang is charged
#: the watchdog's timeout, and a flaky link's delay is not device time.
LEDGER_ONLY_KINDS = ("shard_hang", "link_flaky")


def assert_booked_consistently(manager, timings):
    """Dispatch accounting agrees with itself and with the devices.

    Every attempt is booked once, so each shard's busy time equals the
    pim + cpu its dispatches recorded, and each dispatch's critical-path
    segments add back up to its ``service_ns``. ``timings`` must cover
    every dispatch the manager served. Every slowdown (latency spikes,
    bank-group stragglers, slow and intermittently slow shards),
    corruption and dead crossbars are booked by the device itself, so
    on a shard no ledger-only kind targets, the
    device's ``pim_time_ns`` equals the ledger's pim total plus the
    hedge-cancelled device time (these waves never reach the 50 ms
    watchdog).
    """
    plan = manager.fault_plan
    for s, shard in enumerate(manager.shards):
        booked = sum(
            t.per_shard_pim_ns[s] + t.per_shard_cpu_ns[s] for t in timings
        )
        assert shard.busy_ns == pytest.approx(booked, rel=1e-9, abs=1e-6)
        if plan is not None and any(
            plan.events_for(shard.name, kind) for kind in LEDGER_ONLY_KINDS
        ):
            continue
        ledger_pim = sum(t.per_shard_pim_ns[s] for t in timings)
        assert shard.pim_stats.pim_time_ns == pytest.approx(
            ledger_pim + shard.cancelled_pim_ns, rel=1e-9, abs=1e-6
        )
    for t in timings:
        path = t.critical_path()
        segments = sum(v for key, v in path.items() if key != "shard")
        assert segments == pytest.approx(t.service_ns, abs=1.0)


class TestExactRecovery:
    @settings(max_examples=20, deadline=None)
    @given(fault_case())
    @example(
        (
            np.array([[0.0, 0.25], [0.5, 0.75], [1.0, 0.0], [0.25, 0.5]]),
            np.array([0.5, 0.5]),
            2,
            2,
            2,
            FaultPlan(
                [FaultEvent(t_ns=0.0, kind="shard_hang", target="shard0")]
            ),
        )
    )
    def test_any_fault_plan_yields_bit_identical_topk(self, case):
        data, query, k, n_shards, replication, plan = case
        expected = clean_manager(data).knn(query, k)
        manager = ShardManager(
            data,
            n_shards,
            replication=replication,
            fault_plan=plan,
            quantizer=Quantizer(assume_normalized=True),
        )
        answers, timing = manager.knn_batch(np.atleast_2d(query), k)
        assert np.array_equal(answers[0].indices, expected.indices)
        assert np.array_equal(answers[0].scores, expected.scores)
        assert_booked_consistently(manager, [timing])

    @settings(max_examples=10, deadline=None)
    @given(gridded_data(max_rows=12), st.integers(0, 5))
    def test_assign_is_exact_under_total_crash(self, case, seed):
        data, query, _ = case
        centers = np.stack([query, data[0]])
        expected, _ = clean_manager(data).assign(centers)
        # every shard dead from t=0: every chunk takes the degraded path
        plan = FaultPlan(
            [
                FaultEvent(t_ns=0.0, kind="shard_crash", target=f"shard{s}")
                for s in range(3)
            ],
            seed=seed,
        )
        manager = ShardManager(
            data,
            3,
            fault_plan=plan,
            quantizer=Quantizer(assume_normalized=True),
        )
        answer, timing = manager.assign(centers)
        assert np.array_equal(answer.assignments, expected.assignments)
        assert np.array_equal(answer.distances, expected.distances)
        assert answer.degraded
        assert timing.degraded_chunks == manager.n_chunks


class TestDeviceTimeIsTheLedgersTime:
    @pytest.mark.parametrize("substrate", ["crossbar", "hbm_pim"])
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("latency_spike", {"factor": 10.0}),
            # every bank group straggles, so any bank placement is hit
            ("bankgroup_straggler", {"factor": 4.0, "groups": 64}),
            ("slow_shard", {"factor": 10.0}),
            # the default 1 ms period: all three batches in its slow phase
            ("intermittent_slow", {"factor": 10.0}),
        ],
    )
    def test_stretched_waves_are_booked_once(self, kind, params, substrate):
        data = np.random.default_rng(3).random((400, 32))
        queries = np.random.default_rng(4).random((12, 32))
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind=kind, target="shard1", params=params)]
        )

        def serve(fault_plan):
            manager = ShardManager(
                data, 2, fault_plan=fault_plan, substrates=substrate
            )
            timings = [
                manager.knn_batch(queries[i : i + 4], 5)[1]
                for i in range(0, 12, 4)
            ]
            return manager, timings

        # an empty plan keeps the checksum row, so only the stretch differs
        clean, _ = serve(FaultPlan([]))
        faulted, timings = serve(plan)
        if kind in ARRAY_FAULT_KINDS:
            assert faulted.shards[1].faulty.injected[kind] == 3
        assert_booked_consistently(faulted, timings)
        factor = params["factor"]
        assert faulted.shards[1].pim_stats.pim_time_ns == pytest.approx(
            factor * clean.shards[1].pim_stats.pim_time_ns, rel=1e-12
        )
        assert faulted.merged_stats().pim_time_ns == pytest.approx(
            sum(sum(t.per_shard_pim_ns) for t in timings), rel=1e-12
        )


class TestCorruptionIsNeverSilentlyUsed:
    @settings(max_examples=15, deadline=None)
    @given(
        gridded_data(),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=5),
    )
    def test_all_replicas_corrupt_degrades_but_stays_exact(
        self, case, n_shards, magnitude_half, seed
    ):
        data, query, k = case
        expected = clean_manager(data).knn(query, k)
        # every wave of every shard corrupted by an odd (always-detected)
        # offset: no replica can serve, so exactness must come from
        # detection + host-side recompute, never from a corrupted wave
        plan = FaultPlan(
            [
                FaultEvent(
                    t_ns=0.0,
                    kind="wave_corrupt",
                    target=f"shard{s}",
                    params={
                        "probability": 1.0,
                        "magnitude": 2 * magnitude_half + 1,
                    },
                )
                for s in range(n_shards)
            ],
            seed=seed,
        )
        manager = ShardManager(
            data,
            n_shards,
            fault_plan=plan,
            quantizer=Quantizer(assume_normalized=True),
        )
        assert manager.verify
        answers, timing = manager.knn_batch(np.atleast_2d(query), k)
        assert np.array_equal(answers[0].indices, expected.indices)
        assert np.array_equal(answers[0].scores, expected.scores)
        assert answers[0].degraded
        assert timing.corrupt_detected >= 1
        assert timing.degraded_chunks == manager.n_chunks


class TestNoLiveReplica:
    @settings(max_examples=10, deadline=None)
    @given(
        gridded_data(max_rows=10),
        st.integers(min_value=2, max_value=4),
    )
    def test_unservable_chunk_raises_when_degradation_disabled(
        self, case, n_shards
    ):
        data, query, k = case
        plan = FaultPlan(
            [
                FaultEvent(t_ns=0.0, kind="shard_crash", target=f"shard{s}")
                for s in range(n_shards)
            ]
        )
        manager = ShardManager(
            data,
            n_shards,
            replication=n_shards,
            fault_plan=plan,
            recovery=RecoveryPolicy(allow_degraded=False),
            quantizer=Quantizer(assume_normalized=True),
        )
        with pytest.raises(ChunkUnavailableError):
            manager.knn(query, k)


class TestRepairLoopStaysExact:
    """PR-5: healing between queries never changes an answer byte.

    The repair loop runs adversarially interleaved with queries: scrub
    probes fire, shards get declared dead, crossbars remap onto spares,
    chunks re-replicate — and every k-NN answer along the way (and after
    the final heal) must still be bit-identical to the fault-free
    single-array reference.
    """

    @settings(max_examples=15, deadline=None)
    @given(fault_case())
    def test_answers_with_repair_enabled_are_bit_identical(self, case):
        from repro.repair import RepairController, RepairPolicy

        data, query, k, n_shards, replication, plan = case
        expected = clean_manager(data).knn(query, k)
        manager = ShardManager(
            data,
            n_shards,
            replication=replication,
            fault_plan=plan,
            spare_crossbars=8,
            quantizer=Quantizer(assume_normalized=True),
        )
        ctrl = RepairController(
            manager, RepairPolicy(scrub_period_ns=50_000.0)
        )
        for start in (0.0, 1e5, 2e5, 1e6):
            ctrl.advance(start, start + 50_000.0)
            answer = manager.knn(query, k)
            assert np.array_equal(answer.indices, expected.indices)
            assert np.array_equal(answer.scores, expected.scores)
        ctrl.heal(2e6)
        answer = manager.knn(query, k)
        assert np.array_equal(answer.indices, expected.indices)
        assert np.array_equal(answer.scores, expected.scores)


class TestPlanSeedDeterminism:
    """PR-10: a seeded plan is a pure function of its arguments.

    The DR bench replays one plan against several fleets (naive vs
    spread vs restored) and attributes every answer difference to
    placement; that attribution is only sound if constructing the same
    plan twice yields the same timeline, event for event.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=8),
    )
    def test_chaos_is_deterministic_per_seed(self, seed, n_shards):
        a = FaultPlan.chaos(n_shards, 1e7, seed=seed, slow_shards=1)
        b = FaultPlan.chaos(n_shards, 1e7, seed=seed, slow_shards=1)
        assert a.describe() == b.describe()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=8),
    )
    def test_gray_chaos_is_deterministic_per_seed(self, seed, n_shards):
        a = FaultPlan.gray_chaos(n_shards, 1e7, seed=seed)
        b = FaultPlan.gray_chaos(n_shards, 1e7, seed=seed)
        assert a.describe() == b.describe()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=2),
    )
    def test_domain_outage_is_deterministic_per_seed(
        self, seed, outage_domains
    ):
        from repro.hardware import FailureDomainTopology

        topology = FailureDomainTopology(
            n_shards=8,
            shards_per_board=2,
            boards_per_channel=1,
            channels_per_power_domain=1,
        )
        a = FaultPlan.domain_outage(
            topology, 1e7, seed=seed,
            outage_domains=outage_domains, brownout_domains=1,
        )
        b = FaultPlan.domain_outage(
            topology, 1e7, seed=seed,
            outage_domains=outage_domains, brownout_domains=1,
        )
        assert a.describe() == b.describe()
        # different seeds must be able to pick different victims: the
        # timeline depends on the seed, not just the shape arguments
        alternates = {
            json.dumps(
                FaultPlan.domain_outage(
                    topology, 1e7, seed=s,
                    outage_domains=outage_domains,
                ).describe(),
                sort_keys=True,
            )
            for s in range(8)
        }
        assert len(alternates) > 1


class TestRereplicationCopiesExactBytes:
    """PR-5: a re-replicated chunk is byte-identical to its source."""

    @settings(max_examples=15, deadline=None)
    @given(
        gridded_data(max_rows=16),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=5),
    )
    def test_restored_replicas_equal_their_source(
        self, case, n_shards, seed
    ):
        from repro.repair import RepairController, RepairPolicy

        data, query, k = case
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind="shard_crash", target="shard0")],
            seed=seed,
        )
        replication = min(2, n_shards)
        manager = ShardManager(
            data,
            n_shards,
            replication=replication,
            fault_plan=plan,
            quantizer=Quantizer(assume_normalized=True),
        )
        ctrl = RepairController(
            manager, RepairPolicy(scrub_period_ns=10_000.0)
        )
        ctrl.advance(0.0, 1e6)
        ctrl.heal(1e6)
        alive = [
            s for s in range(n_shards) if manager.health.alive(s)
        ]
        target_k = min(replication, len(alive))
        for c, count in enumerate(manager.replica_counts()):
            assert count >= target_k
        for event in ctrl.drain_events():
            if event["kind"] != "rereplicate_done":
                continue
            source = manager.shards[event["source"]]
            target = manager.shards[event["target"]]
            sl_s = source.chunk_slices[event["chunk"]]
            sl_t = target.chunk_slices[event["chunk"]]
            assert np.array_equal(
                source.integers[sl_s], target.integers[sl_t]
            )
            assert np.array_equal(
                source.global_indices[sl_s],
                target.global_indices[sl_t],
            )
            assert np.array_equal(source.floats[sl_s], target.floats[sl_t])
            assert np.array_equal(source.phi[sl_s], target.phi[sl_t])
        expected = clean_manager(data).knn(query, k)
        answer = manager.knn(query, k)
        assert np.array_equal(answer.indices, expected.indices)
        assert np.array_equal(answer.scores, expected.scores)

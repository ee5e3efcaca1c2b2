"""Unit tests for the fault-injection layer: plans, injectors, integrity.

Everything here is deterministic — the plan's master seed pins every
injected fault, so each test asserts exact values, not distributions.
The serving-level recovery behaviour built on these primitives is
tested in ``tests/serving/test_faults.py``; this file pins down the
injection mechanics themselves.
"""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    CrossbarDeadError,
    EnduranceExceededError,
    OperandError,
)
from repro.faults import (
    DEFAULT_CORRUPT_MAGNITUDE,
    FaultEvent,
    FaultPlan,
    FaultyCrossbar,
    FaultyPIMArray,
    FaultyShardEngine,
    append_checksum_row,
    checksum_row,
    verify_wave_residues,
)
from repro.hardware.crossbar import Crossbar
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.pim_array import PIMArray, Substrate


@pytest.fixture
def matrix(rng):
    # values >= 1 so any stuck-at-0 cell strictly changes an all-ones dot
    return rng.integers(1, 256, size=(6, 8))


@pytest.fixture
def array(small_pim_platform, matrix):
    pim = PIMArray(small_pim_platform)
    pim.program_matrix("data", matrix)
    return pim


def plan_of(*events, seed=0):
    return FaultPlan(events, seed=seed)


class TestIntegrity:
    def test_checksum_row_is_column_sums_mod_modulus(self, matrix):
        row = checksum_row(matrix, 8)
        assert np.array_equal(row, matrix.sum(axis=0) % 256)
        # a valid operand: non-negative and narrower than the modulus
        assert row.min() >= 0 and row.max() < 256

    def test_append_adds_exactly_one_row(self, matrix):
        protected = append_checksum_row(matrix, 8)
        assert protected.shape == (matrix.shape[0] + 1, matrix.shape[1])
        assert np.array_equal(protected[:-1], matrix)

    def test_clean_wave_verifies(self, matrix, rng):
        protected = append_checksum_row(matrix, 8)
        queries = rng.integers(0, 256, size=(3, 8))
        dots = queries.astype(np.int64) @ protected.T
        assert verify_wave_residues(dots, 8).all()

    def test_default_corruption_is_always_detected(self, matrix, rng):
        protected = append_checksum_row(matrix, 8)
        query = rng.integers(0, 256, size=8)
        dots = (query.astype(np.int64) @ protected.T)[None, :]
        for col in range(dots.shape[1]):  # data columns AND the checksum
            bad = dots.copy()
            bad[0, col] += DEFAULT_CORRUPT_MAGNITUDE
            assert not verify_wave_residues(bad, 8)[0]

    def test_modulus_multiples_are_invisible_by_design(self, matrix, rng):
        # an error that cancels mod 2**bits is exactly the 1/M blind spot
        protected = append_checksum_row(matrix, 8)
        query = rng.integers(0, 256, size=8)
        dots = query.astype(np.int64) @ protected.T
        dots[0] += 7 * 256
        assert verify_wave_residues(dots, 8)

    def test_verify_handles_batched_shapes(self, matrix, rng):
        protected = append_checksum_row(matrix, 8)
        queries = rng.integers(0, 256, size=(4, 8))
        dots = queries.astype(np.int64) @ protected.T
        dots[2, 0] += 3
        clean = verify_wave_residues(dots, 8)
        assert clean.shape == (4,)
        assert clean.tolist() == [True, True, False, True]

    def test_rejects_bad_arguments(self, matrix):
        with pytest.raises(OperandError):
            checksum_row(matrix[0], 8)
        with pytest.raises(OperandError):
            checksum_row(matrix, 64)
        with pytest.raises(OperandError):
            verify_wave_residues(np.array([1]), 8)


class TestFaultyCrossbar:
    def test_zero_fraction_matches_pristine_crossbar(
        self, small_crossbar_config, rng
    ):
        matrix = rng.integers(0, 256, size=(2, 8))
        query = rng.integers(0, 256, size=8)
        clean = Crossbar(small_crossbar_config)
        clean.program(matrix, operand_bits=8)
        faulty = FaultyCrossbar(small_crossbar_config, stuck_fraction=0.0)
        faulty.program(matrix, operand_bits=8)
        assert faulty.stuck_cells == 0
        assert np.array_equal(
            faulty.dot_product(query).values, clean.dot_product(query).values
        )

    def test_fully_stuck_at_zero_reads_all_zero(
        self, small_crossbar_config, rng
    ):
        faulty = FaultyCrossbar(
            small_crossbar_config, stuck_fraction=1.0, stuck_to=0
        )
        faulty.program(rng.integers(1, 256, size=(2, 8)), operand_bits=8)
        values = faulty.dot_product(np.ones(8, dtype=np.int64)).values
        assert np.array_equal(values, np.zeros(2, dtype=values.dtype))

    def test_defect_map_is_seeded_and_survives_reprogramming(
        self, small_crossbar_config, rng
    ):
        matrix = rng.integers(1, 256, size=(2, 8))
        query = np.ones(8, dtype=np.int64)

        def readings(seed):
            xbar = FaultyCrossbar(
                small_crossbar_config, stuck_fraction=0.4, seed=seed
            )
            xbar.program(matrix, operand_bits=8)
            first = xbar.dot_product(query).values.copy()
            xbar.reset()
            xbar.program(matrix, operand_bits=8)  # defects re-apply
            second = xbar.dot_product(query).values.copy()
            return first, second, xbar.stuck_cells

        a1, a2, cells_a = readings(seed=1)
        b1, _, cells_b = readings(seed=1)
        assert np.array_equal(a1, a2)  # device property, not per-program
        assert np.array_equal(a1, b1) and cells_a == cells_b
        assert cells_a > 0

    def test_rejects_bad_parameters(self, small_crossbar_config):
        with pytest.raises(ValueError):
            FaultyCrossbar(small_crossbar_config, stuck_fraction=1.5)
        with pytest.raises(ValueError):
            FaultyCrossbar(small_crossbar_config, stuck_to=2)


class TestEnduranceFaultContext:
    def test_exceeding_endurance_carries_structured_context(self):
        tracker = EnduranceTracker(endurance=2)
        tracker.record_write(3)
        tracker.record_write(3)
        with pytest.raises(EnduranceExceededError) as excinfo:
            tracker.record_write(3)
        exc = excinfo.value
        assert exc.unit == 3
        assert exc.context["writes"] == 3
        assert exc.context["endurance"] == 2
        assert exc.reason == "endurance"


class TestFaultyPIMArray:
    def test_attaches_as_the_devices_fault_hook(self, array, matrix):
        faulty = FaultyPIMArray(array, plan_of())
        assert array._faults is faulty
        assert isinstance(array, Substrate)
        # the stuck-cells injector rebuilds corrupted rows from this copy
        assert np.array_equal(array.matrix_of("data"), matrix)
        assert array.matrix_of("data").dtype == np.int64

    def test_no_events_leaves_waves_unchanged(
        self, small_pim_platform, array, matrix, rng
    ):
        query = rng.integers(0, 256, size=8)
        clean = PIMArray(small_pim_platform)
        clean.program_matrix("data", matrix)
        faulty = FaultyPIMArray(array, plan_of())
        assert np.array_equal(
            array.query("data", query).values,
            clean.query("data", query).values,
        )
        assert faulty.injected == {}

    def test_fault_clock_is_monotone(self, array):
        faulty = FaultyPIMArray(array, plan_of())
        faulty.advance_to(100.0)
        faulty.advance_to(50.0)
        assert faulty.now_ns == 100.0

    def test_auto_advance_moves_the_clock_by_wave_latency(self, array, rng):
        query = rng.integers(0, 256, size=8)
        auto = FaultyPIMArray(array, plan_of(), auto_advance=True)
        result = array.query("data", query)
        assert auto.now_ns == result.timing.total_ns
        manual = FaultyPIMArray(array, plan_of(), auto_advance=False)
        array.query("data", query)
        assert manual.now_ns == 0.0

    @pytest.mark.parametrize("spike", [False, True])
    def test_auto_advance_covers_every_wave_of_a_train(
        self, array, rng, spike
    ):
        # a train of n waves books n waves of time, so the clock moves n
        queries = rng.integers(0, 256, size=(3, 8))
        events = (
            [FaultEvent(t_ns=0.0, kind="latency_spike", target="array")]
            if spike else []
        )
        auto = FaultyPIMArray(array, plan_of(*events), auto_advance=True)
        result = array.query_many("data", queries)
        assert auto.now_ns == array.stats.pim_time_ns
        assert auto.now_ns == result.timing.total_ns * 3
        array.query_batch("data", queries)
        assert auto.now_ns == array.stats.pim_time_ns

    def test_dead_crossbar_raises_with_context_once_active(self, array, rng):
        query = rng.integers(0, 256, size=8)
        plan = plan_of(
            FaultEvent(t_ns=1000.0, kind="crossbar_dead", target="array")
        )
        faulty = FaultyPIMArray(array, plan, auto_advance=False)
        array.query("data", query)  # before the fault: fine
        faulty.advance_to(1000.0)
        waves = array.stats.waves
        with pytest.raises(CrossbarDeadError) as excinfo:
            array.query("data", query)
        exc = excinfo.value
        assert exc.unit == "array"
        assert exc.timestamp_ns == 1000.0
        assert exc.context["fault_t_ns"] == 1000.0
        assert faulty.injected["crossbar_dead"] == 1
        assert array.stats.waves == waves  # refused before it ran

    def test_corruption_flips_the_residue_check(
        self, array, matrix, rng
    ):
        array.program_matrix("prot", append_checksum_row(matrix, 8))
        queries = rng.integers(0, 256, size=(3, 8))
        clean = array.query_many("prot", queries).values
        assert verify_wave_residues(clean, 8).all()
        plan = plan_of(
            FaultEvent(t_ns=0.0, kind="wave_corrupt", target="array")
        )
        faulty = FaultyPIMArray(array, plan, auto_advance=False)
        bad = array.query_many("prot", queries).values
        # default probability 1.0: every wave row corrupted and detected
        assert not verify_wave_residues(bad, 8).any()
        assert faulty.injected["wave_corrupt"] == 3
        # exactly one value per row moved, by the default prime offset
        diff = bad.astype(np.int64) - clean.astype(np.int64)
        assert np.count_nonzero(diff) == 3
        assert set(np.unique(diff)) == {0, DEFAULT_CORRUPT_MAGNITUDE}

    def test_corruption_respects_its_time_window(self, array, rng):
        query = rng.integers(0, 256, size=8)
        clean = array.query("data", query).values
        plan = plan_of(
            FaultEvent(
                t_ns=1000.0,
                kind="wave_corrupt",
                target="array",
                duration_ns=1000.0,
            )
        )
        faulty = FaultyPIMArray(array, plan, auto_advance=False)
        assert np.array_equal(array.query("data", query).values, clean)
        faulty.advance_to(1500.0)
        assert not np.array_equal(array.query("data", query).values, clean)
        faulty.advance_to(2000.0)  # window is half-open: [t, t+duration)
        assert np.array_equal(array.query("data", query).values, clean)

    def test_zero_probability_corruption_never_fires(self, array, rng):
        query = rng.integers(0, 256, size=8)
        clean = array.query("data", query).values
        plan = plan_of(
            FaultEvent(
                t_ns=0.0,
                kind="wave_corrupt",
                target="array",
                params={"probability": 0.0},
            )
        )
        faulty = FaultyPIMArray(array, plan, auto_advance=False)
        assert np.array_equal(array.query("data", query).values, clean)
        assert "wave_corrupt" not in faulty.injected

    def test_latency_spike_stretches_timing_not_values(self, array, rng):
        queries = rng.integers(0, 256, size=(3, 8))
        clean = array.query_batch("data", queries)
        plan = plan_of(
            FaultEvent(
                t_ns=0.0,
                kind="latency_spike",
                target="array",
                params={"factor": 4.0},
            )
        )
        FaultyPIMArray(array, plan, auto_advance=False)
        result = array.query_batch("data", queries)
        assert np.array_equal(result.values, clean.values)
        assert result.timing.total_ns == pytest.approx(
            4.0 * clean.timing.total_ns
        )
        assert result.timing.amortized_ns_per_query == pytest.approx(
            4.0 * clean.timing.amortized_ns_per_query
        )

    @pytest.mark.parametrize("method", ["query", "query_many", "query_batch"])
    def test_device_books_the_stretched_wave(self, array, rng, method):
        """Stats, the matrix state and the returned timing agree."""
        queries = rng.integers(0, 256, size=(3, 8))
        operand = queries[0] if method == "query" else queries
        clean = getattr(array, method)("data", operand).timing
        plan = plan_of(
            FaultEvent(
                t_ns=0.0,
                kind="latency_spike",
                target="array",
                params={"factor": 3.0},
            )
        )
        FaultyPIMArray(array, plan, auto_advance=False)
        before = array.stats.pim_time_ns
        timing = getattr(array, method)("data", operand).timing
        waves = 3 if method == "query_many" else 1
        booked = array.stats.pim_time_ns - before
        assert timing.stretch == 3.0
        assert timing.total_ns == clean.total_ns * 3.0
        assert booked == pytest.approx(timing.total_ns * waves, rel=1e-12)
        assert array.stats.matrix_state("data").pim_time_ns == (
            pytest.approx(array.stats.pim_time_ns, rel=1e-12)
        )

    def test_slow_factors_multiply(self, array, rng):
        """Two sustained slowdowns of the target book one 6x wave."""
        queries = rng.integers(0, 256, size=(3, 8))
        clean = array.query_batch("data", queries).timing.total_ns
        plan = plan_of(
            *(
                FaultEvent(
                    t_ns=0.0,
                    kind="slow_shard",
                    target="shard1",
                    params={"factor": factor},
                )
                for factor in (2.0, 3.0)
            )
        )
        FaultyPIMArray(array, plan, "shard1", auto_advance=False)
        before = array.stats.pim_time_ns
        timing = array.query_batch("data", queries).timing
        assert timing.stretch == 6.0
        assert timing.total_ns == clean * 6.0
        assert array.stats.pim_time_ns - before == timing.total_ns

    def test_intermittent_slow_stretches_only_its_slow_phase(
        self, array, rng
    ):
        queries = rng.integers(0, 256, size=(3, 8))
        clean = array.query_batch("data", queries).timing.total_ns
        plan = plan_of(
            FaultEvent(
                t_ns=100.0,
                kind="intermittent_slow",
                target="shard0",
                params={"factor": 5.0, "period_ns": 1_000.0, "duty": 0.25},
            )
        )
        faulty = FaultyPIMArray(array, plan, "shard0", auto_advance=False)
        for t_ns, stretch in [(50.0, 1.0), (100.0, 5.0), (349.0, 5.0),
                              (350.0, 1.0), (1_200.0, 5.0)]:
            faulty.advance_to(t_ns)
            timing = array.query_batch("data", queries).timing
            assert timing.total_ns == clean * stretch

    def test_stuck_cells_are_deterministic_and_change_values(
        self, array, rng
    ):
        query = np.ones(8, dtype=np.int64)
        clean = array.query("data", query).values
        event = FaultEvent(
            t_ns=0.0,
            kind="stuck_cells",
            target="array",
            params={"fraction": 0.2, "stuck_to": 0, "matrix": "data"},
        )
        first = FaultyPIMArray(array, plan_of(event), auto_advance=False)
        a = array.query("data", query).values
        FaultyPIMArray(array, plan_of(event), auto_advance=False)
        b = array.query("data", query).values
        assert np.array_equal(a, b)  # seeded from the plan, not the hook
        # stuck-at-0 on values >= 1 can only lower an all-ones dot
        assert (a <= clean).all() and (a < clean).any()
        assert first.injected["stuck_cells"] == 1


class TestFaultyShardEngine:
    def test_crash_dominates_hang_dominates_slow(self):
        plan = plan_of(
            FaultEvent(t_ns=100.0, kind="shard_crash", target="shard0"),
            FaultEvent(t_ns=0.0, kind="shard_hang", target="shard0"),
            FaultEvent(
                t_ns=0.0,
                kind="slow_shard",
                target="shard0",
                params={"factor": 2.0},
            ),
        )
        engine = FaultyShardEngine(plan, "shard0")
        assert engine.outcome(50.0).status == "hang"
        verdict = engine.outcome(150.0)
        assert verdict.status == "crash" and not verdict.ok
        assert engine.crash_time() == 100.0

    def test_healthy_shard_is_ok(self):
        engine = FaultyShardEngine(plan_of(), "shard0")
        verdict = engine.outcome(0.0)
        assert verdict.ok and verdict.delay_ns == 0.0
        assert engine.crash_time() is None


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t_ns=0.0, kind="gremlins", target="shard0")
        with pytest.raises(ConfigurationError):
            FaultEvent(t_ns=-1.0, kind="shard_crash", target="shard0")
        with pytest.raises(ConfigurationError):
            FaultEvent(
                t_ns=0.0,
                kind="shard_crash",
                target="shard0",
                duration_ns=0.0,
            )

    def test_active_window_semantics(self):
        permanent = FaultEvent(t_ns=10.0, kind="shard_crash", target="s")
        assert not permanent.active_at(9.0)
        assert permanent.active_at(10.0) and permanent.active_at(1e12)
        transient = FaultEvent(
            t_ns=10.0, kind="shard_hang", target="s", duration_ns=5.0
        )
        assert transient.active_at(10.0) and transient.active_at(14.9)
        assert not transient.active_at(15.0)

    def test_plan_sorts_filters_and_lists_targets(self):
        late = FaultEvent(t_ns=50.0, kind="shard_crash", target="shard1")
        early = FaultEvent(t_ns=5.0, kind="shard_hang", target="shard0")
        plan = FaultPlan([late, early])
        assert [e.t_ns for e in plan] == [5.0, 50.0]
        assert plan.events_for("shard1") == (late,)
        assert plan.events_for("shard1", "shard_hang") == ()
        assert plan.active("shard0", "shard_hang", 6.0) == (early,)
        assert plan.targets() == ("shard0", "shard1")
        assert len(plan) == 2

    def test_rng_streams_are_keyed_and_reproducible(self):
        a = FaultPlan(seed=7).rng_for("shard0", "x").random(4)
        b = FaultPlan(seed=7).rng_for("shard0", "x").random(4)
        c = FaultPlan(seed=7).rng_for("shard0", "y").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_chaos_victims_are_distinct_and_timed(self):
        plan = FaultPlan.chaos(4, 1e9, seed=3, slow_shards=1)
        kinds = {e.kind: e for e in plan}
        assert set(kinds) == {"shard_crash", "wave_corrupt", "slow_shard"}
        assert len({e.target for e in plan}) == 3  # distinct victims
        kill = kinds["shard_crash"]
        assert 0.25e9 <= kill.t_ns <= 0.75e9  # middle half of the run
        corrupt = kinds["wave_corrupt"]
        assert corrupt.t_ns == 0.0 and corrupt.duration_ns == 1e9
        assert corrupt.params["probability"] == 0.15

    def test_chaos_is_seed_deterministic_and_json_clean(self):
        # np.float64 horizons (e.g. derived from GatherTiming) must not
        # leak numpy scalars into the JSON-facing describe() records
        a = FaultPlan.chaos(4, np.float64(1e9), seed=5)
        b = FaultPlan.chaos(4, 1e9, seed=5)
        assert a.describe() == b.describe()
        for record in a.describe():
            assert type(record["t_ns"]) is float

    def test_chaos_caps_victims_at_shard_count(self):
        plan = FaultPlan.chaos(1, 1e9, seed=0)
        assert len(plan) == 1
        assert plan.events[0].kind == "shard_crash"

    def test_chaos_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.chaos(0, 1e9)
        with pytest.raises(ConfigurationError):
            FaultPlan.chaos(2, 0.0)

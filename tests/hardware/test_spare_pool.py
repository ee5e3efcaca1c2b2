"""Unit tests for the spare-unit pool and wear accounting.

The repair layer's hardware substrate: every device withholds a spare
pool from data placement, remaps a flagged unit (crossbar or bank) onto
the least-worn spare (charging real reprogramming latency and one
endurance write), retires the old id forever, and reports wear through
the shared ``wear_report`` helper. Values must be unchanged by a remap —
only the physical placement moves. The pool lives in the shared
``Substrate`` base, so one contract runs on both built-in backends.
"""

import numpy as np
import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    EnduranceExceededError,
    ProgrammingError,
)
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.mapper import reserve_spares
from repro.hardware.pim_array import PIMArray
from repro.substrate import create_substrate


class TestReserveSpares:
    def test_returns_the_usable_pool(self, small_pim_platform):
        config = small_pim_platform.pim
        assert reserve_spares(config, 0) == config.num_crossbars
        assert reserve_spares(config, 3) == config.num_crossbars - 3

    def test_negative_reservation_rejected(self, small_pim_platform):
        with pytest.raises(ConfigurationError):
            reserve_spares(small_pim_platform.pim, -1)

    def test_reservation_must_leave_data_room(self, small_pim_platform):
        config = small_pim_platform.pim
        with pytest.raises(CapacityError):
            reserve_spares(config, config.num_crossbars)

    def test_array_capacity_shrinks_by_the_reservation(self):
        plain = PIMArray()
        spared = PIMArray(spare_crossbars=4)
        assert spared.data_capacity == plain.data_capacity - 4
        assert spared.spares_remaining == 4


class _SparePoolContract:
    """The spare-pool contract, run once per backend (``substrate``)."""

    substrate = ""

    @pytest.fixture
    def array(self, rng):
        """A default-platform device with a 4-unit spare pool."""
        a = create_substrate(self.substrate, spare_units=4)
        a.program_matrix("data", rng.integers(0, 256, size=(40, 32)))
        return a

    def test_spares_take_the_first_physical_ids(self, array):
        # spare ids 0..3 are withheld; data placement starts above them
        assert all(xid >= 4 for xid in array.unit_ids_of("data"))

    def test_remap_moves_one_id_onto_a_spare(self, array):
        old = array.unit_ids_of("data")[0]
        spare, ns = array.remap_crossbar(old)
        assert spare < 4  # came from the pool
        assert ns > 0
        assert array.spares_remaining == 3
        assert array.remap_table == {old: spare}
        ids = array.unit_ids_of("data")
        assert old not in ids
        assert spare in ids

    def test_remap_preserves_query_values(self, array, rng):
        query = rng.integers(0, 256, size=32)
        before = array.query("data", query).values
        old = array.unit_ids_of("data")[0]
        array.remap_crossbar(old)
        after = array.query("data", query).values
        assert np.array_equal(before, after)

    def test_remap_picks_the_least_worn_spare(self, array):
        # pre-wear spares 0 and 1: the tie-broken least-worn is spare 2
        array.endurance.record_write(0)
        array.endurance.record_write(1)
        spare, _ = array.remap_crossbar(array.unit_ids_of("data")[0])
        assert spare == 2

    def test_wear_tie_breaks_on_the_lowest_id(self, array):
        spare, _ = array.remap_crossbar(array.unit_ids_of("data")[0])
        assert spare == 0  # all spares untouched -> lowest id wins

    def test_remap_charges_the_spare_one_write(self, array):
        spare, _ = array.remap_crossbar(array.unit_ids_of("data")[0])
        assert array.endurance.write_count(spare) == 1

    def test_retired_ids_never_come_back(self, array, rng):
        old = array.unit_ids_of("data")[0]
        array.remap_crossbar(old)
        array.reset_matrix("data")
        layout = array.program_matrix(
            "data2", rng.integers(0, 256, size=(40, 32))
        )
        assert layout.n_crossbars >= 1
        assert old not in array.unit_ids_of("data2")

    def test_pool_exhaustion_raises_capacity_error(self, rng):
        array = create_substrate(self.substrate, spare_units=1)
        array.program_matrix("m", rng.integers(0, 256, size=(40, 32)))
        ids = array.unit_ids_of("m")
        array.remap_crossbar(ids[0])
        with pytest.raises(CapacityError):
            array.remap_crossbar(ids[1])

    def test_unowned_crossbar_rejected(self, array):
        with pytest.raises(ProgrammingError, match="backs no programmed"):
            array.remap_crossbar(999_999)

    def test_remap_accumulates_stats(self, array):
        before = array.stats.programming_time_ns
        _, ns = array.remap_crossbar(array.unit_ids_of("data")[0])
        assert array.stats.remaps == 1
        assert array.stats.programming_time_ns == pytest.approx(before + ns)

    def test_remap_crossbars_batches_and_sums(self, array):
        ids = array.unit_ids_of("data")[:2]
        spares, total = array.remap_crossbars(ids)
        assert len(spares) == 2
        assert len(set(spares)) == 2  # distinct spares
        assert total > 0
        assert array.spares_remaining == 2


class TestSparePool(_SparePoolContract):
    substrate = "crossbar"

    def test_remap_latency_matches_the_reprogramming_model(self, array):
        layout = array.layouts()["data"]
        _, ns = array.remap_crossbar(array.unit_ids_of("data")[0])
        assert ns == array.model.remap_ns(layout)
        assert ns == pytest.approx(
            array.model.program_ns(layout) / layout.n_crossbars
        )


class TestHBMSparePool(_SparePoolContract):
    substrate = "hbm_pim"


class TestEnduranceTerminalWrite:
    """The terminal write is recorded *before* the exception is raised."""

    def test_terminal_write_is_not_lost(self):
        tracker = EnduranceTracker(endurance=1)
        tracker.record_write(7)
        with pytest.raises(EnduranceExceededError):
            tracker.record_write(7)
        # the write physically happened: the count must show it
        assert tracker.write_count(7) == 2
        assert tracker.wear_fraction(7) == 2.0

    def test_repeated_calls_keep_advancing_the_count(self):
        tracker = EnduranceTracker(endurance=1)
        tracker.record_write(3)
        for expected in (2, 3, 4):
            with pytest.raises(EnduranceExceededError) as excinfo:
                tracker.record_write(3)
            assert tracker.write_count(3) == expected
            assert excinfo.value.context["writes"] == expected

    def test_exception_carries_structured_context(self):
        tracker = EnduranceTracker(endurance=2)
        tracker.record_write(5, count=2)
        with pytest.raises(EnduranceExceededError) as excinfo:
            tracker.record_write(5)
        assert excinfo.value.unit == 5
        assert excinfo.value.context["endurance"] == 2


class TestWearReport:
    def test_report_shape_and_aggregates(self):
        tracker = EnduranceTracker(endurance=10)
        tracker.record_write(0, count=3)
        tracker.record_write(1, count=5)
        report = tracker.wear_report()
        assert report["endurance"] == 10
        assert report["units_tracked"] == 2
        assert report["total_writes"] == 8
        assert report["max_writes"] == 5
        assert report["max_wear_fraction"] == pytest.approx(0.5)

    def test_hottest_is_sorted_and_tie_broken_by_id(self):
        tracker = EnduranceTracker(endurance=10)
        tracker.record_write(4, count=2)
        tracker.record_write(1, count=2)
        tracker.record_write(9, count=7)
        hottest = tracker.wear_report()["hottest"]
        assert [entry["unit"] for entry in hottest] == [9, 1, 4]
        assert hottest[0]["wear_fraction"] == pytest.approx(0.7)

    def test_top_limits_the_listing(self):
        tracker = EnduranceTracker(endurance=10)
        for unit in range(5):
            tracker.record_write(unit)
        report = tracker.wear_report(top=2)
        assert len(report["hottest"]) == 2
        assert report["units_tracked"] == 5  # aggregates stay global

    def test_zero_endurance_reports_zero_fractions(self):
        tracker = EnduranceTracker(endurance=0)
        assert tracker.wear_report()["max_wear_fraction"] == 0.0

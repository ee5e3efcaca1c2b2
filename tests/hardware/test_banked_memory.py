"""Unit tests for the HBM-PIM bank-level structural + timing model.

The timing goldens below are hand-derived from the per-command DRAM
model (tCK / tCCD / tRCD / tRP, MOV/FILL/write-burst cycles) so a
regression in the formulae fails against independent arithmetic, not
against a recorded snapshot of the same code.
"""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.banked_memory import (
    bank_batch_timing,
    bank_instruction_counts,
    bank_program_ns,
    plan_bank_layout,
)
from repro.hardware.config import HBMPIMConfig, hbm_pim_platform
from repro.oracle import bank_dot_loop


CFG = HBMPIMConfig()
HW = hbm_pim_platform()


class TestLayoutPlanning:
    def test_default_config_geometry(self):
        assert CFG.total_banks == 64
        assert CFG.burst_elems(32) == 8
        assert CFG.burst_elems(1) == 256

    def test_block_distribution_golden(self):
        # 128 vectors x 16 dims at 32-bit: 2 bursts/vector, 2 per bank
        layout = plan_bank_layout(128, 16, CFG)
        assert layout.n_data_banks == 64
        assert layout.vectors_per_bank == 2
        assert layout.bursts_per_vector == 2
        assert layout.grf_segments == 1
        assert layout.rows_touched_per_bank == 1

    def test_fewer_vectors_than_banks(self):
        layout = plan_bank_layout(5, 16, CFG)
        assert layout.n_data_banks == 5
        assert layout.vectors_per_bank == 1

    def test_grf_pressure_segments_long_queries(self):
        # 100 bursts vs an 8-entry GRF -> 13 streaming segments
        layout = plan_bank_layout(64, 800, CFG)
        assert layout.bursts_per_vector == 100
        assert layout.grf_segments == 13

    def test_crossbar_layout_compat_surface(self):
        layout = plan_bank_layout(128, 16, CFG)
        assert layout.vectors_per_crossbar == layout.vectors_per_bank
        assert layout.n_data_crossbars == layout.n_data_banks
        assert layout.n_gather_crossbars == 0
        assert layout.gather_levels == 1
        assert layout.n_crossbars == layout.n_data_banks
        assert layout.storage_bits == 128 * 16 * 32

    def test_capacity_error_past_bank_bytes(self):
        # one bank, so the whole matrix lands in it
        with pytest.raises(CapacityError):
            plan_bank_layout(
                CFG.bank_bytes // 64 + 1, 128, CFG, data_banks=1
            )

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ConfigurationError):
            plan_bank_layout(0, 16, CFG)
        with pytest.raises(CapacityError):
            plan_bank_layout(4, 16, CFG, data_banks=0)


class TestTimingGoldens:
    """Hand-computed cycle counts for the 128 x 16 golden layout."""

    # activate: 1 row * 1 segment * (tRP 14 + tRCD 14)          = 28
    # broadcast: 2 bursts * 2 MOV cycles                         =  4
    # MAC: 2 vectors * 2 bursts * tCCD 2                         =  8
    # drain: 2 vectors * (FILL 1 + MOV 2)                        =  6
    ACTIVATE = 28
    PER_QUERY = 4 + 8 + 6

    def test_single_wave_cycles(self):
        layout = plan_bank_layout(128, 16, CFG)
        wave = bank_batch_timing(layout, CFG, HW, n_queries=1)
        assert wave.setup_cycles == self.ACTIVATE
        assert wave.per_query_cycles == self.PER_QUERY
        assert wave.total_cycles == self.ACTIVATE + self.PER_QUERY
        assert wave.crossbar_ns == pytest.approx(
            (self.ACTIVATE + self.PER_QUERY) * CFG.tck_ns
        )
        result_bytes = 128 * CFG.accumulator_bits / 8.0
        assert wave.buffer_ns == pytest.approx(
            result_bytes / HW.memory.internal_bus_gbs
        )

    def test_batch_charges_activates_once(self):
        layout = plan_bank_layout(128, 16, CFG)
        batch = bank_batch_timing(layout, CFG, HW, n_queries=4)
        assert batch.setup_cycles == self.ACTIVATE
        assert batch.per_query_cycles == self.PER_QUERY
        assert batch.total_cycles == self.ACTIVATE + 4 * self.PER_QUERY
        single = bank_batch_timing(layout, CFG, HW, n_queries=1)
        saved = 4 * single.total_ns - batch.total_ns
        assert saved == pytest.approx(3 * self.ACTIVATE * CFG.tck_ns)

    def test_batch_needs_a_query(self):
        layout = plan_bank_layout(128, 16, CFG)
        with pytest.raises(ConfigurationError):
            bank_batch_timing(layout, CFG, HW, n_queries=0)

    def test_grf_segments_reactivate_rows(self):
        # 800 dims: 100 bursts, 13 segments; rows re-open per segment
        layout = plan_bank_layout(64, 800, CFG)
        rows = layout.rows_touched_per_bank
        wave = bank_batch_timing(layout, CFG, HW, n_queries=1)
        assert wave.setup_cycles == rows * 13 * (
            CFG.trp_cycles + CFG.trcd_cycles
        )

    def test_program_time_golden(self):
        layout = plan_bank_layout(128, 16, CFG)
        # 1 row activate (28) + 2 vectors * 2 bursts * 4 write cycles
        assert bank_program_ns(layout, CFG) == pytest.approx(
            (28 + 16) * CFG.tck_ns
        )


class TestInstructionCounts:
    def test_golden_mix(self):
        layout = plan_bank_layout(128, 16, CFG)
        counts = bank_instruction_counts(layout, n_queries=3)
        assert counts == {
            "mac_commands": 3 * 2 * 2,
            "mov_commands": 3 * (2 + 2),
            "fill_commands": 3 * 2,
            "row_activations": 1,
        }

    def test_counts_scale_linearly_except_activations(self):
        layout = plan_bank_layout(200, 48, CFG)
        one = bank_instruction_counts(layout, 1)
        five = bank_instruction_counts(layout, 5)
        for key in ("mac_commands", "mov_commands", "fill_commands"):
            assert five[key] == 5 * one[key]
        assert five["row_activations"] == one["row_activations"]


class TestBankedMatrixStore:
    """The instruction-stream oracle matches one exact int64 matmul."""

    @pytest.mark.parametrize(
        "n,dims", [(3, 4), (64, 16), (130, 23), (64, 100)]
    )
    def test_reference_equals_matmul(self, n, dims):
        rng = np.random.default_rng(n * 31 + dims)
        matrix = rng.integers(0, 255, size=(n, dims)).astype(np.int64)
        queries = rng.integers(0, 255, size=(5, dims)).astype(np.int64)
        layout = plan_bank_layout(n, dims, CFG)
        got = bank_dot_loop(matrix, layout, CFG, queries)
        want = queries @ matrix.T
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_reference_wraps_in_int64_like_hardware(self):
        matrix = np.full((2, 3), 2**31 - 1, dtype=np.int64)
        queries = np.full((1, 3), 2**31 - 1, dtype=np.int64)
        layout = plan_bank_layout(2, 3, CFG)
        with np.errstate(over="ignore"):
            want = queries @ matrix.T  # wraps mod 2**64
        got = bank_dot_loop(matrix, layout, CFG, queries)
        assert np.array_equal(got, want)

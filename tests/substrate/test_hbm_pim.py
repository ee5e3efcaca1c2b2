"""HBM-PIM device behaviour: exactness, capacity, repair, stats."""

import numpy as np
import pytest

from repro.errors import (
    CapacityError,
    ConfigurationError,
    OperandError,
    ProgrammingError,
)
from repro.hardware import bitslice
from repro.hardware.pim_array import PIMArray, PIMStats
from repro.oracle import LoopHBMPIMArray
from repro.substrate.hbm_pim import HBMPIMArray


def _matrix(n, dims, seed=0, high=255):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(n, dims)).astype(np.int64)


class TestExactness:
    def test_query_matches_crossbar_bit_for_bit(self):
        matrix = _matrix(500, 40)
        queries = _matrix(6, 40, seed=1)
        hbm = HBMPIMArray()
        xbar = PIMArray()
        hbm.program_matrix("m", matrix)
        xbar.program_matrix("m", matrix)
        for q in queries:
            assert np.array_equal(
                hbm.query("m", q).values, xbar.query("m", q).values
            )
        assert np.array_equal(
            hbm.query_batch("m", queries).values,
            xbar.query_batch("m", queries).values,
        )

    def test_fast_path_matches_instruction_stream_oracle(self):
        matrix = _matrix(130, 23)
        queries = _matrix(4, 23, seed=2)
        fast = HBMPIMArray()
        oracle = LoopHBMPIMArray()
        fast.program_matrix("m", matrix)
        oracle.program_matrix("m", matrix)
        assert np.array_equal(
            fast.query_batch("m", queries).values,
            oracle.query_batch("m", queries).values,
        )

    def test_accumulator_truncation_applies(self):
        hbm = HBMPIMArray()
        matrix = np.full((2, 8), 255, dtype=np.int64)
        hbm.program_matrix("m", matrix)
        q = np.full(8, 255, dtype=np.int64)
        raw = q @ matrix.T
        want = bitslice.truncate_result(raw, hbm.config.accumulator_bits)
        assert np.array_equal(hbm.query("m", q).values, want)

    def test_operand_validation(self):
        hbm = HBMPIMArray()
        with pytest.raises(OperandError):
            hbm.program_matrix("m", -_matrix(4, 4) - 1)
        hbm.program_matrix("m", _matrix(4, 4))
        with pytest.raises(OperandError):
            hbm.query("m", _matrix(1, 5)[0])  # wrong dims
        with pytest.raises(ProgrammingError):
            hbm.query("ghost", _matrix(1, 4)[0])


class TestCapacityAndPlacement:
    def test_shared_banks_host_multiple_matrices(self):
        """Hamming needs codes + complement resident simultaneously."""
        hbm = HBMPIMArray()
        hbm.program_matrix("codes", _matrix(200, 32))
        hbm.program_matrix("complement", _matrix(200, 32, seed=1))
        assert set(hbm.layouts()) == {"codes", "complement"}

    def test_duplicate_name_rejected_until_reset(self):
        hbm = HBMPIMArray()
        hbm.program_matrix("m", _matrix(10, 8))
        with pytest.raises(ProgrammingError):
            hbm.program_matrix("m", _matrix(10, 8))
        hbm.reset_matrix("m")
        hbm.program_matrix("m", _matrix(10, 8))

    def test_reset_frees_bank_bytes(self):
        hbm = HBMPIMArray()
        hbm.program_matrix("m", _matrix(64, 16))
        used = dict(hbm._bank_bytes_used)
        assert any(v > 0 for v in used.values())
        hbm.reset_matrix("m")
        assert all(v == 0 for v in hbm._bank_bytes_used.values())

    def test_fits_matrix_exclude_models_reprogram(self):
        hbm = HBMPIMArray()
        big = hbm.config.bank_bytes // hbm.config.burst_bytes // 2
        hbm.program_matrix("m", _matrix(64, 8, high=2))
        assert hbm.fits_matrix(64, 8)
        assert hbm.fits_matrix(64, 8, exclude="m")
        assert not hbm.fits_matrix(big * 64 * 4, 8)

    def test_capacity_error_message_names_banks(self):
        hbm = HBMPIMArray(spare_banks=63)  # one data bank left
        rows = hbm.config.bank_bytes // hbm.config.burst_bytes + 1
        with pytest.raises(CapacityError):
            hbm.program_matrix("m", _matrix(rows, 8, high=2))

    def test_all_spares_is_rejected(self):
        with pytest.raises(CapacityError):
            HBMPIMArray(spare_banks=64)

    def test_negative_spares_rejected(self):
        # bank id -1 must never enter the data pool
        with pytest.raises(ConfigurationError):
            HBMPIMArray(spare_banks=-1)


class TestRemapAndWear:
    def test_remap_preserves_values_and_retires_bank(self):
        matrix = _matrix(300, 24)
        q = _matrix(1, 24, seed=5)[0]
        hbm = HBMPIMArray(spare_banks=2)
        hbm.program_matrix("m", matrix)
        before = hbm.query("m", q).values
        victim = hbm.unit_ids_of("m")[0]
        spare, ns = hbm.remap_crossbar(victim)
        assert ns > 0
        assert spare in (0, 1)  # spares take the first physical ids
        assert victim not in hbm.unit_ids_of("m")
        assert hbm.remap_table[victim] == spare
        assert hbm.spares_remaining == 1
        assert np.array_equal(hbm.query("m", q).values, before)

    def test_remap_without_spares_raises(self):
        hbm = HBMPIMArray()
        hbm.program_matrix("m", _matrix(10, 8))
        with pytest.raises(CapacityError):
            hbm.remap_crossbar(hbm.unit_ids_of("m")[0])

    def test_programming_wears_banks(self):
        hbm = HBMPIMArray()
        hbm.program_matrix("m", _matrix(64, 16))
        report = hbm.wear_report(top=3)
        assert report["max_writes"] == 1
        assert report["units_tracked"] == 64


class TestStatsAcrossBackends:
    """PIMStats aggregates cleanly over unlike backends (satellite 2)."""

    def test_backend_field_survives_uniform_merge(self):
        parts = [PIMStats(backend="hbm_pim"), PIMStats(backend="hbm_pim")]
        assert PIMStats.merge(parts).backend == "hbm_pim"

    def test_mixed_backends_merge_to_mixed(self):
        merged = PIMStats.merge(
            [PIMStats(backend="crossbar"), PIMStats(backend="hbm_pim")]
        )
        assert merged.backend == "mixed"

    def test_extra_counters_sum_keywise(self):
        a = PIMStats(backend="hbm_pim")
        a.add_extra("mac_commands", 10)
        b = PIMStats(backend="hbm_pim")
        b.add_extra("mac_commands", 5)
        b.add_extra("row_activations", 2)
        merged = PIMStats.merge([a, b])
        assert merged.extra["mac_commands"] == 15
        assert merged.extra["row_activations"] == 2

    def test_extra_overflow_folds_into_other(self):
        parts = []
        for i in range(PIMStats.MAX_EXTRA_KEYS + 8):
            p = PIMStats(backend="hbm_pim")
            p.add_extra(f"counter_{i:03d}", 1.0)
            parts.append(p)
        merged = PIMStats.merge(parts)
        assert len(merged.extra) <= PIMStats.MAX_EXTRA_KEYS + 1
        assert merged.extra["__other__"] == 8.0
        assert sum(merged.extra.values()) == len(parts)

    def test_waves_charge_backend_specific_extras(self):
        hbm = HBMPIMArray()
        hbm.program_matrix("m", _matrix(64, 16))
        hbm.query_batch("m", _matrix(3, 16, seed=9))
        for key in (
            "mac_commands",
            "mov_commands",
            "fill_commands",
            "row_activations",
        ):
            assert hbm.stats.extra[key] > 0
        assert not PIMArray().stats.extra  # crossbars stay clean

    def test_batch_amortizes_row_activations(self):
        hbm = HBMPIMArray()
        hbm.program_matrix("m", _matrix(500, 40))
        queries = _matrix(8, 40, seed=11)
        result = hbm.query_batch("m", queries)
        assert hbm.stats.batch_saved_ns > 0
        per_wave = HBMPIMArray()
        per_wave.program_matrix("m", _matrix(500, 40))
        many = per_wave.query_many("m", queries)
        assert np.array_equal(result.values, many.values)
        assert hbm.stats.pim_time_ns < per_wave.stats.pim_time_ns

    def test_wave_train_books_every_waves_extras(self):
        """A 3-row ``query_many`` is three waves: three times the row
        activations and buffer traffic of one ``query``, like the loop."""
        queries = _matrix(3, 40, seed=5)
        train, loop = HBMPIMArray(), HBMPIMArray()
        for hbm in (train, loop):
            hbm.program_matrix("m", _matrix(500, 40))
        train.query_many("m", queries)
        for q in queries:
            loop.query("m", q)
        assert train.stats.extra == loop.stats.extra
        assert train.stats.extra["row_activations"] > 0
        assert (
            train.buffer.total_bytes_written,
            train.buffer.total_bytes_read,
        ) == (loop.buffer.total_bytes_written, loop.buffer.total_bytes_read)

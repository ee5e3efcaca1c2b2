"""Unit tests for the array-level PIM interface."""

import numpy as np
import pytest

from repro.errors import CapacityError, OperandError, ProgrammingError
from repro.hardware.config import HardwareConfig, PIMArrayConfig
from repro.hardware.pim_array import PIMArray
from repro.oracle import LoopPIMArray


@pytest.fixture
def array(small_pim_platform) -> PIMArray:
    return PIMArray(small_pim_platform)


class TestProgramming:
    def test_program_returns_layout(self, array, rng):
        matrix = rng.integers(0, 256, size=(10, 20))
        layout = array.program_matrix("data", matrix)
        assert layout.n_vectors == 10
        assert layout.dims == 20
        assert array.stats.crossbars_used == layout.n_crossbars

    def test_duplicate_name_rejected(self, array, rng):
        matrix = rng.integers(0, 256, size=(4, 8))
        array.program_matrix("data", matrix)
        with pytest.raises(ProgrammingError, match="already programmed"):
            array.program_matrix("data", matrix)

    def test_multiple_matrices_share_capacity(self, array, rng):
        array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        array.program_matrix("b", rng.integers(0, 256, size=(4, 8)))
        assert len(array.layouts()) == 2

    def test_reset_frees_capacity(self, array, rng):
        layout = array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        used = array.stats.crossbars_used
        array.reset_matrix("a")
        assert array.stats.crossbars_used == used - layout.n_crossbars
        with pytest.raises(ProgrammingError):
            array.query("a", np.zeros(8, dtype=np.int64))

    def test_capacity_error_on_overflow(self, small_pim_platform, rng):
        array = PIMArray(small_pim_platform)
        with pytest.raises(CapacityError):
            array.program_matrix(
                "big", rng.integers(0, 256, size=(100000, 64))
            )

    def test_rejects_negative_values(self, array):
        with pytest.raises(OperandError):
            array.program_matrix("bad", np.array([[-1, 2]]))

    def test_rejects_1d_matrix(self, array):
        with pytest.raises(OperandError):
            array.program_matrix("bad", np.arange(5))

    def test_programming_time_accumulates(self, array, rng):
        array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        assert array.stats.programming_time_ns > 0


class TestResetAndLayouts:
    def test_reset_unknown_name_raises(self, array):
        with pytest.raises(ProgrammingError, match="no matrix"):
            array.reset_matrix("ghost")

    def test_layouts_mirror_programmed_matrices(self, array, rng):
        la = array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        lb = array.program_matrix("b", rng.integers(0, 256, size=(6, 16)))
        layouts = array.layouts()
        assert set(layouts) == {"a", "b"}
        assert layouts["a"] == la
        assert layouts["b"] == lb

    def test_reset_removes_layout_and_stats_entry(self, array, rng):
        array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        array.reset_matrix("a")
        assert "a" not in array.layouts()
        assert "a" not in array.stats.matrices
        with pytest.raises(ProgrammingError, match="no matrix"):
            array.reset_matrix("a")  # double reset is rejected

    def test_reprogram_same_name_after_reset(self, array, rng):
        array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        array.reset_matrix("a")
        replacement = rng.integers(0, 256, size=(6, 8))
        layout = array.program_matrix("a", replacement)
        assert array.layouts()["a"] == layout
        assert layout.n_vectors == 6
        query = rng.integers(0, 256, size=8)
        assert np.array_equal(
            array.query("a", query).values,
            replacement.astype(np.int64) @ query.astype(np.int64),
        )

    def test_reset_reprogram_cycle_reuses_crossbars(self, array, rng):
        matrix = rng.integers(0, 256, size=(4, 8))
        array.program_matrix("a", matrix)
        used = array.stats.crossbars_used
        for _ in range(3):
            array.reset_matrix("a")
            array.program_matrix("a", matrix)
        assert array.stats.crossbars_used == used


class TestQueries:
    def test_dot_products_exact(self, array, rng):
        matrix = rng.integers(0, 256, size=(10, 20))
        array.program_matrix("data", matrix)
        query = rng.integers(0, 256, size=20)
        result = array.query("data", query)
        assert np.array_equal(result.values, matrix @ query)

    def test_unknown_matrix(self, array):
        with pytest.raises(ProgrammingError, match="no matrix"):
            array.query("missing", np.zeros(3, dtype=np.int64))

    def test_wrong_query_length(self, array, rng):
        array.program_matrix("data", rng.integers(0, 256, size=(4, 8)))
        with pytest.raises(OperandError):
            array.query("data", np.zeros(5, dtype=np.int64))

    def test_wave_stats(self, array, rng):
        matrix = rng.integers(0, 256, size=(4, 8))
        array.program_matrix("data", matrix)
        array.query("data", rng.integers(0, 256, size=8))
        array.query("data", rng.integers(0, 256, size=8))
        assert array.stats.waves == 2
        assert array.stats.results_produced == 8
        assert array.stats.pim_time_ns > 0

    def test_query_many_matches_loop(self, array, rng):
        matrix = rng.integers(0, 256, size=(10, 20))
        array.program_matrix("data", matrix)
        queries = rng.integers(0, 256, size=(5, 20))
        batched = array.query_many("data", queries)
        assert batched.values.shape == (5, 10)
        for i, q in enumerate(queries):
            assert np.array_equal(batched.values[i], matrix @ q)

    def test_query_many_charges_per_wave(self, array, rng):
        matrix = rng.integers(0, 256, size=(10, 20))
        array.program_matrix("data", matrix)
        single = array.query("data", rng.integers(0, 256, size=20))
        time_before = array.stats.pim_time_ns
        waves_before = array.stats.waves
        array.query_many("data", rng.integers(0, 256, size=(5, 20)))
        assert array.stats.waves == waves_before + 5
        assert array.stats.pim_time_ns - time_before == pytest.approx(
            5 * single.timing.total_ns
        )

    def test_accumulator_truncation(self, small_crossbar_config, rng):
        platform = HardwareConfig(
            pim=PIMArrayConfig(
                crossbar=small_crossbar_config,
                capacity_bytes=1 << 20,
                operand_bits=8,
                accumulator_bits=8,
            )
        )
        array = PIMArray(platform)
        matrix = np.full((1, 8), 255, dtype=np.int64)
        array.program_matrix("data", matrix)
        result = array.query("data", np.full(8, 255, dtype=np.int64))
        full = 8 * 255 * 255
        assert result.values[0] == full % 256


class TestCellSimulationEquivalence:
    def test_fast_path_matches_cell_path(self, small_pim_platform, rng):
        matrix = rng.integers(0, 256, size=(7, 19))
        query = rng.integers(0, 256, size=19)
        fast = PIMArray(small_pim_platform)
        cells = LoopPIMArray(small_pim_platform)
        fast.program_matrix("d", matrix)
        cells.program_matrix("d", matrix)
        v_fast = fast.query("d", query).values
        v_cells = cells.query("d", query).values
        assert np.array_equal(v_fast, v_cells)
        assert np.array_equal(v_fast, matrix @ query)

    def test_cell_path_tracks_endurance_per_crossbar(
        self, small_pim_platform, rng
    ):
        array = LoopPIMArray(small_pim_platform)
        array.program_matrix("d", rng.integers(0, 256, size=(4, 16)))
        assert array.endurance.total_writes > 0


class TestPlatformValidation:
    def test_rejects_platform_without_pim(self):
        from repro.hardware.config import baseline_platform

        with pytest.raises(ProgrammingError):
            PIMArray(baseline_platform())


class TestBatchQueries:
    def test_unknown_matrix_rejected(self, array):
        with pytest.raises(ProgrammingError, match="no matrix"):
            array.query_batch("ghost", np.zeros((2, 8), dtype=np.int64))

    def test_wrong_query_length_rejected(self, array, rng):
        array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        with pytest.raises(OperandError, match="length 8"):
            array.query_batch("a", np.zeros((2, 5), dtype=np.int64))

    def test_single_vector_promoted_to_batch_of_one(self, array, rng):
        matrix = rng.integers(0, 256, size=(4, 8))
        array.program_matrix("a", matrix)
        query = rng.integers(0, 256, size=8)
        result = array.query_batch("a", query)
        assert result.values.shape == (1, 4)
        assert result.timing.n_queries == 1
        assert np.array_equal(
            result.values[0], matrix.astype(np.int64) @ query
        )

    def test_cell_path_matches_fast_path(self, small_pim_platform, rng):
        fast = PIMArray(small_pim_platform)
        cells = LoopPIMArray(small_pim_platform)
        matrix = rng.integers(0, 256, size=(2, 8))
        queries = rng.integers(0, 256, size=(3, 8))
        fast.program_matrix("a", matrix)
        cells.program_matrix("a", matrix)
        assert np.array_equal(
            fast.query_batch("a", queries).values,
            cells.query_batch("a", queries).values,
        )


class TestStatsMergeAndPerMatrix:
    """Shard-style aggregation of array stats (serving layer contract)."""

    def _queried(self, platform, name, n_queries, rng):
        array = PIMArray(platform)
        array.program_matrix(name, rng.integers(0, 256, size=(4, 8)))
        for _ in range(n_queries):
            array.query(name, rng.integers(0, 256, size=8))
        return array

    def test_scalars_sum_and_matrices_union(self, small_pim_platform, rng):
        from repro.hardware.pim_array import PIMStats

        a = self._queried(small_pim_platform, "a", 2, rng)
        b = self._queried(small_pim_platform, "b", 3, rng)
        merged = PIMStats.merge([a.stats, b.stats])
        assert merged.waves == 5
        assert merged.pim_time_ns == (
            a.stats.pim_time_ns + b.stats.pim_time_ns
        )
        assert set(merged.matrices) == {"a", "b"}
        assert merged.per_matrix["a"].waves == 2
        assert merged.per_matrix["b"].waves == 3

    def test_prefixes_namespace_colliding_names(
        self, small_pim_platform, rng
    ):
        from repro.hardware.pim_array import PIMStats

        parts = [
            self._queried(small_pim_platform, "chunk", 1, rng).stats
            for _ in range(2)
        ]
        with pytest.raises(ProgrammingError, match="double count"):
            PIMStats.merge(parts)
        merged = PIMStats.merge(parts, prefixes=["s0.", "s1."])
        assert set(merged.matrices) == {"s0.chunk", "s1.chunk"}
        with pytest.raises(ProgrammingError, match="prefix"):
            PIMStats.merge(parts, prefixes=["only-one."])

    def test_reset_matrix_clears_stale_batch_state(
        self, small_pim_platform, rng
    ):
        array = self._queried(small_pim_platform, "a", 2, rng)
        assert array.stats.per_matrix["a"].waves == 2
        array.reset_matrix("a")
        assert "a" not in array.stats.per_matrix
        # a successor reusing the name starts its accounting from zero
        array.program_matrix("a", rng.integers(0, 256, size=(4, 8)))
        array.query("a", rng.integers(0, 256, size=8))
        assert array.stats.per_matrix["a"].waves == 1

    def test_matrix_state_created_on_first_use(self, array):
        state = array.stats.matrix_state("lazy")
        assert state.waves == 0
        assert array.stats.matrix_state("lazy") is state

"""Golden regression tests for the batched wave timing model.

Every expected number here is hand-computed from the analytical model,
so any change to the batch latency equations shows up as an explicit
diff against the derivations in the comments. The platform is the
miniature 8x8 crossbar (2-bit cells, 2-bit DACs, 8-bit operands) with a
round 10 ns read latency and the default 50 GB/s internal bus:

* ``per_query_cycles = ceil(operand_bits / dac_bits) = ceil(8/2) = 4``
* ``setup_cycles = (gather_levels - 1) + PIPELINE_DRAIN_CYCLES``
* ``buffer_ns = B * n_vectors * accumulator_bits/8 / internal_bus_gbs``
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.controller import PIMController
from repro.hardware.mapper import plan_layout
from repro.hardware.timing import PIPELINE_DRAIN_CYCLES, batch_wave_timing


def _platform() -> HardwareConfig:
    return HardwareConfig(
        pim=PIMArrayConfig(
            crossbar=CrossbarConfig(
                rows=8,
                cols=8,
                cell_bits=2,
                dac_bits=2,
                read_latency_ns=10.0,
            ),
            capacity_bytes=1 << 20,
            operand_bits=8,
            accumulator_bits=64,
        )
    )


@pytest.fixture
def platform() -> HardwareConfig:
    return _platform()


class TestAnalyticalGoldens:
    def test_flat_layout_batch_of_4(self, platform):
        # 3 vectors x 8 dims on 8-row crossbars: no gather tree
        # (gather_levels == 1), so setup = 0 + drain = 2 cycles.
        layout = plan_layout(3, 8, platform.pim)
        timing = batch_wave_timing(layout, platform.pim, platform, 4)

        assert timing.per_query_cycles == 4  # ceil(8/2)
        assert timing.setup_cycles == PIPELINE_DRAIN_CYCLES  # 2
        assert timing.total_cycles == 2 + 4 * 4  # 18
        assert timing.crossbar_ns == pytest.approx(180.0)  # 18 * 10 ns
        # 4 queries x 3 vectors x 8 B each over 50 GB/s = 4 * 0.48 ns
        assert timing.buffer_ns == pytest.approx(1.92)
        assert timing.total_ns == pytest.approx(181.92)
        assert timing.amortized_ns_per_query == pytest.approx(181.92 / 4)

    def test_gathered_layout_batch_of_8(self, platform):
        # 2 vectors x 20 dims: ceil(20/8) = 3 data crossbars per vector
        # group merge through one gather level -> gather_levels == 2,
        # setup = 1 + drain = 3 cycles.
        layout = plan_layout(2, 20, platform.pim)
        assert layout.gather_levels == 2
        timing = batch_wave_timing(layout, platform.pim, platform, 8)

        assert timing.setup_cycles == 1 + PIPELINE_DRAIN_CYCLES  # 3
        assert timing.total_cycles == 3 + 8 * 4  # 35
        assert timing.crossbar_ns == pytest.approx(350.0)
        # 8 queries x 2 vectors x 8 B over 50 GB/s = 8 * 0.32 ns
        assert timing.buffer_ns == pytest.approx(2.56)
        assert timing.total_ns == pytest.approx(352.56)

    def test_narrow_input_bits_shrink_per_query_cycles(self, platform):
        # 4-bit inputs halve the DAC slice count: ceil(4/2) = 2.
        layout = plan_layout(3, 8, platform.pim)
        timing = batch_wave_timing(
            layout, platform.pim, platform, 5, input_bits=4
        )
        assert timing.per_query_cycles == 2
        assert timing.total_cycles == 2 + 5 * 2  # 12
        assert timing.crossbar_ns == pytest.approx(120.0)

    def test_batch_of_one_is_exactly_one_wave(self, platform):
        # one wave: ceil(8/2) = 4 input + 0 gather + 2 drain cycles, and
        # 3 vectors x 8 B over 50 GB/s = 0.48 ns of buffer writes
        layout = plan_layout(3, 8, platform.pim)
        single = batch_wave_timing(layout, platform.pim, platform, 1)
        assert single.total_cycles == 4 + 0 + PIPELINE_DRAIN_CYCLES  # 6
        assert single.crossbar_ns == pytest.approx(60.0)
        assert single.buffer_ns == pytest.approx(0.48)
        assert single.total_ns == pytest.approx(60.48)

    def test_batch_saving_is_setup_amortization(self, platform):
        # B waves merged into one batch save exactly (B-1) x setup
        # crossbar cycles; buffer traffic is identical.
        layout = plan_layout(2, 20, platform.pim)
        single = batch_wave_timing(layout, platform.pim, platform, 1)
        for b in (2, 3, 8, 16):
            batch = batch_wave_timing(layout, platform.pim, platform, b)
            saved_cycles = b * single.total_cycles - batch.total_cycles
            assert saved_cycles == (b - 1) * batch.setup_cycles
            assert batch.buffer_ns == pytest.approx(b * single.buffer_ns)

    def test_rejects_empty_batch(self, platform):
        layout = plan_layout(3, 8, platform.pim)
        with pytest.raises(ValueError):
            batch_wave_timing(layout, platform.pim, platform, 0)


class TestArrayLevelGoldens:
    def test_query_batch_charges_analytical_total(self, platform):
        controller = PIMController(platform)
        matrix = np.arange(24, dtype=np.int64).reshape(3, 8) % 200
        controller.pim.program_matrix("m", matrix)
        queries = (np.arange(32, dtype=np.int64).reshape(4, 8) * 7) % 256

        result = controller.pim.query_batch("m", queries)

        # Same golden as test_flat_layout_batch_of_4.
        assert controller.pim.stats.pim_time_ns == pytest.approx(181.92)
        assert result.timing.total_ns == pytest.approx(181.92)
        # Sequential cost would be 4 x (6 cycles * 10 ns + 0.48 ns);
        # the booked saving is the 60 ns of skipped setup cycles.
        assert controller.pim.stats.batch_saved_ns == pytest.approx(60.0)
        assert np.array_equal(
            result.values, queries.astype(np.int64) @ matrix.T
        )

    def test_stats_track_waves_per_batch(self, platform):
        controller = PIMController(platform)
        matrix = np.ones((3, 8), dtype=np.int64)
        controller.pim.program_matrix("m", matrix)
        controller.pim.query_batch("m", np.ones((4, 8), dtype=np.int64))
        controller.pim.query_batch("m", np.ones((2, 8), dtype=np.int64))

        stats = controller.pim.stats
        assert stats.batches == 2
        assert stats.batched_queries == 6
        assert stats.waves == 6
        assert stats.waves_per_batch == pytest.approx(3.0)

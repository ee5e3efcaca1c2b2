"""Unit tests for buffer, memory, endurance, timing and Quartz models."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError, EnduranceExceededError
from repro.hardware.buffer import BufferArray
from repro.hardware.config import (
    CPUConfig,
    HardwareConfig,
    MemoryConfig,
    PIMArrayConfig,
)
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.mapper import plan_layout
from repro.hardware.memory import MemoryArray
from repro.hardware.quartz import Epoch, epoch_time_ns
from repro.hardware.timing import (
    PIPELINE_DRAIN_CYCLES,
    batch_wave_timing,
    programming_time_ns,
)


class TestBufferArray:
    def test_push_pop_fifo(self):
        buf = BufferArray()
        buf.push(np.arange(4))
        buf.push(np.arange(8))
        assert buf.pop().shape == (4,)
        assert buf.pop().shape == (8,)

    def test_occupancy_tracking(self):
        buf = BufferArray()
        block = np.arange(100, dtype=np.int64)
        buf.push(block)
        assert buf.occupied_bytes == block.nbytes
        buf.pop()
        assert buf.occupied_bytes == 0

    def test_overflow(self):
        buf = BufferArray(MemoryConfig(buffer_bytes=16))
        with pytest.raises(CapacityError, match="overflow"):
            buf.push(np.arange(100, dtype=np.int64))

    def test_underflow(self):
        with pytest.raises(CapacityError, match="underflow"):
            BufferArray().pop()

    def test_drain_returns_all(self):
        buf = BufferArray()
        buf.push(np.arange(2))
        buf.push(np.arange(3))
        blocks = buf.drain()
        assert [b.shape[0] for b in blocks] == [2, 3]
        assert buf.occupied_bytes == 0

    def test_read_time_scales_with_bytes(self):
        buf = BufferArray()
        assert buf.read_time_ns(1000) > buf.read_time_ns(10)

    def test_traffic_counters(self):
        buf = BufferArray()
        block = np.arange(10, dtype=np.int64)
        buf.push(block)
        buf.pop()
        assert buf.total_bytes_written == block.nbytes
        assert buf.total_bytes_read == block.nbytes


class TestMemoryArray:
    def test_reram_writes_slower_than_reads(self):
        mem = MemoryArray(MemoryConfig(), device="reram")
        assert mem.write_time_ns(1000) > mem.read_time_ns(1000)

    def test_dram_symmetric(self):
        mem = MemoryArray(MemoryConfig(), device="dram")
        assert mem.write_time_ns(1000) == pytest.approx(mem.read_time_ns(1000))

    def test_reram_writes_slower_than_dram_writes(self):
        cfg = MemoryConfig()
        dram = MemoryArray(cfg, device="dram")
        reram = MemoryArray(cfg, device="reram")
        assert reram.write_time_ns(1000) > dram.write_time_ns(1000)

    def test_unknown_device(self):
        with pytest.raises(ConfigurationError):
            MemoryArray(MemoryConfig(), device="optane")


class TestEnduranceTracker:
    def test_records_and_reports(self):
        tracker = EnduranceTracker(endurance=100)
        tracker.record_write(0)
        tracker.record_write(0, count=4)
        assert tracker.write_count(0) == 5
        assert tracker.max_writes == 5
        assert tracker.total_writes == 5
        assert tracker.remaining(0) == 95
        assert tracker.wear_fraction(0) == pytest.approx(0.05)

    def test_exhaustion(self):
        tracker = EnduranceTracker(endurance=2)
        tracker.record_write(1, count=2)
        with pytest.raises(EnduranceExceededError):
            tracker.record_write(1)

    def test_untracked_unit_is_zero(self):
        assert EnduranceTracker(endurance=5).write_count(9) == 0


class TestWaveTiming:
    """A single wave is ``batch_wave_timing`` at ``n_queries=1``."""

    @pytest.fixture
    def setup(self):
        config = PIMArrayConfig()
        hardware = HardwareConfig(pim=config)
        return config, hardware

    def test_input_cycles_follow_operand_width(self, setup):
        config, hardware = setup
        layout = plan_layout(100, 128, config)
        timing = batch_wave_timing(layout, config, hardware, 1)
        assert timing.per_query_cycles == 16  # 32-bit on a 2-bit DAC

    def test_gather_adds_cycles(self, setup):
        config, hardware = setup
        flat = plan_layout(100, 128, config)
        deep = plan_layout(100, 512, config)
        t_flat = batch_wave_timing(flat, config, hardware, 1)
        t_deep = batch_wave_timing(deep, config, hardware, 1)
        assert t_deep.setup_cycles == t_flat.setup_cycles + 1
        assert t_deep.total_ns > t_flat.total_ns

    def test_total_cycles_include_drain(self, setup):
        config, hardware = setup
        layout = plan_layout(10, 64, config)
        timing = batch_wave_timing(layout, config, hardware, 1)
        assert timing.setup_cycles == (
            layout.gather_levels - 1 + PIPELINE_DRAIN_CYCLES
        )
        assert timing.total_cycles == (
            timing.per_query_cycles + timing.setup_cycles
        )

    def test_buffer_time_scales_with_results(self, setup):
        config, hardware = setup
        small = batch_wave_timing(
            plan_layout(10, 64, config), config, hardware, 1
        )
        large = batch_wave_timing(
            plan_layout(10000, 64, config), config, hardware, 1
        )
        assert large.buffer_ns > small.buffer_ns

    def test_narrow_inputs_cut_cycles(self, setup):
        config, hardware = setup
        layout = plan_layout(10, 64, config)
        binary = batch_wave_timing(layout, config, hardware, 1, input_bits=1)
        assert binary.per_query_cycles == 1

    def test_programming_time_positive(self, setup):
        config, _ = setup
        layout = plan_layout(100, 512, config)
        assert programming_time_ns(layout, config) > 0


class TestQuartzEpochs:
    def test_components_sum(self):
        cpu = CPUConfig()
        t = epoch_time_ns(
            Epoch(flops=1e6, bytes_from_memory=1e6, branches=1e4),
            cpu,
            cpu.dram_miss_latency_ns,
        )
        assert t.total_ns == pytest.approx(
            t.compute_ns + t.cache_ns + t.alu_ns + t.branch_ns + t.frontend_ns
        )

    def test_memory_bound_epochs_dominated_by_cache(self):
        cpu = CPUConfig()
        # streaming 4 bytes per flop, the paper's kNN regime
        t = epoch_time_ns(
            Epoch(flops=3e6, bytes_from_memory=4e6),
            cpu,
            cpu.dram_miss_latency_ns,
        )
        assert t.cache_ns > t.compute_ns

    def test_reram_misses_cost_more(self):
        cpu = CPUConfig()
        epoch = Epoch(flops=1e5, bytes_from_memory=1e6)
        dram = epoch_time_ns(epoch, cpu, cpu.dram_miss_latency_ns)
        reram = epoch_time_ns(epoch, cpu, cpu.reram_miss_latency_ns)
        assert reram.cache_ns > dram.cache_ns

    def test_long_ops_add_alu_stalls(self):
        cpu = CPUConfig()
        with_div = epoch_time_ns(
            Epoch(flops=1e5, long_ops=1e4), cpu, cpu.dram_miss_latency_ns
        )
        without = epoch_time_ns(
            Epoch(flops=1e5), cpu, cpu.dram_miss_latency_ns
        )
        assert with_div.alu_ns > without.alu_ns == 0.0

"""NVSim-style latency model for PIM dot-product waves.

The paper measures PIM-side time with NVSim: the latency of computing a
PIM-aware bound on the crossbars plus buffering the results. One model,
:func:`batch_wave_timing`, prices a wave of ``n_queries`` queries (a
single wave is ``n_queries=1``). We charge:

* ``ceil(b/g)`` crossbar read cycles per query for the DAC-sliced input
  waves (Fig. 2) — operand slices and columns are concurrent in the
  analog domain;
* a constant pipeline overhead for S&H -> ADC -> S&A drain, once per
  wave;
* one extra read cycle per gather-tree level beyond the data layer
  (Fig. 3 / Fig. 11), once per wave;
* buffer-write time for depositing each query's per-vector results into
  the eDRAM buffer array over the internal bus.

Every quantity is derived from :class:`~repro.hardware.config` values, so
changing the crossbar geometry or bus width in a bench sweep changes the
simulated times coherently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware import bitslice
from repro.hardware.config import HardwareConfig, PIMArrayConfig
from repro.hardware.mapper import DatasetLayout

#: Cycles needed to drain the S&H/ADC/S&A pipeline after the last input wave.
PIPELINE_DRAIN_CYCLES = 2


@dataclass(frozen=True)
class BatchWaveTiming:
    """Latency breakdown of one wave of ``n_queries`` query vectors.

    The one timing container of every backend; a single wave is a batch
    of one. The controller streams the DAC slices of the B queries
    through the crossbars back to back; the gather tree and the
    S&H/ADC/S&A drain are pipelined behind the input stream, so their
    cycles are charged once per batch instead of once per query. Result
    drains to the buffer array still happen per query (every query
    produces ``n_vectors`` accumulator-width results). ``stretch`` is
    the straggler factor a fault hook applied (1.0 on a healthy device);
    it scales the whole wave, not its components.
    """

    n_queries: int
    setup_cycles: int
    per_query_cycles: int
    crossbar_ns: float
    buffer_ns: float
    stretch: float = 1.0

    @property
    def total_cycles(self) -> int:
        """All crossbar read cycles charged for the batch."""
        return self.setup_cycles + self.n_queries * self.per_query_cycles

    @property
    def total_ns(self) -> float:
        """End-to-end batch latency in nanoseconds."""
        return (self.crossbar_ns + self.buffer_ns) * self.stretch

    @property
    def amortized_ns_per_query(self) -> float:
        """Per-query share of the batch latency."""
        return self.total_ns / self.n_queries


def batch_wave_timing(
    layout: DatasetLayout,
    config: PIMArrayConfig,
    hardware: HardwareConfig,
    n_queries: int,
    input_bits: int | None = None,
) -> BatchWaveTiming:
    """Latency of one wave of ``n_queries`` query vectors.

    A wave evaluates each query against *every* programmed vector
    concurrently (the crossbars form a SIMD pool) and writes
    ``n_vectors`` accumulator-width results per query to the buffer
    array. Each query pays its ``ceil(b/g)`` DAC input cycles (the
    analog array evaluates one input vector at a time), but the
    gather-tree and pipeline-drain cycles overlap with the next query's
    input stream and are charged once per batch. A single wave is
    ``n_queries=1``; a batch of B costs strictly less than B single
    waves whenever the pipeline has anything to drain (always, since
    :data:`PIPELINE_DRAIN_CYCLES` > 0).
    """
    if n_queries < 1:
        raise ValueError("a batch needs at least one query")
    bits = input_bits if input_bits is not None else config.operand_bits
    per_query_cycles = bitslice.num_slices(bits, config.crossbar.dac_bits)
    setup_cycles = (layout.gather_levels - 1) + PIPELINE_DRAIN_CYCLES
    cycles = setup_cycles + n_queries * per_query_cycles
    crossbar_ns = cycles * config.crossbar.read_latency_ns
    result_bytes = layout.n_vectors * config.accumulator_bits / 8.0
    buffer_ns = n_queries * result_bytes / hardware.memory.internal_bus_gbs
    return BatchWaveTiming(
        n_queries=n_queries,
        setup_cycles=setup_cycles,
        per_query_cycles=per_query_cycles,
        crossbar_ns=crossbar_ns,
        buffer_ns=buffer_ns,
    )


def programming_time_ns(layout: DatasetLayout, config: PIMArrayConfig) -> float:
    """Offline time to program a layout onto the crossbars.

    Crossbars are programmed row by row; rows of different crossbars are
    written in parallel across banks, but within a crossbar each of the
    ``min(dims, rows)`` rows takes one write cycle. Gather crossbars hold
    constant all-ones vectors and are charged a single write cycle each.
    """
    rows_written = min(layout.dims, config.crossbar.rows)
    data_ns = rows_written * config.crossbar.write_latency_ns
    gather_ns = (
        config.crossbar.write_latency_ns if layout.n_gather_crossbars else 0.0
    )
    return data_ns + gather_ns

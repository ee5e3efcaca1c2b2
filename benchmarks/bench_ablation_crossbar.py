"""Ablation — crossbar geometry and operand width vs wave latency.

The simulated per-wave latency is driven by the DAC input slicing
(``ceil(b/g)`` cycles per query), the setup cycles (gather-tree depth
plus the pipeline drain) and the buffer drain.
This bench sweeps crossbar size and operand width and prints the wave
latency model's outputs, plus pytest-benchmark timings of the simulator
itself (the functional dot-product path) for regression tracking.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import format_table
from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.mapper import plan_layout
from repro.hardware.pim_array import PIMArray
from repro.hardware.timing import batch_wave_timing

GEOMETRIES = [64, 128, 256, 512]
OPERAND_BITS = [8, 16, 32]
N, DIMS = 5000, 512


def test_ablation_wave_latency(benchmark, save_results):
    rows = []
    latencies = {}
    for rows_cols in GEOMETRIES:
        for bits in OPERAND_BITS:
            config = PIMArrayConfig(
                crossbar=CrossbarConfig(rows=rows_cols, cols=rows_cols),
                capacity_bytes=2 * 1024**3,
                operand_bits=bits,
            )
            hardware = HardwareConfig(pim=config)
            layout = plan_layout(N, DIMS, config)
            timing = batch_wave_timing(layout, config, hardware, 1)
            latencies[(rows_cols, bits)] = timing.total_ns
            rows.append(
                [
                    f"{rows_cols}x{rows_cols}",
                    bits,
                    timing.per_query_cycles,
                    timing.setup_cycles,
                    timing.total_ns,
                    layout.n_crossbars,
                ]
            )
    text = format_table(
        [
            "crossbar",
            "operand bits",
            "per-query cycles",
            "setup cycles",
            "wave (ns)",
            "crossbars used",
        ],
        rows,
        title=(
            f"Ablation: wave latency vs geometry and operand width "
            f"({N} x {DIMS} dataset)"
        ),
    )
    save_results("ablation_crossbar", text)

    # wider operands mean more DAC waves; bigger crossbars mean a
    # shallower gather tree
    for geometry in GEOMETRIES:
        assert latencies[(geometry, 32)] > latencies[(geometry, 8)]
    assert latencies[(512, 32)] <= latencies[(64, 32)]

    # regression benchmark of the functional simulator itself
    rng = np.random.default_rng(0)
    array = PIMArray(HardwareConfig(pim=PIMArrayConfig()))
    matrix = rng.integers(0, 2**20, size=(2000, DIMS))
    array.program_matrix("d", matrix)
    query = rng.integers(0, 2**20, size=DIMS)
    benchmark(lambda: array.query("d", query))

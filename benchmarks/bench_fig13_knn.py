"""Fig. 13 — kNN classification execution time (four sub-figures).

(a) Standard vs Standard-PIM across datasets — speedup grows with
    dimensionality (the paper's 453x peak is on 4096-d Trevi) and is
    weakest on diffuse GIST;
(b) the four algorithms vs their PIM variants (and the oracle) on MSD;
(c) Standard vs Standard-PIM as k grows (1/10/100);
(d) Standard vs Standard-PIM across distance functions (ED/CS/PCC).

Perf trajectory: this bench also measures the production wave kernel
(the default :class:`PIMArray`'s exact BLAS wave) against the
per-crossbar loop reference :class:`repro.oracle.LoopPIMArray` — same
bits, same simulated nanoseconds, orders of magnitude less wall-clock —
and persists the numbers as ``BENCH_fig13_knn.json`` so CI can gate on
the speedup never regressing (``--smoke`` floor: 3x; the full run
records the 10x+ trajectory point under ``benchmarks/results/``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.profiler import profile_knn
from repro.core.report import format_table
from repro.hardware.config import pim_platform
from repro.hardware.controller import PIMController
from repro.hardware.pim_array import PIMArray
from repro.mining.knn import make_baseline, make_pim_variant
from repro.oracle import LoopPIMArray

RESULTS_DIR = Path(__file__).parent / "results"

#: CI acceptance floor for the fused-vs-loop wall-clock speedup on the
#: smoke workload; the full workload documents a much larger margin.
MIN_FUSED_SPEEDUP = 3.0

KNN_DATASETS = ["ImageNet", "MSD", "Trevi", "GIST"]
ALGORITHMS = ["Standard", "OST", "SM", "FNN"]

#: Compressed dimensionality per dataset, following the paper's Theorem 4
#: outcomes at its scale ("s is 50 for ImageNet and 105 for MSD"); GIST
#: and Trevi use the same capacity-to-N ratio applied to their paper Ns.
PAPER_SEGMENTS = {"ImageNet": 50, "MSD": 105, "GIST": 240, "Trevi": 2048}


def _pair(name, data, queries, k, measure="euclidean", n_segments=None):
    """(baseline profile, PIM profile) for one algorithm family."""
    n, dims = data.shape
    base = profile_knn(
        make_baseline(name, dims, measure=measure).fit(data), queries, k
    )
    if n_segments is not None and name == "Standard":
        from repro.mining.knn import StandardPIMKNN

        pim_algo = StandardPIMKNN(
            measure=measure, n_segments=n_segments
        ).fit(data)
    else:
        pim_algo = make_pim_variant(
            f"{name}-PIM", dims, n, measure=measure
        ).fit(data)
    pim = profile_knn(pim_algo, queries, k)
    return base, pim


def test_fig13a_vary_dataset(benchmark, knn_workloads, save_results):
    rows = []
    speedups = {}
    for dataset in KNN_DATASETS:
        data, queries = knn_workloads[dataset]
        base, pim = _pair(
            "Standard", data, queries, k=10,
            n_segments=PAPER_SEGMENTS[dataset],
        )
        speedups[dataset] = base.total_time_ns / pim.total_time_ns
        rows.append(
            [
                dataset,
                data.shape[1],
                base.total_time_ms,
                pim.total_time_ms,
                f"{speedups[dataset]:.1f}x",
            ]
        )
    text = format_table(
        ["dataset", "d", "Standard (ms)", "Standard-PIM (ms)", "speedup"],
        rows,
        title=(
            "Fig 13(a): kNN time by dataset (k=10, ED, 5 queries, "
            "Theorem 4 compression at the paper's per-dataset s)"
        ),
    )
    save_results("fig13a_knn_datasets", text)

    # paper shapes: Trevi (4096-d) gains the most; GIST gains the least
    # among the high-dimensional datasets because its bounds prune poorly
    assert speedups["Trevi"] == max(speedups.values())
    assert speedups["GIST"] < speedups["MSD"]

    data, queries = knn_workloads["MSD"]
    algo = make_pim_variant(
        "Standard-PIM", data.shape[1], data.shape[0]
    ).fit(data)
    benchmark(lambda: algo.query(queries[0], 10))


def test_fig13b_vary_algorithm(benchmark, msd_workload, save_results):
    data, queries = msd_workload
    rows = []
    speedups = {}
    for name in ALGORITHMS:
        base, pim = _pair(name, data, queries, k=10)
        speedups[name] = base.total_time_ns / pim.total_time_ns
        rows.append(
            [
                name,
                base.total_time_ms,
                pim.total_time_ms,
                base.pim_oracle_ns / 1e6,
                f"{speedups[name]:.1f}x",
            ]
        )
    text = format_table(
        ["algorithm", "No-PIM (ms)", "PIM (ms)", "PIM-oracle (ms)", "speedup"],
        rows,
        title="Fig 13(b): kNN time by algorithm (MSD, k=10, 5 queries)",
    )
    save_results("fig13b_knn_algorithms", text)

    # every PIM variant must win
    assert all(s > 1.0 for s in speedups.values())

    algo = make_baseline("OST", data.shape[1]).fit(data)
    benchmark(lambda: algo.query(queries[0], 10))


@pytest.mark.parametrize("k", [1, 10, 100])
def test_fig13c_vary_k(benchmark, msd_workload, save_results, k):
    data, queries = msd_workload
    base, pim = _pair("Standard", data, queries, k=k)
    speedup = base.total_time_ns / pim.total_time_ns
    text = format_table(
        ["k", "Standard (ms)", "Standard-PIM (ms)", "speedup"],
        [[k, base.total_time_ms, pim.total_time_ms, f"{speedup:.1f}x"]],
        title=f"Fig 13(c) row: kNN time at k={k} (MSD, ED)",
    )
    save_results(f"fig13c_knn_k{k}", text)
    assert speedup > 1.0

    algo = make_baseline("Standard", data.shape[1]).fit(data)
    benchmark(lambda: algo.query(queries[0], k))


@pytest.mark.parametrize("batch", [8, 16])
def test_fig13_batched_waves(benchmark, msd_workload, save_results, batch):
    """Batched dispatch beats B sequential waves (beyond-paper check).

    B >= 8 queries shipped as one multi-query wave must cost strictly
    less simulated PIM time than B single-query dispatches, while
    returning bit-identical neighbours.
    """
    from repro.data.catalog import make_queries
    from repro.mining.knn import StandardPIMKNN

    data, _ = msd_workload
    queries = make_queries("MSD", data, batch)

    sequential = StandardPIMKNN(controller=PIMController()).fit(data)
    seq_results = [sequential.query(q, 10) for q in queries]
    seq_ns = sequential.controller.pim.stats.pim_time_ns

    batched = StandardPIMKNN(controller=PIMController()).fit(data)
    bat_results = batched.query_batch(queries, 10)
    bat_ns = batched.controller.pim.stats.pim_time_ns
    stats = batched.controller.pim.stats

    text = format_table(
        ["B", "sequential (ms)", "batched (ms)", "saved (ms)", "waves/batch"],
        [[
            batch,
            seq_ns / 1e6,
            bat_ns / 1e6,
            (seq_ns - bat_ns) / 1e6,
            stats.waves_per_batch,
        ]],
        title=f"Batched wave dispatch at B={batch} (MSD, k=10, ED)",
    )
    save_results(f"fig13_batched_b{batch}", text)

    # strictly below B x single-query latency, with identical answers
    assert bat_ns < seq_ns
    assert stats.waves == sequential.controller.pim.stats.waves
    for rs, rb in zip(seq_results, bat_results):
        assert np.array_equal(rs.indices, rb.indices)
        assert np.array_equal(rs.scores, rb.scores)

    benchmark(lambda: batched.query_batch(queries, 10))


@pytest.mark.parametrize("measure", ["euclidean", "cosine", "pearson"])
def test_fig13d_vary_distance(benchmark, msd_workload, save_results, measure):
    data, queries = msd_workload
    base, pim = _pair("Standard", data, queries, k=10, measure=measure)
    speedup = base.total_time_ns / pim.total_time_ns
    text = format_table(
        ["distance", "Standard (ms)", "Standard-PIM (ms)", "speedup"],
        [[measure, base.total_time_ms, pim.total_time_ms, f"{speedup:.1f}x"]],
        title=f"Fig 13(d) row: kNN time under {measure} (MSD, k=10)",
    )
    save_results(f"fig13d_knn_{measure}", text)
    assert speedup > 1.0

    algo = make_pim_variant(
        "Standard-PIM", data.shape[1], data.shape[0], measure=measure
    ).fit(data)
    benchmark(lambda: algo.query(queries[0], 10))


# ----------------------------------------------------------------------
# perf trajectory: production wave kernel vs per-crossbar loop reference
# ----------------------------------------------------------------------
def _trajectory_workload(smoke: bool):
    """Integer wave workload on the Table 5 platform (MSD-like shape)."""
    rng = np.random.default_rng(1313)
    n, dims, batch = (1024, 50, 4) if smoke else (3000, 96, 8)
    matrix = rng.integers(0, 1 << 16, size=(n, dims), dtype=np.int64)
    queries = rng.integers(0, 1 << 16, size=(batch, dims), dtype=np.int64)
    return matrix, queries


def measure_fused_trajectory(smoke: bool = False, repeats: int = 5) -> dict:
    """Production vs loop-reference waves: wall-clock + fidelity.

    The default :class:`PIMArray` is the fused side, the cell-level
    :class:`LoopPIMArray` the reference. Both must return bit-identical
    values and *identical* simulated nanoseconds (the fusion contract);
    only the host wall-clock differs. The loop runs once (it is the
    slow side); the fused kernel is averaged over ``repeats`` runs.
    """
    matrix, queries = _trajectory_workload(smoke)
    platform = pim_platform()
    fused = PIMArray(platform)
    loop = LoopPIMArray(platform)
    fused.program_matrix("bench", matrix)
    loop.program_matrix("bench", matrix)

    fused_result = fused.query_batch("bench", queries)  # warm-up + check
    loop_result = loop.query_batch("bench", queries)
    bit_identical = bool(
        np.array_equal(fused_result.values, loop_result.values)
    )
    t0 = time.perf_counter()
    for _ in range(repeats):
        fused.query_batch("bench", queries)
    fused_s = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    loop.query_batch("bench", queries)
    loop_s = time.perf_counter() - t0
    return {
        "bench": "fig13_knn",
        "kernel": "batched_wave",
        "smoke": smoke,
        "workload": {
            "n_vectors": int(matrix.shape[0]),
            "dims": int(matrix.shape[1]),
            "batch": int(queries.shape[0]),
            "operand_bits": platform.pim.operand_bits,
        },
        "wall_clock": {
            "fused_s": fused_s,
            "reference_s": loop_s,
            "speedup": loop_s / fused_s,
        },
        "simulated": {
            "fused_ns": fused_result.timing.total_ns,
            "reference_ns": loop_result.timing.total_ns,
            "identical": fused_result.timing.total_ns
            == loop_result.timing.total_ns,
        },
        "bit_identical": bit_identical,
        "min_speedup": MIN_FUSED_SPEEDUP,
    }


def save_bench_json(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")


def test_fig13_fused_perf_trajectory(benchmark, save_results):
    """The fused kernel is fast *and* moves zero bits or nanoseconds."""
    result = measure_fused_trajectory(smoke=True)
    save_bench_json(result, RESULTS_DIR / "BENCH_fig13_knn.json")
    wall = result["wall_clock"]
    save_results(
        "fig13_fused_trajectory",
        format_table(
            ["kernel", "fused (ms)", "loop (ms)", "speedup", "bits equal"],
            [[
                result["kernel"],
                f"{wall['fused_s'] * 1e3:.2f}",
                f"{wall['reference_s'] * 1e3:.2f}",
                f"{wall['speedup']:.1f}x",
                result["bit_identical"],
            ]],
            title="Perf trajectory: fused wave kernel vs loop reference",
        ),
    )
    assert result["bit_identical"]
    assert result["simulated"]["identical"]
    assert wall["speedup"] >= MIN_FUSED_SPEEDUP

    matrix, queries = _trajectory_workload(smoke=True)
    fused = PIMArray(pim_platform())
    fused.program_matrix("bench", matrix)
    benchmark(lambda: fused.query_batch("bench", queries))


@pytest.mark.slow
def test_fig13_fused_perf_trajectory_full():
    """Tier 2: the full-scale workload behind the recorded JSON.

    The smoke test above gates every CI run at ``MIN_FUSED_SPEEDUP``;
    this one reproduces the full record committed under
    ``benchmarks/results/`` (>= 10x observed there) without blocking
    the default suite on a multi-second loop-reference run.
    """
    result = measure_fused_trajectory(smoke=False)
    save_bench_json(result, RESULTS_DIR / "BENCH_fig13_knn.json")
    assert result["bit_identical"]
    assert result["simulated"]["identical"]
    assert result["wall_clock"]["speedup"] >= MIN_FUSED_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fused-wave perf-trajectory bench (Fig. 13 rider)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workload; same bit/timing assertions",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_fig13_knn.json"),
        metavar="FILE", help="perf-trajectory JSON artifact path",
    )
    args = parser.parse_args(argv)
    result = measure_fused_trajectory(smoke=args.smoke)
    save_bench_json(result, Path(args.out))
    wall = result["wall_clock"]
    print(
        f"fused {wall['fused_s'] * 1e3:.2f} ms  "
        f"loop {wall['reference_s'] * 1e3:.2f} ms  "
        f"speedup {wall['speedup']:.1f}x  "
        f"bit_identical={result['bit_identical']}  "
        f"simulated_identical={result['simulated']['identical']}"
    )
    print(f"perf trajectory: {args.out}")
    if not (result["bit_identical"] and result["simulated"]["identical"]):
        print("FAIL: fused kernel moved bits or nanoseconds", file=sys.stderr)
        return 1
    if wall["speedup"] < MIN_FUSED_SPEEDUP:
        print(
            f"FAIL: fused speedup {wall['speedup']:.2f}x < "
            f"{MIN_FUSED_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

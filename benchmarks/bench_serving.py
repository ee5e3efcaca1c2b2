"""Serving-layer throughput and latency curves across shard counts.

The north-star claim behind ``repro.serving``: partitioning one dataset
over N independent PIM arrays multiplies serving capacity, because the
row-proportional parts of a query (bound combine, candidate sort, exact
refinement, buffer drain) split across shards while only the constant
wave setup and the tiny k-list merge stay serial. This bench drives the
same offered load at 1/2/4 shards and reports:

* aggregate simulated throughput under saturation (the capacity curve);
* p50/p95/p99 latency and shed rate across an offered-load sweep (the
  latency curve, persisted as JSON for the CI artifact).

Dual mode: a pytest bench (``pytest benchmarks/bench_serving.py``) and a
standalone CLI (``python benchmarks/bench_serving.py --smoke``) whose
telemetry flags reuse the shared :mod:`repro.cli` wiring.

Perf trajectory: the bench also measures the fused scatter/gather
kernels (block-scored refinement, center-major assist sweep) against
the per-candidate loops of :class:`repro.oracle.LoopShardManager` —
identical answers, counts and simulated timings, much less wall-clock
— persisted as ``BENCH_serving.json`` for the CI perf gate
(``--smoke`` floor: 3x).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import add_telemetry_args, telemetry_scope
from repro.core.report import format_table
from repro.serving import (
    QueryService,
    ShardManager,
    SLOTracker,
    TenantSpec,
    WorkloadDriver,
)
from repro.oracle import LoopShardManager
from repro.kernels import _canonical_prefix

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset geometry: large enough that row-proportional work dominates
#: the constant per-wave setup (the regime the scaling claim targets).
N_ROWS = 4096
DIMS = 64
K = 10
MAX_BATCH = 8
SHARD_COUNTS = (1, 2, 4)
#: Offered load points, as multiples of the measured 1-shard capacity.
LOAD_FRACTIONS = (0.5, 1.0, 2.0, 5.0)
SMOKE_LOAD_FRACTIONS = (1.0, 5.0)
N_REQUESTS = 160
SMOKE_REQUESTS = 64
#: Acceptance floor: 1 -> 4 shard aggregate simulated throughput.
MIN_SCALING = 2.5
#: CI acceptance floor for the fused-vs-loop serving wall-clock speedup
#: on the smoke workload (the full run documents the 10x+ margin).
MIN_FUSED_SPEEDUP = 3.0

TENANTS = [
    TenantSpec("batch", workload="near", k=K, weight=1.0),
    TenantSpec("interactive", workload="uniform", k=K, weight=1.0),
]


def _dataset() -> np.ndarray:
    return np.random.default_rng(42).random((N_ROWS, DIMS))


def _capacity_qps(manager: ShardManager) -> float:
    """Saturated per-node service rate, probed with one full batch."""
    probe = np.random.default_rng(7).random((MAX_BATCH, DIMS))
    _, timing = manager.knn_batch(probe, K)
    manager.reset_busy()
    return MAX_BATCH * 1e9 / timing.service_ns


def _run_point(
    manager: ShardManager, rate_qps: float, n_requests: int
) -> dict:
    """Serve one offered-load point; returns the reduced SLO numbers."""
    manager.reset_busy()
    driver = WorkloadDriver(_dataset(), TENANTS, seed=1234)
    requests = driver.open_loop(rate_qps, n_requests, arrival="poisson")
    service = QueryService(
        manager,
        TENANTS,
        max_batch=MAX_BATCH,
        queue_capacity=32,
        policy="reject",
        tracker=SLOTracker(),
    )
    service.run(requests)
    summary = service.summary()
    return {
        "rate_qps": rate_qps,
        "offered": summary["offered"],
        "completed": summary["completed"],
        "shed_rate": summary["shed_rate"],
        "throughput_qps": summary["throughput_qps"],
        "p50_ns": summary["p50_ns"],
        "p95_ns": summary["p95_ns"],
        "p99_ns": summary["p99_ns"],
        "max_shard_utilization": max(
            summary.get("shard_utilization", [0.0])
        ),
    }


def run_sweep(smoke: bool = False) -> dict:
    """The full experiment: load sweep per shard count + scaling check."""
    fractions = SMOKE_LOAD_FRACTIONS if smoke else LOAD_FRACTIONS
    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    data = _dataset()
    managers = {
        shards: ShardManager(data, n_shards=shards)
        for shards in SHARD_COUNTS
    }
    base_capacity = _capacity_qps(managers[1])
    series = []
    saturated = {}
    for shards, manager in managers.items():
        points = [
            _run_point(manager, fraction * base_capacity, n_requests)
            for fraction in fractions
        ]
        series.append({"shards": shards, "points": points})
        saturated[shards] = points[-1]["throughput_qps"]
    return {
        "meta": {
            "n_rows": N_ROWS,
            "dims": DIMS,
            "k": K,
            "max_batch": MAX_BATCH,
            "n_requests": n_requests,
            "base_capacity_qps": base_capacity,
            "load_fractions": list(fractions),
            "smoke": smoke,
        },
        "series": series,
        "scaling": {
            "throughput_1_shard_qps": saturated[1],
            "throughput_4_shards_qps": saturated[4],
            "ratio_4_over_1": saturated[4] / saturated[1],
            "min_required": MIN_SCALING,
        },
    }


def format_report(result: dict) -> str:
    rows = []
    for entry in result["series"]:
        for point in entry["points"]:
            rows.append(
                [
                    entry["shards"],
                    f"{point['rate_qps']:,.0f}",
                    f"{point['throughput_qps']:,.0f}",
                    f"{point['shed_rate']:.1%}",
                    f"{point['p50_ns'] / 1e3:.1f}",
                    f"{point['p99_ns'] / 1e3:.1f}",
                    f"{point['max_shard_utilization']:.0%}",
                ]
            )
    scaling = result["scaling"]
    return format_table(
        [
            "shards",
            "offered qps",
            "throughput qps",
            "shed",
            "p50 (us)",
            "p99 (us)",
            "util",
        ],
        rows,
        title=(
            "Serving scaling: "
            f"{result['meta']['n_rows']}x{result['meta']['dims']} over "
            "1/2/4 shards — saturated throughput ratio "
            f"{scaling['ratio_4_over_1']:.2f}x "
            f"(floor {scaling['min_required']}x)"
        ),
    )


def save_curve(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")


# ----------------------------------------------------------------------
# perf trajectory: fused scatter/gather vs per-candidate loops
# ----------------------------------------------------------------------
def measure_fused_trajectory(smoke: bool = False, repeats: int = 3) -> dict:
    """Fused vs loop-oracle serving: wall-clock + exactness in one record.

    Drives one kNN batch and one k-means assist through a fused manager
    and a :class:`~repro.oracle.LoopShardManager` over the same dataset.
    Answers, refined counts and simulated service times must be
    identical; the wall clock is the only thing fusion is allowed to
    change.
    """
    rng = np.random.default_rng(777)
    n, dims = (1500, 32) if smoke else (4096, 64)
    n_centers = 12 if smoke else 48
    data = rng.random((n, dims))
    queries = rng.random((MAX_BATCH, dims))
    centers = rng.random((n_centers, dims))
    fused = ShardManager(data, n_shards=4)
    loop = LoopShardManager(data, n_shards=4)

    af, tf = fused.knn_batch(queries, K)
    ar, tr = loop.knn_batch(queries, K)
    bf, btf = fused.assign(centers)
    br, btr = loop.assign(centers)
    bit_identical = (
        all(
            np.array_equal(x.indices, y.indices)
            and np.array_equal(x.scores, y.scores)
            and x.refined == y.refined
            for x, y in zip(af, ar)
        )
        and np.array_equal(bf.assignments, br.assignments)
        and np.array_equal(bf.distances, br.distances)
        and bf.refined == br.refined
    )
    simulated_identical = bool(
        tf.service_ns == tr.service_ns and btf.service_ns == btr.service_ns
    )

    t0 = time.perf_counter()
    for _ in range(repeats):
        fused.knn_batch(queries, K)
    t1 = time.perf_counter()
    for _ in range(repeats):
        fused.assign(centers)
    t2 = time.perf_counter()
    fused_knn_s = (t1 - t0) / repeats
    fused_assign_s = (t2 - t1) / repeats
    fused_s = fused_knn_s + fused_assign_s
    t0 = time.perf_counter()
    loop.knn_batch(queries, K)
    t1 = time.perf_counter()
    loop.assign(centers)
    t2 = time.perf_counter()
    loop_knn_s = t1 - t0
    loop_assign_s = t2 - t1
    loop_s = loop_knn_s + loop_assign_s
    return {
        "bench": "serving",
        "kernel": "sharded_knn_batch_plus_assign",
        "smoke": smoke,
        "workload": {
            "n_rows": n,
            "dims": dims,
            "batch": MAX_BATCH,
            "k": K,
            "n_centers": n_centers,
            "n_shards": 4,
        },
        "wall_clock": {
            "fused_s": fused_s,
            "reference_s": loop_s,
            "speedup": loop_s / fused_s,
            "per_kernel": {
                "knn_speedup": loop_knn_s / fused_knn_s,
                "assign_speedup": loop_assign_s / fused_assign_s,
            },
        },
        "simulated": {
            "knn_service_ns": float(tf.service_ns),
            "assign_service_ns": float(btf.service_ns),
            "identical": simulated_identical,
        },
        "bit_identical": bool(bit_identical),
        "min_speedup": MIN_FUSED_SPEEDUP,
    }


def measure_bound_pipeline(smoke: bool = False, repeats: int = 5) -> dict:
    """Canonical candidate prefix vs the full per-query sort it replaced.

    The fused serving scan visits candidates in the canonical
    ``lexsort((gidx, lb))`` order, but tight bounds let it stop after
    about ``k`` of them. So it orders only a
    :func:`~repro.kernels._canonical_prefix` of about ``4k``
    rows (a partition, then a lexsort of the rows at or below the
    partition value) instead of sorting every row. This microbench
    ranks the same per-query bounds both ways: each prefix must equal
    the full sort's leading entries, the wall clock is the recorded
    delta.
    """
    rng = np.random.default_rng(99)
    batch, n_local = (8, 20_000) if smoke else (16, 120_000)
    alpha2 = 2.0 * 16.0
    # spread so the bounds stay positive: clamped-to-zero bounds would
    # all tie, and a tie-only input measures nothing about the prefix
    phi = (4.0 + 8.0 * rng.random(n_local)) * DIMS
    phi_q = (2.0 + rng.random(batch)) * DIMS
    dots = 2.0 * DIMS * rng.random((batch, n_local))
    gidx = rng.permutation(n_local).astype(np.int64)
    lb_all = (
        phi[None, :] + phi_q[:, None] - 2.0 * dots - 2.0 * DIMS
    ) / alpha2
    np.maximum(lb_all, 0.0, out=lb_all)
    m = 4 * K

    def full_sort():
        return [np.lexsort((gidx, lb)) for lb in lb_all]

    def prefix():
        return [_canonical_prefix(lb, gidx, m) for lb in lb_all]

    identical = all(
        p.size >= m and np.array_equal(p, f[: p.size])
        for p, f in zip(prefix(), full_sort())
    )
    full_s = []
    prefix_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        full_sort()
        full_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        prefix()
        prefix_s.append(time.perf_counter() - t0)
    return {
        "bench": "serving_bound_pipeline",
        "smoke": smoke,
        "batch": batch,
        "n_local": n_local,
        "prefix_rows": m,
        "full_sort_s": min(full_s),
        "prefix_s": min(prefix_s),
        "speedup": min(full_s) / min(prefix_s),
        "identical": identical,
    }


def save_bench_json(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")


# ----------------------------------------------------------------------
# observability: trace integrity, burn-rate sanity, tracing overhead
# ----------------------------------------------------------------------
#: Smoke-mode ceiling on the end-to-end tracing wall-clock overhead.
MAX_TRACING_OVERHEAD = 0.10
#: Acceptance ceiling on |latency - sum(segments)| per request.
MAX_RESIDUAL_NS = 1.0


def _chaos_setup(
    n_requests: int,
    *,
    monitor=None,
    faults: bool = True,
    load: float = 1.2,
):
    """A chaos+repair serving run, built but not yet run.

    Returns ``(service, requests)`` so callers can time ``service.run``
    in isolation (the build cost — crossbar programming — is identical
    with and without telemetry). ``load`` is the offered-rate multiple
    of the single-node capacity: >1 exercises queueing and shedding,
    <1 is the healthy regime where no SLO alert may fire.
    """
    from repro.faults import FaultPlan
    from repro.repair import RepairController, RepairPolicy

    data = _dataset()
    clean = ShardManager(data, n_shards=4)
    rate = load * _capacity_qps(clean)
    plan = None
    repair = None
    if faults:
        plan = FaultPlan.chaos(
            4, horizon_ns=n_requests / rate * 1e9, seed=5
        )
    manager = ShardManager(
        data, n_shards=4, replication=2, fault_plan=plan
    )
    if faults:
        repair = RepairController(manager, RepairPolicy())
    driver = WorkloadDriver(data, TENANTS, seed=1)
    requests = driver.open_loop(rate, n_requests, arrival="bursty")
    service = QueryService(
        manager,
        TENANTS,
        max_batch=MAX_BATCH,
        queue_capacity=32,
        policy="reject",
        repair=repair,
        monitor=monitor,
    )
    return service, requests


def measure_observability(smoke: bool = False) -> dict:
    """End-to-end trace integrity + burn-rate sanity in one record.

    Runs the chaos+repair workload under tracing and checks the ISSUE
    acceptance gates directly on the export: every admitted request has
    exactly one parented span tree (roots == terminal responses, zero
    orphans), the critical-path segments sum to the end-to-end latency
    within :data:`MAX_RESIDUAL_NS`, the trace/metrics files pass schema
    validation and the Prometheus snapshot parses. A separate clean
    run confirms the default burn-rate rules stay silent on a healthy
    baseline. Violations are returned, not raised — ``main`` turns
    them into the CI exit code.
    """
    from repro.observability import (
        BurnRateMonitor,
        orphan_spans,
        request_breakdowns,
        request_roots,
    )
    from repro.telemetry import telemetry_session
    from repro.telemetry.export import (
        chrome_trace_events,
        parse_prometheus,
        prometheus_snapshot,
        write_chrome_trace,
        write_metrics_jsonl,
        write_prometheus,
    )
    from repro.telemetry.validate import validate_metrics, validate_trace

    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    violations: list[str] = []

    chaos_monitor = BurnRateMonitor()
    with telemetry_session() as tele:
        service, requests = _chaos_setup(
            n_requests, monitor=chaos_monitor
        )
        service.run(requests)
        summary = service.summary()
    events = chrome_trace_events(tele)
    roots = request_roots(events)
    orphans = orphan_spans(events)
    breakdowns = request_breakdowns(events)
    terminal = summary["completed"] + summary["shed"]
    max_residual = max(
        (abs(b["residual_ns"]) for b in breakdowns), default=0.0
    )
    if len(roots) != terminal:
        violations.append(
            f"span roots {len(roots)} != terminal responses {terminal}"
        )
    if orphans:
        violations.append(f"{len(orphans)} orphan spans in export")
    if max_residual > MAX_RESIDUAL_NS:
        violations.append(
            f"segment-sum residual {max_residual:.3g} ns > "
            f"{MAX_RESIDUAL_NS} ns"
        )

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = RESULTS_DIR / "serving_observability.trace.json"
    metrics_path = RESULTS_DIR / "serving_observability.metrics.jsonl"
    prom_path = RESULTS_DIR / "serving_observability.prom"
    write_chrome_trace(tele, trace_path)
    write_metrics_jsonl(tele, metrics_path)
    write_prometheus(tele, prom_path)
    try:
        validated_spans = validate_trace(str(trace_path))
        validated_lines = validate_metrics(str(metrics_path))
    except ValueError as exc:
        validated_spans = validated_lines = 0
        violations.append(f"schema validation failed: {exc}")
    try:
        prom_series = len(parse_prometheus(prometheus_snapshot(tele)))
    except ValueError as exc:
        prom_series = 0
        violations.append(f"prometheus snapshot unparseable: {exc}")
    exemplars = sum(
        1
        for line in prom_path.read_text().splitlines()
        if "# {" in line
    )
    if exemplars == 0:
        violations.append("no exemplar trace_ids on latency histograms")

    healthy_monitor = BurnRateMonitor()
    service, requests = _chaos_setup(
        n_requests, monitor=healthy_monitor, faults=False, load=0.6
    )
    service.run(requests)
    if healthy_monitor.alerts:
        violations.append(
            f"{len(healthy_monitor.alerts)} burn-rate alerts fired on "
            "the healthy baseline"
        )

    return {
        "bench": "serving_observability",
        "smoke": smoke,
        "requests": {
            "offered": summary["offered"],
            "completed": summary["completed"],
            "shed": summary["shed"],
        },
        "trace": {
            "events": len(events),
            "roots": len(roots),
            "orphans": len(orphans),
            "max_residual_ns": max_residual,
            "validated_spans": validated_spans,
            "validated_metric_lines": validated_lines,
            "prom_series": prom_series,
            "prom_exemplars": exemplars,
        },
        "alerts": {
            "chaos": len(chaos_monitor.alerts),
            "healthy": len(healthy_monitor.alerts),
        },
        "artifacts": {
            "trace": str(trace_path),
            "metrics": str(metrics_path),
            "prometheus": str(prom_path),
        },
        "violations": violations,
    }


def measure_tracing_overhead(smoke: bool = False, repeats: int = 3) -> dict:
    """Wall-clock cost of full tracing vs the NullRecorder fast path.

    Interleaved back-to-back pairs of ``service.run`` on identical
    chaos+repair workloads; the overhead is the *median* of the
    per-pair ratios, which is robust to one noisy host sample in a way
    min-of-N is not. Smoke mode gates the ratio at
    :data:`MAX_TRACING_OVERHEAD`; the full run records it.
    """
    import gc
    import statistics

    from repro.telemetry import telemetry_session

    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    plain_s = []
    traced_s = []

    def _timed(run):
        # collect garbage left by earlier bench phases, then keep the
        # collector out of the timed window — cyclic-gc pauses land
        # disproportionately on the allocation-heavier traced runs
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            run()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    for _ in range(repeats):
        service, requests = _chaos_setup(n_requests)
        plain_s.append(_timed(lambda: service.run(requests)))
        with telemetry_session():
            service, requests = _chaos_setup(n_requests)
            traced_s.append(_timed(lambda: service.run(requests)))
    plain = min(plain_s)
    traced = min(traced_s)
    overhead = statistics.median(
        t / p for p, t in zip(plain_s, traced_s)
    ) - 1.0
    return {
        "bench": "tracing_overhead",
        "smoke": smoke,
        "repeats": repeats,
        "plain_s": plain,
        "traced_s": traced,
        "overhead": overhead,
        "max_overhead": MAX_TRACING_OVERHEAD,
    }


def test_serving_fused_perf_trajectory(benchmark, save_results, tmp_path):
    """Fused serving kernels: big wall-clock win, zero observable drift.

    The smoke record goes to ``tmp_path``: the tracked
    ``BENCH_serving.json`` holds the full-scale run, written only by the
    slow test below and by :func:`main`.
    """
    result = measure_fused_trajectory(smoke=True)
    result["bound_pipeline"] = measure_bound_pipeline(smoke=True)
    save_bench_json(result, tmp_path / "BENCH_serving.json")
    assert result["bound_pipeline"]["identical"]
    wall = result["wall_clock"]
    save_results(
        "serving_fused_trajectory",
        format_table(
            ["kernel", "fused (ms)", "loop (ms)", "speedup", "bits equal"],
            [[
                result["kernel"],
                f"{wall['fused_s'] * 1e3:.2f}",
                f"{wall['reference_s'] * 1e3:.2f}",
                f"{wall['speedup']:.1f}x",
                result["bit_identical"],
            ]],
            title="Perf trajectory: fused serving kernels vs loop reference",
        ),
    )
    assert result["bit_identical"]
    assert result["simulated"]["identical"]
    assert wall["speedup"] >= MIN_FUSED_SPEEDUP

    manager = ShardManager(_dataset(), n_shards=4)
    queries = np.random.default_rng(3).random((MAX_BATCH, DIMS))
    benchmark.pedantic(
        lambda: manager.knn_batch(queries, K), rounds=3, iterations=1
    )


@pytest.mark.slow
def test_serving_fused_perf_trajectory_full():
    """Tier 2: full-scale serving workload behind the recorded JSON.

    The per-kernel record matters here: the assign sweep is the
    loop-bound path (~8x fused), while kNN wall-clock is dominated by
    the shared wave + bound machinery on both sides, so the combined
    ratio understates the kernel win.
    """
    result = measure_fused_trajectory(smoke=False)
    result["bound_pipeline"] = measure_bound_pipeline(smoke=False)
    save_bench_json(result, RESULTS_DIR / "BENCH_serving.json")
    assert result["bound_pipeline"]["identical"]
    assert result["bit_identical"]
    assert result["simulated"]["identical"]
    assert result["wall_clock"]["speedup"] >= MIN_FUSED_SPEEDUP


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_serving_observability_integrity(save_results):
    """Traced chaos run: full span trees, exact attribution, no alarms."""
    result = measure_observability(smoke=True)
    trace = result["trace"]
    save_results(
        "serving_observability",
        format_table(
            ["roots", "orphans", "max residual (ns)", "alerts (healthy)"],
            [[
                trace["roots"],
                trace["orphans"],
                f"{trace['max_residual_ns']:.3g}",
                result["alerts"]["healthy"],
            ]],
            title="Observability: traced chaos+repair serving run",
        ),
    )
    assert result["violations"] == []


def test_serving_throughput_scaling(benchmark, save_results):
    result = run_sweep(smoke=True)
    save_results("serving_scaling", format_report(result))
    save_curve(result, RESULTS_DIR / "serving_latency_curve.json")
    scaling = result["scaling"]
    assert scaling["ratio_4_over_1"] >= MIN_SCALING
    # saturation really saturates: the overloaded point sheds traffic
    overloaded = result["series"][0]["points"][-1]
    assert overloaded["shed_rate"] > 0.0

    manager = ShardManager(_dataset(), n_shards=4)
    queries = np.random.default_rng(3).random((MAX_BATCH, DIMS))
    benchmark.pedantic(
        lambda: manager.knn_batch(queries, K), rounds=3, iterations=1
    )


# ----------------------------------------------------------------------
# CLI mode (used by the CI serving job)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="serving-layer throughput/latency-curve bench"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweep (CI-sized); same assertions",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "serving_latency_curve.json"),
        metavar="FILE", help="latency-curve JSON artifact path",
    )
    parser.add_argument(
        "--perf-out", default=str(RESULTS_DIR / "BENCH_serving.json"),
        metavar="FILE", help="fused-kernel perf-trajectory JSON path",
    )
    add_telemetry_args(parser)
    args = parser.parse_args(argv)
    with telemetry_scope(args):
        result = run_sweep(smoke=args.smoke)
    print(format_report(result))
    save_curve(result, Path(args.out))
    print(f"latency curve  : {args.out}")
    perf = measure_fused_trajectory(smoke=args.smoke)
    perf["bound_pipeline"] = measure_bound_pipeline(smoke=args.smoke)
    obs = measure_observability(smoke=args.smoke)
    overhead = measure_tracing_overhead(smoke=args.smoke)
    perf["observability"] = obs
    perf["tracing_overhead"] = overhead
    save_bench_json(perf, Path(args.perf_out))
    wall = perf["wall_clock"]
    print(
        f"fused serving  : {wall['speedup']:.1f}x vs loop reference "
        f"(bit_identical={perf['bit_identical']}, "
        f"simulated_identical={perf['simulated']['identical']}) "
        f"-> {args.perf_out}"
    )
    bound = perf["bound_pipeline"]
    print(
        f"bound pipeline : {bound['speedup']:.1f}x canonical "
        f"{bound['prefix_rows']}-row prefix vs full lexsort "
        f"(identical={bound['identical']}, "
        f"batch {bound['batch']} x {bound['n_local']:,} rows)"
    )
    trace = obs["trace"]
    print(
        f"observability  : {trace['roots']} span trees / "
        f"{obs['requests']['offered']} requests, "
        f"{trace['orphans']} orphans, "
        f"residual {trace['max_residual_ns']:.2g} ns, "
        f"{trace['prom_series']} prom series "
        f"({trace['prom_exemplars']} exemplars), "
        f"alerts healthy={obs['alerts']['healthy']} "
        f"chaos={obs['alerts']['chaos']}"
    )
    print(
        f"tracing cost   : {overhead['overhead']:+.1%} wall clock "
        f"(traced {overhead['traced_s'] * 1e3:.1f} ms vs "
        f"plain {overhead['plain_s'] * 1e3:.1f} ms; "
        f"smoke ceiling {MAX_TRACING_OVERHEAD:.0%})"
    )
    ratio = result["scaling"]["ratio_4_over_1"]
    if ratio < MIN_SCALING:
        print(
            f"FAIL: 1->4 shard scaling {ratio:.2f}x < {MIN_SCALING}x",
            file=sys.stderr,
        )
        return 1
    if not (perf["bit_identical"] and perf["simulated"]["identical"]):
        print(
            "FAIL: fused serving kernels moved bits or nanoseconds",
            file=sys.stderr,
        )
        return 1
    if not bound["identical"]:
        print(
            "FAIL: canonical prefix differs from the full lexsort",
            file=sys.stderr,
        )
        return 1
    if wall["speedup"] < MIN_FUSED_SPEEDUP:
        print(
            f"FAIL: fused serving speedup {wall['speedup']:.2f}x < "
            f"{MIN_FUSED_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    if obs["violations"]:
        for violation in obs["violations"]:
            print(f"FAIL: observability: {violation}", file=sys.stderr)
        return 1
    if args.smoke and overhead["overhead"] > MAX_TRACING_OVERHEAD:
        print(
            f"FAIL: tracing overhead {overhead['overhead']:.1%} > "
            f"{MAX_TRACING_OVERHEAD:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

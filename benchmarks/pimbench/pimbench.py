#!/usr/bin/env python3
"""pimbench: end-to-end host speed, exactness and per-layer attribution.

Run from the repository root::

    python3 benchmarks/pimbench/pimbench.py run [--workload W] [--seed S]
        [--seconds N] [--quick] [--trace 0|1] [--out FILE] [--label L]
    python3 benchmarks/pimbench/pimbench.py trace [same options]
    python3 benchmarks/pimbench/pimbench.py compare PARENT.json[:L] CHILD.json[:L]

``run`` measures each workload in fresh single-threaded worker
processes, one at a time, prints every end-to-end metric with its unit,
median, quartiles and sample count, checks every answer against a clean
single-array oracle, and exits non-zero on any mismatch or failed gate.
``trace`` (or ``run --trace 1``) reports the per-layer host-time
attribution instead. ``compare`` judges a child record against a parent
record. The last line of ``run``/``trace`` output is one JSON object.
See README.md for the workloads, metrics and noise protocol.

This file uses the standard library only: the parent never imports
NumPy, so the only computing thread is the current worker's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".pimbench"
WORKLOADS = ("knn-clean", "assign-mix", "knn-faulted", "mine-offline")
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_REPS = 3
MAX_REPS = 40
WORKER_TIMEOUT_S = 170
RECORD_SCHEMA = "pimbench-record/1"
#: Units of the three host-time figures reported for every layer.
LAYER_UNITS = {"share": "ratio", "us_per_op": "us", "calls_per_op": "count"}
#: Exact counts of the per-layer report (read from public results).
COUNT_UNITS = {
    "hardware.wave.queries_per_call": "count",
    "serving.sharding.refined_per_query": "count",
    "serving.sharding.prune_ratio": "ratio",
    "serving.service.batch_mean": "count",
    "serving.service.sim_queue_us_p50": "us",
    "serving.recovery.attempts_per_dispatch": "count",
    "serving.recovery.retries": "count",
    "serving.recovery.failovers": "count",
    "serving.recovery.corrupt_detected": "count",
    "serving.recovery.hedges": "count",
    "serving.recovery.hedge_win_ratio": "ratio",
    "serving.recovery.degraded_chunks": "count",
    "repair.events": "count",
}
SIM_UNITS = {
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_qps": "1/s",
    "sim_speedup": "x",
}


class BenchError(Exception):
    """A run that cannot produce a result (worker crash, bad input)."""


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: list[float], unit: str, value: float | None = None) -> dict:
    q1, med, q3 = quartiles(values)
    return {
        "value": med if value is None else value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


# ----------------------------------------------------------------------
# environment and workers
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": dict(THREAD_ENV),
    }


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def spawn_worker(workload, seed, quick, trace, rep, oracle) -> dict:
    """One rep in a fresh process; returns its result dict."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "worker",
        "--workload", workload, "--seed", str(seed),
        "--quick", str(int(quick)), "--trace", str(int(trace)),
        "--rep", str(rep), "--oracle", str(oracle),
    ]
    start = time.monotonic()
    try:
        done = subprocess.run(
            cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} rep {rep} did not finish in {WORKER_TIMEOUT_S}s"
        ) from None
    if done.returncode != 0:
        raise BenchError(
            f"{workload} rep {rep} worker exited with {done.returncode}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} rep {rep} worker printed no result")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def run_workload(spec, workload, seed, seconds, quick, trace) -> dict:
    """All reps of one workload, one worker at a time, then the summary.

    Reps repeat until ``seconds`` would be exceeded (at least
    ``MIN_REPS``); ``--quick`` runs one. The first rep computes the
    oracle and leaves it for the others.
    """
    oracle = WORK_DIR / f"oracle-{workload}-s{seed}-q{int(quick)}-{os.getpid()}.npz"
    reps: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            reps.append(spawn_worker(workload, seed, quick, trace, len(reps), oracle))
            if quick or len(reps) >= MAX_REPS:
                break
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed + reps[-1]["wall_s"] > seconds:
                break
    finally:
        oracle.unlink(missing_ok=True)
    return summarize_run(spec, workload, seed, seconds, quick, trace, reps,
                         time.monotonic() - start)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def end_to_end(spec: dict, reps: list[dict], normalize: bool = True) -> dict:
    """The end-to-end metrics of one run.

    Host times are divided by the host slowdown measured around them
    (see ``hostspeed.py``) unless ``normalize`` is false, which gives
    the raw values printed beside them. The dispatch percentiles are
    taken per rep over its calls, and the median over reps is reported
    (``n`` counts the calls); each rep serves the same inputs, so every
    rep's percentile estimates the same quantity.
    """
    norm = "_norm" if normalize else ""
    per_rep = {
        "ops_per_s": [rep["ops"] / rep[f"measured{norm}_s"] for rep in reps],
        "setup_s": [
            rep["setup_s"] / (rep["setup_slowdown"] if normalize else 1.0)
            for rep in reps
        ],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
    }
    for name, p in (("dispatch_ms_p50", 50.0), ("dispatch_ms_p99", 99.0)):
        per_rep[name] = [
            percentile(rep[f"samples{norm}_ms"], p) for rep in reps
        ]
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = summary(per_rep[m["name"]], m["unit"])
        if m["name"].startswith("dispatch_ms"):
            metrics[m["name"]]["n"] = sum(len(r["samples_ms"]) for r in reps)
    return metrics


def per_layer(reps: list[dict]) -> dict:
    """Every per-layer figure of a traced run, ``name -> (value, unit)``.

    ``BENCHMARK.json`` lists the subset a later change is judged by;
    the rest is printed and recorded beside it.
    """
    values, units = {}, {}
    shares = []
    for layer in reps[0]["traced"]["layers"]:
        rows = {key: [] for key in LAYER_UNITS}
        for rep in reps:
            t = rep["traced"]
            entry = t["layers"][layer]
            # normalized self time: scaled by the phase's mean slowdown
            self_norm_s = entry["self_ns"] / 1e9 * t["measured_norm_s"] / t["measured_s"]
            rows["share"].append(entry["self_ns"] / 1e9 / t["measured_s"])
            rows["us_per_op"].append(self_norm_s * 1e6 / t["ops"])
            rows["calls_per_op"].append(entry["calls"] / t["ops"])
        for key, unit in LAYER_UNITS.items():
            values[f"{layer}.{key}"] = statistics.median(rows[key])
            units[f"{layer}.{key}"] = unit
        shares.append(values[f"{layer}.share"])
    # residual so the reported shares sum to exactly 1
    values["other.share"] = 1.0 - sum(shares)
    units["other.share"] = "ratio"
    wave = [rep["traced"]["layers"]["hardware.wave"] for rep in reps]
    values["hardware.wave.queries_per_call"] = statistics.median(
        w["work"] / w["calls"] if w["calls"] else 0.0 for w in wave
    )
    for name, unit in COUNT_UNITS.items():
        values.setdefault(name, reps[0]["counts"].get(name, 0.0))
        units[name] = unit
    traced_ops = statistics.median(
        rep["traced"]["ops"] / rep["traced"]["measured_norm_s"] for rep in reps
    )
    plain_ops = statistics.median(
        rep["ops"] / rep["measured_norm_s"] for rep in reps
    )
    values["trace_overhead"] = 1.0 - traced_ops / plain_ops
    units["trace_overhead"] = "ratio"
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def summarize_run(spec, workload, seed, seconds, quick, trace, reps, wall_s):
    digests = {rep["sim_digest"] for rep in reps}
    if trace:
        digests |= {rep["traced"]["sim_digest"] for rep in reps}
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    mismatches = sum(rep["mismatches"] for rep in reps)
    gates = {
        name: {"observed": value, "passed": passed}
        for name, (value, passed) in reps[0]["gates"].items()
    }
    gates_ok = all(
        passed for rep in reps for _, passed in rep["gates"].values()
    )
    run = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "seconds": seconds,
        "reps": len(reps),
        "wall_s": wall_s,
        "env": environment(reps[0]["numpy"]),
        "rate_qps": reps[0].get("rate_qps"),
        "metrics": end_to_end(spec, reps),
        "raw": end_to_end(spec, reps, normalize=False),
        "slowdown": summary(
            [rep["measured_s"] / rep["measured_norm_s"] for rep in reps], "x"
        ),
        "extra": {
            "gen_s": summary([rep["gen_s"] for rep in reps], "s"),
            "fail_ratio": failed / attempted,
            "exact_mismatches": mismatches,
        },
        "sim": reps[0]["sim"],
        "sim_digest": reps[0]["sim_digest"],
        "deterministic": len(digests) == 1,
        "gates": gates,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        run["layers"] = per_layer(reps)
        run["spans"] = reps[0]["traced"]["spans"]
    run["correct"] = mismatches == 0 and gates_ok and run["deterministic"]
    return run


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.6g}"
    return f"{value:.4e}"


def print_environment(env: dict) -> None:
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(
        f"env: git {env['git_sha'][:12]}  python {env['python']}  "
        f"numpy {env['numpy']}  nproc {env['nproc']}  {threads}"
    )


def print_run(run: dict) -> None:
    head = f"\n== {run['workload']}  seed {run['seed']}  {run['reps']} reps"
    head += f" in {run['wall_s']:.1f}s" + ("  (quick)" if run["quick"] else "")
    print(head)
    if run["rate_qps"] is not None:
        print(
            f"load: open loop, Poisson in simulated time at "
            f"{run['rate_qps']:,.0f} req/s (a fixed fraction of simulated "
            "capacity); the trace is generated before the clock starts, so "
            "generator lateness is 0 by construction"
        )
    slow = run["slowdown"]
    print(
        f"host slowdown {fmt(slow['value'])} [{fmt(slow['q1'])}, "
        f"{fmt(slow['q3'])}] against the reference kernel: host times are "
        "divided by it; raw is the undivided median"
    )
    print(
        f"  {'metric':<20} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'n':>7} {'raw':>12}"
    )
    rows = dict(run["metrics"])
    rows["gen_s"] = run["extra"]["gen_s"]
    for name, m in rows.items():
        raw = run["raw"].get(name, m)["value"]
        print(
            f"  {name:<20} {m['unit']:<6} {fmt(m['value']):>12} "
            f"{fmt(m['q1']):>12} {fmt(m['q3']):>12} {m['n']:>7} {fmt(raw):>12}"
        )
    for name, value in run["sim"].items():
        print(f"  {name:<20} {SIM_UNITS[name]:<6} {fmt(value):>12}   exact")
    extra = run["extra"]
    print(
        f"  {'fail_ratio':<20} {'ratio':<6} {fmt(extra['fail_ratio']):>12}   "
        f"{run['failed']}/{run['attempted']} failed"
    )
    print(
        f"  {'exact_mismatches':<20} {'count':<6} "
        f"{extra['exact_mismatches']:>12}   against the clean single-array oracle"
    )
    print(
        f"  sim_digest {run['sim_digest']}"
        + ("" if run["deterministic"] else "  NOT IDENTICAL ACROSS REPS/PHASES")
    )
    gates = "  ".join(
        f"{name}={fmt(g['observed'])}{'' if g['passed'] else ' FAILED'}"
        for name, g in run["gates"].items()
    )
    print(f"  gates: {gates}")
    if "layers" in run:
        print(f"  per-layer host time ({run['spans']} spans in rep 0):")
        for name, m in run["layers"].items():
            print(f"    {name:<40} {m['unit']:<6} {fmt(m['value']):>12}")
    print(f"  correct: {run['correct']}")


def contract_line(spec: dict, runs: list[dict], trace: bool) -> dict:
    """The last output line: the metrics ``BENCHMARK.json`` declares."""
    key, declared = ("layers", "per_layer") if trace else ("metrics", "end_to_end")
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        for m in spec[declared]:
            value = run[key][m["name"]]["value"]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def spreads(record: dict) -> dict:
    """Run-to-run spread of every end-to-end metric, per label and workload.

    ``spread`` is the interquartile range of the per-run values as a
    share of their median (``statistics.quantiles(values, n=4)``).
    """
    out: dict = {}
    for (label, workload), runs in sorted(grouped_runs(record).items()):
        per_metric = {}
        for name in runs[0]["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            per_metric[name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(runs),
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out.setdefault(label, {})[workload] = per_metric
    return out


def append_record(path: Path, runs: list[dict]) -> None:
    """Add this invocation's runs to the record at ``path``."""
    record = {"schema": RECORD_SCHEMA, "runs": []}
    if path.exists():
        record = load_record(path)
    record["runs"].extend(runs)
    record["spread"] = spreads(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    tmp.replace(path)


def load_record(path: Path) -> dict:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("schema") != RECORD_SCHEMA:
        raise BenchError(f"{path} is not a {RECORD_SCHEMA} record")
    return record


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Judge child runs ``b`` against parent runs ``a`` of one metric.

    ``improved`` needs at least ten pairs, a 9/10 win rate and a median
    gain larger than the parent's interquartile range; ``unresolved``
    means the parent's own spread exceeds the bound (unless every child
    run beats every parent run); ``REGRESSED`` means the child median is
    worse by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    gain = sign * (med_b - med_a)
    spread = (q3a - q1a) / med_a if med_a else 0.0
    worse = max(0.0, -gain) / med_a if med_a else 0.0
    dominates = (
        min(b) > max(a) if better == "higher" else max(b) < min(a)
    )
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "REGRESSED"
    else:
        outcome = "no change"
    return {
        "parent": (med_a, q1a, q3a, len(a)),
        "child": (med_b, q1b, q3b, len(b)),
        "change": gain / med_a if med_a else 0.0,
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": outcome,
    }


def grouped_runs(record: dict) -> dict:
    """Untraced runs keyed by ``(label, workload)``, ordered by seed."""
    grouped: dict[tuple, list[dict]] = {}
    for run in record["runs"]:
        if not run["trace"]:
            key = (run.get("label", ""), run["workload"])
            grouped.setdefault(key, []).append(run)
    for runs in grouped.values():
        runs.sort(key=lambda r: r["seed"])
    return grouped


def select(arg: str) -> dict:
    """``FILE`` or ``FILE:LABEL``: a record's untraced runs by workload."""
    path, _, label = arg.rpartition(":")
    if not path or not Path(path).exists():
        path, label = arg, None
    grouped = grouped_runs(load_record(Path(path)))
    by_workload: dict[str, list[dict]] = {}
    for (run_label, workload), runs in grouped.items():
        if label is None or run_label == label:
            by_workload.setdefault(workload, []).extend(runs)
    if not by_workload:
        raise BenchError(f"{arg}: no untraced runs")
    return by_workload


def side(stats: tuple) -> str:
    median, q1, q3, n = stats
    return f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}] {n}"


def compare(spec: dict, a_runs: dict, b_runs: dict) -> int:
    bad = 0
    print(
        f"{'workload':<13} {'metric':<16} {'parent median [q1, q3] n':<34} "
        f"{'child median [q1, q3] n':<34} {'change':>8} {'bound':>6} "
        f"{'wins':>6}  verdict"
    )
    for workload in [w for w in WORKLOADS if w in a_runs and w in b_runs]:
        a, b = a_runs[workload], b_runs[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = verdict(
                [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b],
                metric["better"],
                metric["bound"],
            )
            bad += v["verdict"] == "REGRESSED"
            print(
                f"{workload:<13} {name:<16} {side(v['parent']):<34} "
                f"{side(v['child']):<34} {v['change']:>+8.1%} "
                f"{metric['bound']:>6.0%} {v['wins']:>2}/{v['pairs']:<3}  "
                f"{v['verdict']}"
            )
        # simulated results must not move: compare runs of equal seeds
        a_seed = {r["seed"]: r for r in a}
        same = [
            (a_seed[r["seed"]], r) for r in b if r["seed"] in a_seed
            and a_seed[r["seed"]]["quick"] == r["quick"]
        ]
        differ = [
            x["seed"] for x, y in same
            if x["sim_digest"] != y["sim_digest"] or x["sim"] != y["sim"]
        ]
        bad += bool(differ)
        status = (
            f"sim DIFFERS on seeds {differ}" if differ
            else f"sim identical on {len(same)} shared seeds"
        )
        print(f"{workload:<13} {'sim_digest':<16} {status}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def worker_main(args) -> int:
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    result = workloads.run_rep(
        args.workload, args.seed, bool(args.quick), bool(args.trace),
        args.rep, Path(args.oracle),
    )
    result["import_s"] = import_s
    result["setup_s"] = import_s + result["construct_s"]
    result["numpy"] = workloads.np.__version__
    print(json.dumps(result, default=lambda o: o.item()))
    return 0


def run_main(args, trace: bool) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    WORK_DIR.mkdir(exist_ok=True)
    runs = []
    for workload in chosen:
        run = run_workload(spec, workload, args.seed, seconds, args.quick, trace)
        run["label"] = args.label
        if not runs:
            print_environment(run["env"])
        print_run(run)
        runs.append(run)
    if args.out:
        append_record(Path(args.out), runs)
    line = contract_line(spec, runs, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pimbench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "measure end-to-end metrics (or per-layer with --trace 1)"),
        ("trace", "measure per-layer host-time attribution"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workload", choices=WORKLOADS, default=None,
                       help="one workload (default: all four)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None,
                       help="wall time to spend per workload "
                       "(default: run_seconds of BENCHMARK.json)")
        p.add_argument("--quick", action="store_true",
                       help="one small rep per workload (self-test size)")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out", default=None,
                       help="append the runs to this JSON record")
        p.add_argument("--label", default="",
                       help="tag the runs in the record (compare FILE:LABEL)")
    cmp = sub.add_parser("compare", help="judge a child record against a parent")
    cmp.add_argument("parent", help="record FILE or FILE:LABEL")
    cmp.add_argument("child", help="record FILE or FILE:LABEL")
    w = sub.add_parser("worker")  # internal: one rep, prints a JSON dict
    w.add_argument("--workload", choices=WORKLOADS, required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--quick", type=int, choices=(0, 1), required=True)
    w.add_argument("--trace", type=int, choices=(0, 1), required=True)
    w.add_argument("--rep", type=int, required=True)
    w.add_argument("--oracle", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "worker":
            return worker_main(args)
        if args.command == "compare":
            return compare(load_spec(), select(args.parent), select(args.child))
        return run_main(args, trace=args.command == "trace" or args.trace == 1)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"pimbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Shared scaffolding for the gated benches.

``bench_faults``, ``bench_repair``, ``bench_chaos``, ``bench_dr`` and
``bench_substrate`` each define their constants, an ``OUT`` file name
and three functions — ``run_bench(smoke, out) -> dict``,
``check(result) -> list[str]`` (gate failures, empty = pass) and
``format_report(result) -> str`` — and hand their module to
:func:`main` (CLI mode) or :func:`record` (pytest mode). This module
holds the rest: the ``--smoke/--out`` + telemetry CLI, the traced-run
write-and-validate block, and the request-trace serving loop with its
clean-vs-faulted exactness comparison.

Every file a run writes is derived from its ``--out`` path: the JSON
record itself, and for traced benches ``<stem>.trace.json`` and
``<stem>.metrics.jsonl`` beside it. Only pytest mode, whose ``out``
is ``benchmarks/results/<OUT>``, refreshes the committed records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.cli import add_telemetry_args, telemetry_scope
from repro.serving import QueryService, SLOTracker, WorkloadDriver
from repro.telemetry import telemetry_session
from repro.telemetry.export import write_chrome_trace, write_metrics_jsonl
from repro.telemetry.validate import validate_metrics, validate_trace

RESULTS_DIR = Path(__file__).parent / "results"


def save_json(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def _bench_gate(bench, smoke: bool, out: Path) -> tuple[dict, list]:
    result = bench.run_bench(smoke=smoke, out=out)
    save_json(result, out)
    return result, bench.check(result)


def main(bench, argv=None) -> int:
    """CLI mode: run, print the report, save ``--out``, exit 1 on a
    failed gate."""
    parser = argparse.ArgumentParser(
        description=bench.__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced trace (CI-sized); same assertions",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / bench.OUT), metavar="FILE",
        help="JSON record path (a traced run writes its trace and "
        "metrics beside it)",
    )
    add_telemetry_args(parser)
    args = parser.parse_args(argv)
    with telemetry_scope(args):
        result, failures = _bench_gate(bench, args.smoke, Path(args.out))
    print(bench.format_report(result))
    print(f"record         : {args.out}")
    if "telemetry" in result:
        print(
            f"telemetry      : {result['telemetry']['span_events']} spans, "
            f"{result['telemetry']['metric_lines']} metric lines validated"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def record(bench, save_results, name: str) -> None:
    """Pytest mode: run the smoke bench, refresh its committed records
    under ``benchmarks/results/`` and assert every gate."""
    result, failures = _bench_gate(bench, True, RESULTS_DIR / bench.OUT)
    save_results(name, bench.format_report(result))
    assert not failures, "; ".join(failures)


def traced(out: Path, run):
    """Call ``run()`` under a telemetry session; write its trace and
    metrics beside ``out`` and schema-validate both. Returns
    ``(run's value, telemetry record)``."""
    trace_path = out.with_name(out.stem + ".trace.json")
    metrics_path = out.with_name(out.stem + ".metrics.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    with telemetry_session() as tele:
        value = run()
    write_chrome_trace(tele, str(trace_path))
    write_metrics_jsonl(tele, str(metrics_path))
    return value, {
        "trace_file": trace_path.name,
        "metrics_file": metrics_path.name,
        "span_events": validate_trace(str(trace_path)),
        "metric_lines": validate_metrics(str(metrics_path)),
    }


def request_trace(data, tenants, rate_qps: float, n_requests: int) -> list:
    """The deterministic open-loop request trace (build a fresh one per
    run — the service mutates requests in place)."""
    driver = WorkloadDriver(data, tenants, seed=1234)
    return driver.open_loop(rate_qps, n_requests, arrival="poisson")


def serve_trace(manager, tenants, requests, max_batch: int, repair=None):
    """Serve ``requests`` through a reject-on-overflow service; returns
    ``(service, service.summary())``."""
    service = QueryService(
        manager,
        tenants,
        max_batch=max_batch,
        queue_capacity=64,
        policy="reject",
        tracker=SLOTracker(),
        repair=repair,
    )
    service.run(requests)
    return service, service.summary()


def exactness_violations(clean, faulted) -> list[dict]:
    """Completed faulted responses that differ from the clean run's."""
    reference = {r.request_id: r for r in clean.responses}
    violations = []
    for response in sorted(faulted.responses, key=lambda r: r.request_id):
        if not response.ok:
            continue
        rid = response.request_id
        expected = reference.get(rid)
        if expected is None or not expected.ok:
            violations.append({"request": rid, "kind": "no_reference"})
        elif not (
            np.array_equal(response.indices, expected.indices)
            and np.array_equal(response.scores, expected.scores)
        ):
            violations.append({"request": rid, "kind": "mismatch"})
    return violations

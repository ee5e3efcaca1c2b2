"""Chaos bench: exact recovery of the serving layer under injected faults.

The robustness claim behind :mod:`repro.faults` + the recovery machinery
in :mod:`repro.serving`: with k-replica placement, a seeded fault plan
that kills one of four shards mid-run and corrupts a slice of its waves
must not change a single answer. Concretely this bench drives the same
deterministic request trace twice — once fault-free, once under a
:meth:`~repro.faults.FaultPlan.chaos` schedule — and checks:

* **exactness** — every completed response of the chaos run is
  bit-identical (indices and scores) to the fault-free run;
* **availability** — the chaos run completes at least
  ``MIN_AVAILABILITY`` of offered requests (replication absorbs the
  shard death);
* **detection** — corrupted waves are flagged by the residue checksum
  (never silently used), at a rate consistent with the injected
  corruption;
* **overhead** — programming + verifying the checksum row costs at most
  ``MAX_VERIFY_OVERHEAD`` of clean-path service time;
* **telemetry** — the emitted trace and metrics files pass the schema
  validator, and a fault-timeline JSON artifact records the plan, the
  recovery counters and the final per-shard health.

Dual mode: a pytest bench (``pytest benchmarks/bench_faults.py``) and a
standalone CLI (``python benchmarks/bench_faults.py --smoke --out F``)
run by CI's ``gated-benches`` job; see :mod:`gates`.
"""

from __future__ import annotations

import sys

import numpy as np

import gates
from repro.core.report import format_table
from repro.faults import FaultPlan
from repro.serving import ShardManager, TenantSpec

OUT = "fault_timeline.json"

N_ROWS = 2048
DIMS = 64
K = 10
N_SHARDS = 4
REPLICATION = 2
MAX_BATCH = 8
N_REQUESTS = 96
SMOKE_REQUESTS = 48
FAULT_SEED = 7
#: Acceptance floors/ceilings (CI's gated-benches job runs them).
MIN_AVAILABILITY = 0.99
MAX_VERIFY_OVERHEAD = 0.05
#: Corrupted-row flags per wave attempt under the chaos plan must at
#: least reach this — the plan corrupts ~15% of one shard's rows, so a
#: healthy detector sits far above 1%.
MIN_CORRUPT_RATE = 0.01

TENANTS = [
    TenantSpec("batch", workload="near", k=K, weight=1.0),
    TenantSpec("interactive", workload="uniform", k=K, weight=1.0),
]


def _dataset() -> np.ndarray:
    return np.random.default_rng(42).random((N_ROWS, DIMS))


def _probe_rate(data: np.ndarray) -> float:
    """Offered load at ~80% of clean single-node capacity."""
    manager = ShardManager(data, n_shards=N_SHARDS)
    probe = np.random.default_rng(7).random((MAX_BATCH, DIMS))
    _, timing = manager.knn_batch(probe, K)
    return 0.8 * MAX_BATCH * 1e9 / timing.service_ns


def _serve(data: np.ndarray, requests: list, fault_plan):
    manager = ShardManager(
        data,
        n_shards=N_SHARDS,
        replication=REPLICATION,
        fault_plan=fault_plan,
    )
    return gates.serve_trace(manager, TENANTS, requests, MAX_BATCH)


def _verify_overhead(data: np.ndarray) -> dict:
    """Clean-path cost of the residue checksum (program + verify)."""
    probe = np.random.default_rng(11).random((MAX_BATCH, DIMS))
    plain = ShardManager(data, n_shards=N_SHARDS, verify=False)
    _, t_plain = plain.knn_batch(probe, K)
    checked = ShardManager(data, n_shards=N_SHARDS, verify=True)
    _, t_checked = checked.knn_batch(probe, K)
    overhead = t_checked.service_ns / t_plain.service_ns - 1.0
    return {
        "plain_service_ns": float(t_plain.service_ns),
        "verified_service_ns": float(t_checked.service_ns),
        "overhead": float(overhead),
        "max_allowed": MAX_VERIFY_OVERHEAD,
    }


def run_bench(smoke: bool, out) -> dict:
    """Clean run vs chaos run + overhead probe + telemetry validation."""
    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    data = _dataset()
    rate = _probe_rate(data)

    clean, clean_summary = _serve(
        data, gates.request_trace(data, TENANTS, rate, n_requests), None
    )

    requests = gates.request_trace(data, TENANTS, rate, n_requests)
    horizon_ns = 1.05 * max(r.arrival_ns for r in requests)
    plan = FaultPlan.chaos(N_SHARDS, horizon_ns, seed=FAULT_SEED)
    (chaos, chaos_summary), telemetry = gates.traced(
        out, lambda: _serve(data, requests, plan)
    )
    manager = chaos.manager

    recovery = chaos_summary["recovery"]
    corrupt_rate = recovery["corrupt_detected"] / max(
        recovery["attempts"], 1
    )
    overhead = _verify_overhead(data)
    result = {
        "meta": {
            "n_rows": N_ROWS,
            "dims": DIMS,
            "k": K,
            "n_shards": N_SHARDS,
            "replication": REPLICATION,
            "n_requests": n_requests,
            "rate_qps": float(rate),
            "fault_seed": FAULT_SEED,
            "horizon_ns": float(horizon_ns),
            "smoke": smoke,
        },
        "fault_plan": plan.describe(),
        "clean": {
            "completed": clean_summary["completed"],
            "p99_ns": clean_summary["p99_ns"],
        },
        "chaos": {
            "completed": chaos_summary["completed"],
            "availability": chaos_summary["availability"],
            "retry_rate": chaos_summary["retry_rate"],
            "mttr_ns": chaos_summary["mttr_ns"],
            "p99_ns": chaos_summary["p99_ns"],
            "degraded_exact": chaos_summary["degraded_exact"],
            "recovery": recovery,
            "corrupt_rate": float(corrupt_rate),
            "dead_shards": manager.health.dead_shards,
            "health": manager.health.snapshot(
                float(manager._clock_ns)
            ),
        },
        "exactness_violations": gates.exactness_violations(clean, chaos),
        "verify_overhead": overhead,
        "telemetry": telemetry,
        "thresholds": {
            "min_availability": MIN_AVAILABILITY,
            "max_verify_overhead": MAX_VERIFY_OVERHEAD,
            "min_corrupt_rate": MIN_CORRUPT_RATE,
        },
    }
    return result


def check(result: dict) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    chaos = result["chaos"]
    if result["exactness_violations"]:
        failures.append(
            f"{len(result['exactness_violations'])} completed responses "
            "differ from the fault-free run"
        )
    if chaos["availability"] < MIN_AVAILABILITY:
        failures.append(
            f"availability {chaos['availability']:.2%} < "
            f"{MIN_AVAILABILITY:.0%}"
        )
    if not chaos["dead_shards"]:
        failures.append("the chaos plan killed no shard (bench mis-sized)")
    if chaos["corrupt_rate"] < MIN_CORRUPT_RATE:
        failures.append(
            f"corrupt detection rate {chaos['corrupt_rate']:.2%} < "
            f"{MIN_CORRUPT_RATE:.0%} — injected corruption went unseen"
        )
    overhead = result["verify_overhead"]["overhead"]
    if overhead > MAX_VERIFY_OVERHEAD:
        failures.append(
            f"verify overhead {overhead:.2%} > {MAX_VERIFY_OVERHEAD:.0%}"
        )
    return failures


def format_report(result: dict) -> str:
    chaos = result["chaos"]
    rec = chaos["recovery"]
    rows = [
        ["completed", result["clean"]["completed"], chaos["completed"]],
        [
            "p99 (us)",
            f"{result['clean']['p99_ns'] / 1e3:.1f}",
            f"{chaos['p99_ns'] / 1e3:.1f}",
        ],
        ["availability", "100%", f"{chaos['availability']:.2%}"],
        ["crashes", 0, rec["crashes"]],
        ["corrupt flags", 0, rec["corrupt_detected"]],
        ["failovers", 0, rec["failovers"]],
        ["retries", 0, rec["retries"]],
        ["degraded chunks", 0, rec["degraded_chunks"]],
        ["dead shards", "[]", str(chaos["dead_shards"])],
        [
            "exactness violations",
            0,
            len(result["exactness_violations"]),
        ],
    ]
    overhead = result["verify_overhead"]["overhead"]
    return format_table(
        ["metric", "clean", "chaos"],
        rows,
        title=(
            f"Chaos recovery: {N_SHARDS} shards x{REPLICATION} replicas, "
            f"seed {FAULT_SEED} — verify overhead {overhead:.2%} "
            f"(cap {MAX_VERIFY_OVERHEAD:.0%})"
        ),
    )


def test_chaos_recovery(benchmark, save_results):
    gates.record(sys.modules[__name__], save_results, "fault_recovery")

    data = _dataset()
    plan = FaultPlan.chaos(N_SHARDS, 1e8, seed=FAULT_SEED)
    manager = ShardManager(
        data, n_shards=N_SHARDS, replication=REPLICATION, fault_plan=plan
    )
    queries = np.random.default_rng(3).random((MAX_BATCH, DIMS))
    benchmark.pedantic(
        lambda: manager.knn_batch(queries, K), rounds=3, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(gates.main(sys.modules[__name__]))

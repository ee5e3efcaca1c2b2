"""Self-healing bench: scrub, remap, re-replicate — without losing a byte.

The claim behind :mod:`repro.repair`: a serving node under *silent*
sustained faults (stuck cells flipped between queries, a shard killed
mid-run) heals itself in background idle time — and heals usefully.
This bench drives one deterministic request trace three ways — clean,
faulted with PR-4 failover only, and faulted with the full repair loop —
and checks:

* **detection** — the background scrubber flags 100% of the injected
  silent corruptions within one scrub period of the defect appearing
  (the per-query path would only find them on an unlucky dispatch);
* **usefulness** — the repair run's degraded-recompute rate is
  *strictly lower* than the failover-only baseline's: remapping the
  stuck crossbars onto spares returns shards to PIM service instead of
  recomputing their chunks on the host forever;
* **redundancy** — every chunk is back at its target replica count by
  the end of the run (the killed shard's chunks were re-replicated
  under the repair-bandwidth budget);
* **exactness** — zero violations: every completed response of the
  repair run is bit-identical to the fault-free run;
* **telemetry** — the emitted trace and metrics validate, and a
  repair-timeline JSON artifact records every detect/remap/
  re-replicate/quarantine event plus final health and wear.

Dual mode: a pytest bench (``pytest benchmarks/bench_repair.py``) and a
standalone CLI (``python benchmarks/bench_repair.py --smoke --out F``)
run by CI's ``gated-benches`` job; see :mod:`gates`.
"""

from __future__ import annotations

import sys

import numpy as np

import gates
from repro.core.report import format_table
from repro.faults import FaultPlan
from repro.repair import RepairController, RepairPolicy
from repro.serving import RecoveryPolicy, ShardManager, TenantSpec

OUT = "repair_timeline.json"

N_ROWS = 960
DIMS = 32
K = 10
N_SHARDS = 4
REPLICATION = 2
#: Spares per shard; each stuck shard needs its whole data allocation
#: remappable in the worst case (a 5% stuck fraction touches nearly
#: every vector group).
SPARE_CROSSBARS = 64
MAX_BATCH = 4
N_REQUESTS = 64
SMOKE_REQUESTS = 40
FAULT_SEED = 3
QUARANTINE_PROBES = 2
#: Offered load: deliberately light (simulated qps) so idle windows
#: exist for the scrubber — repair is background work; a saturated node
#: never scrubs. Simulated time is free, so a long horizon costs no
#: wall-clock.
RATE_QPS = 50.0
#: Scrub sweeps per run horizon.
SWEEPS_PER_HORIZON = 16

TENANTS = [
    TenantSpec("batch", workload="near", k=K, weight=1.0),
    TenantSpec("interactive", workload="uniform", k=K, weight=1.0),
]


def _dataset() -> np.ndarray:
    return np.random.default_rng(42).random((N_ROWS, DIMS))


def _serve(data, requests, fault_plan, scrub_period_ns):
    """One serving run; ``scrub_period_ns=None`` means failover only."""
    manager = ShardManager(
        data,
        n_shards=N_SHARDS,
        replication=REPLICATION,
        fault_plan=fault_plan,
        spare_crossbars=SPARE_CROSSBARS,
        recovery=RecoveryPolicy(quarantine_probes=QUARANTINE_PROBES),
    )
    repair = None
    if scrub_period_ns is not None:
        repair = RepairController(
            manager, RepairPolicy(scrub_period_ns=scrub_period_ns)
        )
    return gates.serve_trace(
        manager, TENANTS, requests, MAX_BATCH, repair=repair
    )


def _detection_latencies(
    plan: FaultPlan, events: list[dict], scrub_period_ns: float
) -> list[dict]:
    """Per injected silent defect: when (and whether) a scrub detected it.

    A detection counts only when the controller's ``detect`` event for
    the victim shard names a live fault (transient detects carry an
    empty fault list).
    """
    out = []
    for fault in plan.events:
        if fault.kind != "stuck_cells":
            continue
        shard = int(fault.target.removeprefix("shard"))
        detect_ns = None
        for event in events:
            if (
                event["kind"] == "detect"
                and event.get("shard") == shard
                and event.get("faults")
                and event["t_ns"] >= fault.t_ns
            ):
                detect_ns = event["t_ns"]
                break
        out.append(
            {
                "shard": shard,
                "injected_ns": fault.t_ns,
                "detected_ns": detect_ns,
                "latency_ns": (
                    detect_ns - fault.t_ns if detect_ns is not None else None
                ),
                "deadline_ns": fault.t_ns + scrub_period_ns,
                "within_period": (
                    detect_ns is not None
                    and detect_ns <= fault.t_ns + scrub_period_ns
                ),
            }
        )
    return out


def run_bench(smoke: bool, out) -> dict:
    """Clean vs failover-only vs self-healing over one sustained plan."""
    n_requests = SMOKE_REQUESTS if smoke else N_REQUESTS
    data = _dataset()
    rate = RATE_QPS

    def trace():
        return gates.request_trace(data, TENANTS, rate, n_requests)

    clean, clean_summary = _serve(data, trace(), None, None)

    requests = trace()
    horizon_ns = 1.05 * max(r.arrival_ns for r in requests)
    scrub_period_ns = horizon_ns / SWEEPS_PER_HORIZON
    plan = FaultPlan.sustained(
        N_SHARDS,
        horizon_ns,
        seed=FAULT_SEED,
        stuck_shards=REPLICATION,  # cover every replica of >=1 chunk
        kill_shards=1,
    )

    # failover-only baseline: same plan, no repair loop
    baseline, baseline_summary = _serve(data, trace(), plan, None)

    (service, healed_summary), telemetry = gates.traced(
        out, lambda: _serve(data, trace(), plan, scrub_period_ns)
    )
    manager = service.manager

    timeline = service.tracker.repair_events
    detections = _detection_latencies(plan, timeline, scrub_period_ns)
    repair_report = healed_summary["repair"]
    result = {
        "meta": {
            "n_rows": N_ROWS,
            "dims": DIMS,
            "k": K,
            "n_shards": N_SHARDS,
            "replication": REPLICATION,
            "spare_crossbars": SPARE_CROSSBARS,
            "n_requests": n_requests,
            "rate_qps": float(rate),
            "fault_seed": FAULT_SEED,
            "horizon_ns": float(horizon_ns),
            "scrub_period_ns": float(scrub_period_ns),
            "smoke": smoke,
        },
        "fault_plan": plan.describe(),
        "clean": {
            "completed": clean_summary["completed"],
            "p99_ns": clean_summary["p99_ns"],
        },
        "baseline": {
            "completed": baseline_summary["completed"],
            "availability": baseline_summary["availability"],
            "degraded_chunks": baseline_summary["recovery"][
                "degraded_chunks"
            ],
            "replica_counts": baseline.manager.replica_counts(),
            "p99_ns": baseline_summary["p99_ns"],
        },
        "healed": {
            "completed": healed_summary["completed"],
            "availability": healed_summary["availability"],
            "degraded_chunks": healed_summary["recovery"][
                "degraded_chunks"
            ],
            "mttr_ns": healed_summary["mttr_ns"],
            "p99_ns": healed_summary["p99_ns"],
            "repair": repair_report,
            "repair_activity": healed_summary["repair_activity"],
            "health": healed_summary["health"],
            "wear": manager.wear_reports(top=2),
        },
        "detections": detections,
        "exactness_violations": gates.exactness_violations(clean, service),
        "timeline": timeline,
        "telemetry": telemetry,
    }
    return result


def check(result: dict) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    if result["exactness_violations"]:
        failures.append(
            f"{len(result['exactness_violations'])} completed responses "
            "differ from the fault-free run"
        )
    detections = result["detections"]
    if not detections:
        failures.append("the plan injected no silent defect (mis-sized)")
    missed = [d for d in detections if not d["within_period"]]
    if missed:
        failures.append(
            f"{len(missed)}/{len(detections)} silent corruptions not "
            "detected within one scrub period"
        )
    healed = result["healed"]
    baseline = result["baseline"]
    if healed["degraded_chunks"] >= baseline["degraded_chunks"]:
        failures.append(
            f"repair did not reduce degraded recompute: "
            f"{healed['degraded_chunks']} (healed) >= "
            f"{baseline['degraded_chunks']} (failover-only)"
        )
    replica_counts = healed["repair"]["replica_counts"]
    if any(count < REPLICATION for count in replica_counts):
        failures.append(
            f"replicas not restored to k={REPLICATION}: {replica_counts}"
        )
    if healed["repair"]["rereplications"] < 1:
        failures.append("no re-replication happened (kill not absorbed)")
    if healed["repair"]["remaps"] < 1:
        failures.append("no spare-crossbar remap happened")
    if healed["mttr_ns"] <= 0:
        failures.append("no MTTR sample recorded for the repaired shards")
    return failures


def format_report(result: dict) -> str:
    baseline = result["baseline"]
    healed = result["healed"]
    repair = healed["repair"]
    detections = result["detections"]
    detected = sum(1 for d in detections if d["within_period"])
    worst_ms = max(
        (d["latency_ns"] for d in detections if d["latency_ns"] is not None),
        default=0.0,
    ) / 1e6
    rows = [
        ["completed", result["clean"]["completed"],
         baseline["completed"], healed["completed"]],
        ["availability", "100%",
         f"{baseline['availability']:.2%}",
         f"{healed['availability']:.2%}"],
        ["degraded chunks", 0,
         baseline["degraded_chunks"], healed["degraded_chunks"]],
        ["replicas", f"[{REPLICATION}]*", str(baseline["replica_counts"]),
         str(repair["replica_counts"])],
        ["remaps", "-", "-", repair["remaps"]],
        ["re-replications", "-", "-", repair["rereplications"]],
        ["mttr (ms)", "-", "-", f"{healed['mttr_ns'] / 1e6:.1f}"],
        ["exactness violations", 0, "-",
         len(result["exactness_violations"])],
    ]
    return format_table(
        ["metric", "clean", "failover-only", "self-healing"],
        rows,
        title=(
            f"Self-healing: {N_SHARDS} shards x{REPLICATION} replicas, "
            f"seed {FAULT_SEED} — {detected}/{len(detections)} silent "
            f"defects scrubbed (worst latency {worst_ms:.0f} ms, period "
            f"{result['meta']['scrub_period_ns'] / 1e6:.0f} ms)"
        ),
    )


def test_repair_loop(benchmark, save_results):
    gates.record(sys.modules[__name__], save_results, "repair_loop")

    data = _dataset()
    plan = FaultPlan.sustained(
        N_SHARDS, 1e8, seed=FAULT_SEED, stuck_shards=REPLICATION
    )
    manager = ShardManager(
        data,
        n_shards=N_SHARDS,
        replication=REPLICATION,
        fault_plan=plan,
        spare_crossbars=SPARE_CROSSBARS,
    )
    ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
    benchmark.pedantic(
        lambda: ctrl.advance(ctrl.now_ns, ctrl.now_ns + 1e6),
        rounds=3,
        iterations=1,
    )


if __name__ == "__main__":
    raise SystemExit(gates.main(sys.modules[__name__]))

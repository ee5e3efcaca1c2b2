"""Repair tour: heal the hardware in the background, keep every bit.

PR-4's fault tolerance (``faults_tour.py``) keeps answers exact *while*
a fault is live; :mod:`repro.repair` makes the fault go away. This tour
walks the self-healing ladder:

1. **remap** — a :class:`PIMArray` built with a spare-crossbar pool
   moves a flagged crossbar onto its least-worn spare, charging real
   reprogramming latency, without changing a single output value;
2. **scrub** — a :class:`RepairController` probes shards with
   residue-checked verification waves during idle simulated time,
   confirms a silent stuck-cell defect, remaps the damaged crossbars
   and quarantines the shard until clean probes re-admit it;
3. **re-replicate** — a crashed shard's chunks are copied byte-for-byte
   to surviving shards under a repair-bandwidth budget, restoring every
   chunk to its target replica count;
4. **self-heal under load** — a full :class:`QueryService` run with the
   controller interleaved between EDF dispatches: versus a
   failover-only baseline on the same seeded fault plan, the healed run
   recomputes fewer chunks on the host, ends with full redundancy, and
   still answers bit-identically to a fault-free node.

The same experiment is available without code via the CLI::

    python -m repro serve --shards 4 --replication 2 --chaos \
        --repair --spares 64 --scrub-period 200

    python examples/repair_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.faults import FaultEvent, FaultPlan
from repro.hardware.pim_array import PIMArray
from repro.repair import RepairController, RepairPolicy
from repro.serving import (
    QueryService,
    RecoveryPolicy,
    ShardManager,
    SLOTracker,
    TenantSpec,
    WorkloadDriver,
)

N_SHARDS = 4
REPLICATION = 2
SPARES = 64  # enough to remap a stuck shard's whole data allocation
K = 10


def main() -> None:
    rng = np.random.default_rng(42)
    data = rng.random((960, 32))
    queries = rng.random((3, 32))
    clean = ShardManager(data, n_shards=1)
    reference = [clean.knn(q, k=K) for q in queries]

    # -- 1. spare pool: remap a crossbar, values untouched ------------
    array = PIMArray(spare_crossbars=4)
    array.program_matrix("demo", rng.integers(0, 256, size=(40, 32)))
    probe = rng.integers(0, 256, size=32)
    before = array.query("demo", probe).values
    victim = array.unit_ids_of("demo")[0]
    spare, remap_ns = array.remap_crossbar(victim)
    after = array.query("demo", probe).values
    print("=== spare-crossbar remap ===")
    print(f"remapped          : crossbar {victim} -> spare {spare} in "
          f"{remap_ns / 1e3:.1f} us, values identical: "
          f"{bool(np.array_equal(before, after))}")
    wear = array.endurance.wear_report(top=1)
    print(f"wear              : {wear['total_writes']} writes across "
          f"{wear['units_tracked']} crossbars, hottest at "
          f"{wear['max_wear_fraction']:.1e} of endurance, "
          f"{array.spares_remaining} spares left")

    # -- 2. scrub: detect silent stuck cells, remap, quarantine -------
    stuck = FaultPlan(
        [FaultEvent(t_ns=0.0, kind="stuck_cells", target="shard0",
                    params={"fraction": 0.05, "stuck_to": 0})],
        seed=11,
    )
    manager = ShardManager(
        data, N_SHARDS, replication=REPLICATION, fault_plan=stuck,
        spare_crossbars=SPARES,
        recovery=RecoveryPolicy(quarantine_probes=2),
    )
    ctrl = RepairController(manager, RepairPolicy(scrub_period_ns=1e6))
    ctrl.advance(0.0, 1e7)       # idle windows: the scrubber sweeps
    ctrl.heal(2e7)               # finish any queued repair work
    events = ctrl.drain_events()
    kinds = sorted({e["kind"] for e in events})
    detect = next(e for e in events if e["kind"] == "detect" and e["faults"])
    report = ctrl.report()
    print("\n=== background scrub (5% of shard0 stuck at 0) ===")
    print(f"timeline          : {', '.join(kinds)}")
    print(f"detected          : shard{detect['shard']} at "
          f"{detect['t_ns'] / 1e6:.2f} ms (period 1.00 ms), "
          f"{report['scrub']['probes']} probes fired")
    print(f"repaired          : {report['remaps']} crossbars remapped in "
          f"{report['remap_ns'] / 1e3:.1f} us, shard statuses "
          f"{[s['status'] for s in manager.health.snapshot(2e7)]}")
    healed = [manager.knn(q, k=K) for q in queries]
    exact = all(
        np.array_equal(a.indices, r.indices)
        and np.array_equal(a.scores, r.scores)
        for a, r in zip(healed, reference)
    )
    print(f"answers           : bit-identical after remap: {exact}; "
          f"clean probes re-admitted shard0: statuses now "
          f"{[s['status'] for s in manager.health.snapshot(3e7)]}")

    # -- 3. re-replicate a crashed shard's chunks ---------------------
    crash = FaultPlan(
        [FaultEvent(t_ns=0.0, kind="shard_crash", target="shard1")]
    )
    lossy = ShardManager(
        data, N_SHARDS, replication=REPLICATION, fault_plan=crash,
        spare_crossbars=SPARES,
    )
    ctrl = RepairController(
        lossy, RepairPolicy(scrub_period_ns=1e6,
                            repair_bandwidth_bytes_per_s=1e9),
    )
    lossy.knn(queries[0], k=K)   # touch the dead shard: crash detected
    degraded_counts = lossy.replica_counts()
    ctrl.advance(0.0, 1e7)
    ctrl.heal(2e7)
    report = ctrl.report()
    print("\n=== re-replication (shard1 killed) ===")
    print(f"replicas          : {degraded_counts} -> "
          f"{report['replica_counts']} "
          f"({report['rereplications']} chunks, "
          f"{report['rereplicated_bytes'] / 1024:.0f} KiB copied under "
          "the bandwidth budget)")

    # -- 4. self-healing service vs. failover-only --------------------
    tenants = [
        TenantSpec("batch", workload="near", k=K),
        TenantSpec("interactive", workload="uniform", k=K),
    ]

    def serve(plan, scrub_period_ns):
        mgr = ShardManager(
            data, N_SHARDS, replication=REPLICATION, fault_plan=plan,
            spare_crossbars=SPARES,
            recovery=RecoveryPolicy(quarantine_probes=2),
        )
        repair = None
        if scrub_period_ns is not None:
            repair = RepairController(
                mgr, RepairPolicy(scrub_period_ns=scrub_period_ns)
            )
        service = QueryService(
            mgr, tenants, max_batch=4, queue_capacity=64,
            policy="reject", tracker=SLOTracker(), repair=repair,
        )
        # light load on purpose: repair is background work, it needs
        # idle windows (simulated time is free, so the long horizon
        # costs no wall-clock)
        driver = WorkloadDriver(data, tenants, seed=1234)
        service.run(driver.open_loop(50.0, 40, arrival="poisson"))
        return service.summary()

    horizon = 40 / 50.0 * 1e9
    plan = FaultPlan.sustained(N_SHARDS, horizon, seed=3,
                               stuck_shards=2, kill_shards=1)
    clean_run = serve(None, None)
    baseline = serve(plan, None)             # PR-4 failover only
    healed_run = serve(plan, horizon / 8)    # full repair loop
    print("\n=== service under sustained silent faults ===")
    for event in plan.describe():
        print(f"  t={event['t_ns'] / 1e6:6.1f} ms  {event['kind']:12s} "
              f"on {event['target']}")
    print(f"degraded chunks   : failover-only "
          f"{baseline['recovery']['degraded_chunks']}, self-healing "
          f"{healed_run['recovery']['degraded_chunks']} "
          f"(clean {clean_run['recovery']['degraded_chunks']})")
    repair = healed_run["repair"]
    print(f"repair loop       : {repair['detections']} detections, "
          f"{repair['remaps']} remaps, {repair['rereplications']} "
          f"re-replications, replicas {repair['replica_counts']}")
    statuses = " ".join(
        "shard{shard}={status}".format(**s) for s in healed_run["health"]
    )
    print(f"health            : {statuses}, "
          f"MTTR {healed_run['mttr_ns'] / 1e6:.1f} ms")
    print(f"repair activity   : {healed_run['repair_activity']}")
    print("exactness         : benchmarks/bench_repair.py replays this "
          "trace and asserts every completed response is bit-identical "
          "to the fault-free run")


if __name__ == "__main__":
    main()

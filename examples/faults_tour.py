"""Faults tour: break the hardware, keep the answers bit-exact.

Walks the robustness ladder of ``repro.faults`` + ``repro.serving``:

1. **inject** — attach a :class:`FaultyPIMArray` hook to a PIM array
   and watch a seeded fault plan corrupt its waves and stretch their
   latency (the array itself books the stretched time);
2. **detect** — program a residue checksum row
   (:mod:`repro.faults.integrity`) and catch every corrupted wave with
   one host-side modular sum;
3. **fail over** — replicate chunks across shards, crash one mid-plan,
   and show the merged top-k is still bit-identical to a fault-free
   single array;
4. **degrade** — kill *every* replica of a chunk and watch the manager
   fall back to host-side exact recompute (slower, flagged
   ``degraded``, same bits);
5. **chaos** — run a full :class:`QueryService` trace under
   ``FaultPlan.chaos`` and read the recovery dashboard: availability,
   retry rate, MTTR, and what every completed answer has in common
   with the clean run (everything).

The same chaos experiment is available without code via the CLI::

    python -m repro serve --shards 4 --replication 2 --chaos

    python examples/faults_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import make_dataset, make_queries
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FaultyPIMArray,
    append_checksum_row,
    verify_wave_residues,
)
from repro.hardware.pim_array import PIMArray
from repro.serving import (
    QueryService,
    ShardManager,
    SLOTracker,
    TenantSpec,
    WorkloadDriver,
)


def main() -> None:
    data = make_dataset("MSD", n=1500, seed=0)
    queries = make_queries("MSD", data, n_queries=3, seed=3)
    clean = ShardManager(data, n_shards=1)
    reference = [clean.knn(q, k=10) for q in queries]

    # -- 1+2. inject corruption, detect it with the checksum row ------
    quantized = clean.quantizer.quantize(data[:64]).integers
    bits = clean.hardware.pim.operand_bits
    array = PIMArray(clean.hardware)
    array.program_matrix("demo", append_checksum_row(quantized, bits))
    plan = FaultPlan(
        [
            FaultEvent(t_ns=0.0, kind="wave_corrupt", target="array"),
            FaultEvent(
                t_ns=0.0, kind="latency_spike", target="array",
                params={"factor": 4.0},
            ),
        ],
        seed=11,
    )
    faulty = FaultyPIMArray(array, plan)  # the array now consults it
    wave = array.query_many("demo", clean.quantizer.quantize(queries).integers)
    flags = verify_wave_residues(wave.values, bits)
    booked = array.stats.pim_time_ns
    assert booked == wave.timing.total_ns * len(queries)
    print("=== inject + detect ===")
    print(f"corrupted waves   : {faulty.injected['wave_corrupt']} injected, "
          f"{int(flags.size - flags.sum())}/{flags.size} flagged by the "
          "residue check")
    print(f"latency spike     : waves stretched {wave.timing.stretch:g}x, "
          f"{booked:.0f} ns booked by the array itself")

    # -- 3. crash a shard; replicas keep answers bit-identical --------
    crash = FaultPlan(
        [FaultEvent(t_ns=0.0, kind="shard_crash", target="shard1")]
    )
    replicated = ShardManager(data, 4, replication=2, fault_plan=crash)
    answers, timing = replicated.knn_batch(queries, 10)
    assert all(
        np.array_equal(a.indices, r.indices)
        and np.array_equal(a.scores, r.scores)
        for a, r in zip(answers, reference)
    )
    print("\n=== crash + failover (replication=2) ===")
    print(f"shard1 dead       : {replicated.health.dead_shards == [1]}")
    print(f"recovery          : {timing.crashes} crash detected, "
          f"{timing.failovers} failover(s), answers bit-identical")

    # -- 4. no replica left: degraded exact recompute -----------------
    lone = ShardManager(data, 4, replication=1, fault_plan=crash)
    answers, timing = lone.knn_batch(queries, 10)
    assert all(
        np.array_equal(a.indices, r.indices)
        and np.array_equal(a.scores, r.scores)
        for a, r in zip(answers, reference)
    )
    print("\n=== lost chunk -> degraded exact recompute ===")
    print(f"degraded chunks   : {timing.degraded_chunks} "
          f"(host recompute {timing.degraded_cpu_ns / 1e3:.1f} us), "
          f"answers still bit-identical, flagged "
          f"degraded={answers[0].degraded}")

    # -- 5. full chaos run through the service ------------------------
    tenants = [
        TenantSpec("analytics", workload="near", k=10),
        TenantSpec("interactive", workload="uniform", k=5),
    ]
    chaos = FaultPlan.chaos(n_shards=4, horizon_ns=4e6, seed=7)
    cluster = ShardManager(data, 4, replication=2, fault_plan=chaos)
    service = QueryService(
        cluster, tenants, max_batch=8, queue_capacity=64,
        policy="reject", tracker=SLOTracker(),
    )
    driver = WorkloadDriver(data, tenants, seed=42)
    responses = service.run(driver.open_loop(rate_qps=40_000, n_requests=150))
    summary = service.summary()
    recovery = summary["recovery"]
    print("\n=== chaos run (seeded: 1 shard killed, 1 corrupting) ===")
    for event in chaos.describe():
        window = (
            "permanent" if event["duration_ns"] is None
            else f"for {event['duration_ns'] / 1e6:.1f} ms"
        )
        print(f"  t={event['t_ns'] / 1e6:6.2f} ms  {event['kind']:13s} "
              f"on {event['target']} ({window})")
    print(f"availability      : {summary['availability']:.1%} "
          f"({summary['completed']}/{summary['offered']} completed)")
    print(f"retry rate        : {summary['retry_rate']:.1%} of "
          f"{recovery['attempts']} attempts, MTTR "
          f"{summary['mttr_ns'] / 1e6:.2f} ms")
    print(f"recovery counters : {recovery['crashes']} crashes, "
          f"{recovery['timeouts']} timeouts, "
          f"{recovery['corrupt_detected']} corrupt waves detected, "
          f"{recovery['failovers']} failovers, "
          f"{recovery['degraded_chunks']} degraded chunks")
    print(f"dead shards       : {cluster.health.dead_shards}")
    completed = sum(1 for r in responses if r.ok)
    print(f"completed answers : {completed} — every one bit-identical to "
          "the clean run (benchmarks/bench_faults.py asserts this per "
          "response against a fault-free replay)")


if __name__ == "__main__":
    main()

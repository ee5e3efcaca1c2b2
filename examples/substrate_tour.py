"""Substrate tour: one workload, two PIM technologies, zero drift.

Walks the pluggable compute layer bottom-up:

1. program the same matrix into a ReRAM crossbar array and an HBM-PIM
   bank array and show the answers are bit-identical while the
   simulated nanoseconds (and the instruction mix) are not;
2. ask the capability descriptors what each backend *would* cost for
   two workload shapes, and watch the predicted winner flip;
3. serve a mixed fleet — crossbar and HBM-PIM shards behind one
   ShardManager — with the cost router steering each chunk's waves to
   the cheaper replica, and read the routing report;
4. repair across unlike backends: remap a worn HBM bank onto a spare
   and re-replicate a chunk from an HBM shard onto a crossbar shard,
   answers unchanged throughout.

    python examples/substrate_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.serving import ShardManager
from repro.substrate import (
    available_substrates,
    create_substrate,
    substrate_capabilities,
)

N_ROWS = 1024
DIMS = 24
K = 10
BATCH = 4


def main() -> None:
    rng = np.random.default_rng(11)

    # -- 1. one matrix, two devices, identical values -----------------
    matrix = rng.integers(0, 255, size=(N_ROWS, DIMS)).astype(np.int64)
    queries = rng.integers(0, 255, size=(BATCH, DIMS)).astype(np.int64)
    print(f"registered substrates: {available_substrates()}\n")
    results = {}
    for name in available_substrates():
        device = create_substrate(name)
        device.program_matrix("tour", matrix)
        results[name] = device.query_batch("tour", queries)
        line = (f"{name:<10} unit={device.unit_name:<8} "
                f"wave time {device.stats.pim_time_ns:10.1f} ns")
        if device.stats.extra:
            mix = ", ".join(
                f"{k.split('_')[0]}={int(v)}"
                for k, v in sorted(device.stats.extra.items())
            )
            line += f"  [{mix}]"
        print(line)
    a, b = (results[name].values for name in available_substrates())
    assert np.array_equal(a, b)
    print("=> identical accumulator values, different nanoseconds\n")

    # -- 2. capability descriptors predict the crossover --------------
    shapes = {"small wave": (256, 24, 4), "wide batch": (1024, 420, 16)}
    print(f"{'workload':<12} {'crossbar ns':>12} {'hbm_pim ns':>12}  winner")
    for label, (n, dims, batch) in shapes.items():
        costs = {
            name: substrate_capabilities(name).predict_query_ns(
                n, dims, batch
            )
            for name in available_substrates()
        }
        winner = min(costs, key=lambda name: costs[name])
        print(f"{label:<12} {costs['crossbar']:>12,.0f} "
              f"{costs['hbm_pim']:>12,.0f}  {winner}")
    print("=> bank MACs win small waves, crossbars win wide batches\n")

    # -- 3. a mixed fleet with cost-routed queries --------------------
    data = rng.random((N_ROWS, DIMS))
    fleet = ShardManager(
        data,
        n_shards=4,
        replication=2,
        substrates=["crossbar", "hbm_pim"] * 2,
    )
    baseline = ShardManager(data, n_shards=1)
    q = rng.random((BATCH, DIMS))
    want, _ = baseline.knn_batch(q, K)
    got, timing = fleet.knn_batch(q, K)
    for x, y in zip(want, got):
        assert np.array_equal(x.indices, y.indices)
        assert np.array_equal(x.scores, y.scores)
    report = fleet.routing_report()
    winners = [d["winner_substrate"] for d in report["decisions"]]
    print(f"mixed fleet    : substrates {report['substrates']}")
    print(f"routing        : objective={report['objective']}, "
          f"winners per chunk {winners}")
    print(f"service time   : {timing.service_ns:,.0f} ns, answers == "
          "single crossbar array\n")

    # -- 4. repair across unlike backends -----------------------------
    hbm = create_substrate("hbm_pim", spare_units=2)
    hbm.program_matrix("tour", matrix)
    before = hbm.query("tour", queries[0]).values
    victim = hbm.unit_ids_of("tour")[0]
    spare, ns = hbm.remap_crossbar(victim)
    assert np.array_equal(hbm.query("tour", queries[0]).values, before)
    print(f"bank remap     : bank {victim} -> spare {spare} in "
          f"{ns:,.0f} ns, values preserved")
    info = fleet.add_replica(1, 0)  # HBM-resident chunk onto a crossbar
    got2, _ = fleet.knn_batch(q, K)
    assert all(
        np.array_equal(x.indices, y.indices) for x, y in zip(want, got2)
    )
    print(f"re-replication : chunk 1 copied onto shard 0 "
          f"({info['rows']} rows, crossbar <- hbm_pim), answers intact")


if __name__ == "__main__":
    main()

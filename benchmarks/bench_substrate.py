"""Substrate subsystem gates: exactness, timing goldens, cost routing.

The substrate claim has three legs, and this bench drives all of them
against live devices rather than recorded snapshots:

* **Bit-exactness** — the same kNN/assign answers come back from the
  ReRAM crossbar backend, the HBM-PIM bank-MAC backend, and a mixed
  fleet with replication + cost routing. Substrates may disagree on
  nanoseconds, never on values.
* **Timing goldens** — the per-command DRAM model (tRP/tRCD row
  activates, tCCD-paced MACs, MOV/FILL drains) is checked against
  hand-derived cycle arithmetic, and the capability predictions the
  router plans with are checked against what a live device actually
  charges for the same wave.
* **Router efficacy** — on a mixed workload (interactive low-dim waves
  + analytical high-dim batches) the cost router picks different
  winners per shape and its total predicted cost beats the worst
  single-backend placement; live mixed serving confirms the same
  winners in its routing report.

Dual mode: a pytest bench (``pytest benchmarks/bench_substrate.py``)
and a standalone CLI (``python benchmarks/bench_substrate.py --smoke
--out F``) run by CI's ``gated-benches`` job; see :mod:`gates`.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

import gates
from repro.core.report import format_table
from repro.hardware.banked_memory import (
    bank_batch_timing,
    plan_bank_layout,
)
from repro.hardware.config import HBMPIMConfig, hbm_pim_platform
from repro.serving import ShardManager
from repro.substrate import (
    CostRouter,
    available_substrates,
    create_substrate,
    substrate_capabilities,
)

OUT = "substrate_routing.json"

K = 10
N_SHARDS = 4
REPLICATION = 2
#: The two serving workloads the router must split between backends:
#: many small low-dim waves (bank MACs win: a handful of bursts, no
#: pipeline fill) vs wide high-dim batches (crossbars win: one wave
#: deep while the GRF streams hundreds of bursts per vector).
WORKLOADS = {
    "interactive": {"n_rows": 1024, "dims": 24, "batch": 4},
    "analytical": {"n_rows": 4096, "dims": 420, "batch": 16},
}
SMOKE_WORKLOADS = {
    "interactive": {"n_rows": 512, "dims": 24, "batch": 4},
    "analytical": {"n_rows": 2048, "dims": 420, "batch": 8},
}

#: Hand-derived cycle goldens for the 128 x 16 @ 32-bit layout (one
#: row, one GRF segment, 2 bursts/vector, 2 vectors/bank):
#:   activate  = 1 row * 1 segment * (tRP 14 + tRCD 14) = 28
#:   broadcast = 2 bursts * MOV 2                        =  4
#:   MAC       = 2 vectors * 2 bursts * tCCD 2           =  8
#:   drain     = 2 vectors * (FILL 1 + MOV 2)            =  6
GOLDEN_SETUP_CYCLES = 28
GOLDEN_PER_QUERY_CYCLES = 4 + 8 + 6
#: The mixed fleet: crossbar and HBM-PIM shards alternating.
MIXED = ["crossbar", "hbm_pim"] * (N_SHARDS // 2)


def _dataset(n_rows: int, dims: int, seed: int = 42) -> np.ndarray:
    return np.random.default_rng(seed).random((n_rows, dims))


def _queries(dims: int, batch: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).random((batch, dims))


def _same_knn(expected: list, got: list) -> bool:
    return all(
        np.array_equal(a.indices, b.indices)
        and np.array_equal(a.scores, b.scores)
        for a, b in zip(expected, got)
    )


# ----------------------------------------------------------------------
# gate 1: bit-exactness across substrates and placements
# ----------------------------------------------------------------------
def check_exactness(smoke: bool = False) -> dict:
    """Same answers from every backend and every placement of one."""
    shapes = SMOKE_WORKLOADS if smoke else WORKLOADS
    cfg = shapes["interactive"]
    data = _dataset(cfg["n_rows"], cfg["dims"])
    queries = _queries(cfg["dims"], cfg["batch"])
    centers = _dataset(12, cfg["dims"], seed=9)
    baseline = ShardManager(data, n_shards=1)
    base_knn, _ = baseline.knn_batch(queries, K)
    base_assign, _ = baseline.assign(centers)

    fleets = {
        "crossbar": ShardManager(
            data, n_shards=N_SHARDS, substrates="crossbar"
        ),
        "hbm_pim": ShardManager(
            data, n_shards=N_SHARDS, substrates="hbm_pim"
        ),
        "mixed": ShardManager(
            data, n_shards=N_SHARDS, replication=REPLICATION,
            substrates=MIXED,
        ),
    }
    comparisons = {}
    for name, manager in fleets.items():
        got_knn, _ = manager.knn_batch(queries, K)
        got_assign, _ = manager.assign(centers)
        comparisons[name] = bool(
            _same_knn(base_knn, got_knn)
            and np.array_equal(
                base_assign.assignments, got_assign.assignments
            )
            and np.array_equal(
                base_assign.distances, got_assign.distances
            )
        )
    return {
        "workload": cfg,
        "fleets": comparisons,
        "identical": all(comparisons.values()),
    }


# ----------------------------------------------------------------------
# gate 2: timing goldens + prediction/device agreement
# ----------------------------------------------------------------------
def check_timing(smoke: bool = False) -> dict:
    """Independent cycle arithmetic + capability/device agreement."""
    cfg = HBMPIMConfig()
    hw = hbm_pim_platform()
    layout = plan_bank_layout(128, 16, cfg)
    batch = bank_batch_timing(layout, cfg, hw, n_queries=4)
    golden_total = GOLDEN_SETUP_CYCLES + 4 * GOLDEN_PER_QUERY_CYCLES
    golden_ok = (
        batch.setup_cycles == GOLDEN_SETUP_CYCLES
        and batch.per_query_cycles == GOLDEN_PER_QUERY_CYCLES
        and batch.total_cycles == golden_total
    )

    n, dims, waves = (300, 24, 4) if smoke else (1200, 48, 8)
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 127, size=(n, dims)).astype(np.int64)
    queries = rng.integers(0, 127, size=(waves, dims)).astype(np.int64)
    agreement = {}
    for name in available_substrates():
        device = create_substrate(name)
        caps = substrate_capabilities(name)
        device.program_matrix("m", matrix)
        before = device.stats.pim_time_ns
        device.query_batch("m", queries)
        charged = device.stats.pim_time_ns - before
        predicted = caps.predict_query_ns(n, dims, waves)
        agreement[name] = {
            "charged_ns": charged,
            "predicted_ns": predicted,
            "relative_error": abs(charged - predicted)
            / max(charged, 1e-12),
        }
    return {
        "golden": {
            "setup_cycles": batch.setup_cycles,
            "per_query_cycles": batch.per_query_cycles,
            "total_cycles": batch.total_cycles,
            "expected_total_cycles": golden_total,
            "ok": bool(golden_ok),
        },
        "prediction_vs_device": agreement,
        "ok": bool(
            golden_ok
            and all(
                entry["relative_error"] < 1e-9
                for entry in agreement.values()
            )
        ),
    }


# ----------------------------------------------------------------------
# gate 3: the cost router earns its keep on a mixed workload
# ----------------------------------------------------------------------
def check_routing(smoke: bool = False) -> dict:
    """Winner flips per shape; routed cost beats the worst placement.

    Predicted costs come from the same capability models the router
    uses at serve time; the live section below confirms the report a
    real mixed fleet emits agrees with them.
    """
    shapes = SMOKE_WORKLOADS if smoke else WORKLOADS
    router = CostRouter()
    substrates = available_substrates()
    per_shape = {}
    totals = {name: 0.0 for name in substrates}
    routed_total = 0.0
    for shape_name, cfg in shapes.items():
        n_local = cfg["n_rows"] // N_SHARDS
        costs = {
            name: router.predict(
                name, n_local, cfg["dims"], cfg["batch"]
            )
            for name in substrates
        }
        winner = min(costs, key=lambda name: costs[name])
        per_shape[shape_name] = {
            "per_shard_rows": n_local,
            "dims": cfg["dims"],
            "batch": cfg["batch"],
            "predicted_ns": costs,
            "winner": winner,
        }
        for name, cost in costs.items():
            totals[name] += cost
        routed_total += costs[winner]
    winners = {entry["winner"] for entry in per_shape.values()}
    worst = max(totals.values())
    best = min(totals.values())
    return {
        "objective": "latency",
        "shapes": per_shape,
        "single_backend_total_ns": totals,
        "routed_total_ns": routed_total,
        "speedup_vs_worst_single": worst / routed_total,
        "speedup_vs_best_single": best / routed_total,
        "winner_flips": len(winners) > 1,
        "beats_worst_single": routed_total < worst,
    }


def run_mixed_serving(smoke: bool = False) -> dict:
    """Live mixed fleets: routed answers identical, decisions logged."""
    shapes = SMOKE_WORKLOADS if smoke else WORKLOADS
    runs = {}
    for shape_name, cfg in shapes.items():
        data = _dataset(cfg["n_rows"], cfg["dims"])
        queries = _queries(cfg["dims"], cfg["batch"])
        baseline, _ = ShardManager(data, n_shards=1).knn_batch(
            queries, K
        )
        mixed = ShardManager(
            data, n_shards=N_SHARDS, replication=REPLICATION,
            substrates=MIXED,
        )
        routed, timing = mixed.knn_batch(queries, K)
        report = mixed.routing_report()
        winner_counts = Counter(
            decision["winner_substrate"] for decision in report["decisions"]
        )
        runs[shape_name] = {
            "workload": cfg,
            "identical": _same_knn(baseline, routed),
            "service_ns": float(timing.service_ns),
            "winner_counts": dict(winner_counts),
            "routing": report,
        }
    return runs


def run_bench(smoke: bool, out=None) -> dict:
    result = {
        "bench": "substrate",
        "smoke": smoke,
        "registered_substrates": available_substrates(),
        "exactness": check_exactness(smoke=smoke),
        "timing": check_timing(smoke=smoke),
        "routing": check_routing(smoke=smoke),
        "serving": run_mixed_serving(smoke=smoke),
    }
    result["live_winners"] = {
        shape: max(run["winner_counts"], key=run["winner_counts"].get)
        for shape, run in result["serving"].items()
    }
    return result


def check(result: dict) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    exactness, routing = result["exactness"], result["routing"]
    violations = []
    if not exactness["identical"]:
        bad = [k for k, v in exactness["fleets"].items() if not v]
        violations.append(f"answers drifted on fleets: {bad}")
    if not result["timing"]["ok"]:
        violations.append("timing goldens or predictions diverged")
    if not routing["winner_flips"]:
        violations.append("router picked one backend for every shape")
    if not routing["beats_worst_single"]:
        violations.append(
            "routed cost does not beat the worst single backend"
        )
    for shape, run in result["serving"].items():
        if not run["identical"]:
            violations.append(f"live mixed serving drifted on {shape}")
        predicted = routing["shapes"][shape]["winner"]
        live = result["live_winners"][shape]
        if live != predicted:
            violations.append(
                f"live winner {live} != predicted {predicted} on {shape}"
            )
    return violations


def format_report(result: dict) -> str:
    routing = result["routing"]
    rows = []
    for shape, entry in routing["shapes"].items():
        costs = entry["predicted_ns"]
        live = result["serving"][shape]
        rows.append(
            [
                shape,
                f"{entry['per_shard_rows']}x{entry['dims']}",
                entry["batch"],
                f"{costs['crossbar']:,.0f}",
                f"{costs['hbm_pim']:,.0f}",
                entry["winner"],
                result["live_winners"][shape],
                "yes" if live["identical"] else "NO",
            ]
        )
    table = format_table(
        [
            "workload",
            "shard shape",
            "batch",
            "crossbar ns",
            "hbm_pim ns",
            "predicted",
            "live",
            "bits equal",
        ],
        rows,
        title=(
            "Substrate routing: per-shape winners "
            f"(routed {routing['speedup_vs_worst_single']:.1f}x vs "
            "worst single backend)"
        ),
    )
    golden = result["timing"]["golden"]
    max_error = max(
        entry["relative_error"]
        for entry in result["timing"]["prediction_vs_device"].values()
    )
    winners = ", ".join(
        f"{shape}={entry['winner']}"
        for shape, entry in routing["shapes"].items()
    )
    return (
        f"{table}\n"
        f"timing goldens : {golden['total_cycles']} cycles (expected "
        f"{golden['expected_total_cycles']}); prediction vs device max "
        f"rel err {max_error:.2g}\n"
        f"router         : {routing['speedup_vs_worst_single']:.1f}x vs "
        f"worst single backend, {routing['speedup_vs_best_single']:.2f}x "
        f"vs best; winners {winners}"
    )


def test_substrate_gates(benchmark, save_results):
    """Exactness + timing goldens + router efficacy in one record."""
    gates.record(sys.modules[__name__], save_results, "substrate_gates")

    cfg = SMOKE_WORKLOADS["interactive"]
    data = _dataset(cfg["n_rows"], cfg["dims"])
    queries = _queries(cfg["dims"], cfg["batch"])
    manager = ShardManager(data, n_shards=N_SHARDS, substrates=MIXED)
    benchmark.pedantic(
        lambda: manager.knn_batch(queries, K), rounds=3, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(gates.main(sys.modules[__name__]))

"""Gray-failure chaos campaign: detector on vs off at equal hardware.

The gray-failure claim behind :class:`repro.faults.Campaign`: a
fleet whose shards go *slow* (sustained stragglers, intermittent
slowdowns, flaky links, correlated bank-group stragglers) — rather
than dead — must keep serving bit-exact answers, and the latency
outlier detector + adaptive hedging must buy back tail latency without
extra hardware. The campaign drives one seeded query trace through a
clean single-array oracle and through the same sharded fleet twice
(legacy recovery policy vs gray defenses on), per scenario, and this
bench gates:

* **exactness** — zero violations across every scenario and arm: any
  gray plan's answers are bit-identical to the clean single-array run
  (and the gray+crash scenario's too — recovery never invents values);
* **tail latency** — under the ``straggler`` scenario the detector-on
  arm's p99 is *strictly below* the detector-off arm's, at equal
  shards/replication;
* **hedge budget** — every detector-on arm's hedged-wave rate stays at
  or under the configured budget (the token bucket holds);
* **availability** — both faulted arms complete at least
  ``MIN_AVAILABILITY`` of requests at full fidelity.

Dual mode: a pytest bench (``pytest benchmarks/bench_chaos.py``) and a
standalone CLI (``python benchmarks/bench_chaos.py --smoke --out F``)
run by CI's ``gated-benches`` job; see :mod:`gates`.
"""

from __future__ import annotations

import sys

import numpy as np

import gates
from repro.core.report import format_table
from repro.faults import Campaign, defense_arms, standard_campaign

OUT = "chaos_campaign_timeline.json"

N_ROWS = 1024
DIMS = 48
K = 10
N_SHARDS = 4
REPLICATION = 2
N_REQUESTS = 200
SMOKE_REQUESTS = 100
HORIZON_NS = 1.5e7
HEDGE_BUDGET = 0.3
CAMPAIGN_SEED = 7
#: Acceptance floor (CI's gated-benches job runs it).
MIN_AVAILABILITY = 0.99


def _dataset() -> np.ndarray:
    return np.random.default_rng(42).random((N_ROWS, DIMS))


def _campaign(n_requests: int) -> Campaign:
    return Campaign(
        _dataset(),
        standard_campaign(),
        defense_arms(HEDGE_BUDGET),
        fleet={"n_shards": N_SHARDS, "replication": REPLICATION},
        n_requests=n_requests,
        k=K,
        horizon_ns=HORIZON_NS,
        seed=CAMPAIGN_SEED,
    )


def run_bench(smoke: bool, out=None) -> dict:
    """Run the standard campaign; returns the timeline artifact dict."""
    result = _campaign(SMOKE_REQUESTS if smoke else N_REQUESTS).run()
    result["meta"] = {"smoke": smoke}
    result["thresholds"] = {
        "min_availability": MIN_AVAILABILITY,
        "hedge_budget": HEDGE_BUDGET,
    }
    return result


def check(result: dict) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    for scenario in result["scenarios"]:
        name = scenario["name"]
        for arm_name, arm in scenario["arms"].items():
            if arm["exactness_violations"]:
                failures.append(
                    f"{name}/{arm_name}: {arm['exactness_violations']} "
                    "answers differ from the clean single-array oracle"
                )
            if arm["availability"] < MIN_AVAILABILITY:
                failures.append(
                    f"{name}/{arm_name}: availability "
                    f"{arm['availability']:.2%} < {MIN_AVAILABILITY:.0%}"
                )
        on = scenario["arms"]["detector_on"]
        if on["hedge_rate"] > HEDGE_BUDGET:
            failures.append(
                f"{name}: hedge rate {on['hedge_rate']:.3f} exceeds "
                f"budget {HEDGE_BUDGET}"
            )
        if name == "straggler":
            off = scenario["arms"]["detector_off"]
            if not on["latency_p99_ns"] < off["latency_p99_ns"]:
                failures.append(
                    "straggler: detector-on p99 "
                    f"{on['latency_p99_ns']:.0f}ns is not strictly below "
                    f"detector-off {off['latency_p99_ns']:.0f}ns"
                )
    return failures


def format_report(result: dict) -> str:
    rows = []
    for scenario in result["scenarios"]:
        off = scenario["arms"]["detector_off"]
        on = scenario["arms"]["detector_on"]
        better = 1.0 - (
            on["latency_p99_ns"] / off["latency_p99_ns"]
            if off["latency_p99_ns"]
            else 1.0
        )
        rows.append(
            [
                scenario["name"],
                f"{off['latency_p99_ns'] / 1e3:.1f}",
                f"{on['latency_p99_ns'] / 1e3:.1f}",
                f"{better:+.1%}",
                f"{on['hedge_rate']:.3f}",
                off["exactness_violations"] + on["exactness_violations"],
                sum(r["ejections"] for r in on["health"]),
            ]
        )
    campaign = result["campaign"]
    fleet = campaign["fleet"]
    return format_table(
        [
            "scenario", "p99 off (us)", "p99 on (us)", "p99 gain",
            "hedge rate", "violations", "ejections",
        ],
        rows,
        title=(
            f"Gray-failure campaign: {fleet['n_shards']} shards "
            f"x{fleet['replication']} replicas, "
            f"{campaign['n_requests']} requests/arm, seed "
            f"{campaign['seed']} — hedge budget {HEDGE_BUDGET:.0%}"
        ),
    )


def test_chaos_campaign(benchmark, save_results):
    gates.record(sys.modules[__name__], save_results, "chaos_campaign")
    benchmark.pedantic(_campaign(16).run, rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(gates.main(sys.modules[__name__]))

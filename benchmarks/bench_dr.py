"""Disaster-recovery campaign: domain kills + cold restarts, gated.

The durability claim behind :class:`repro.faults.Campaign`:
when a whole failure domain (every shard on one power rail) dies at
once, *where the replicas sit* decides survival — and a checkpointed
cold restart must be indistinguishable from a service that never
crashed. The campaign serves one seeded query trace through a clean
single-array oracle, through two equal-hardware fleets (ring placement
vs domain-spread placement) under the same seeded
:meth:`~repro.faults.FaultPlan.domain_outage` plan, and through a
serve→checkpoint→crash→restore→serve leg (:meth:`Campaign.restart`).
This bench gates:

* **exactness** — zero violations in every arm and in the checkpoint
  leg: a correlated outage may slow or degrade requests, never change
  values;
* **survival** — the spread arm's full-fidelity availability is
  *strictly above* the naive arm's at equal shards/replication, and
  stays at 1.0 (every chunk keeps a live replica outside the dead
  domain);
* **recovery point** — the restored service's recovery point equals
  the checkpoint's snapshot time exactly (no silent replay gap);
* **restore fidelity** — the crashed-and-restored service's answers
  are bit-identical to the spread arm's uninterrupted answers, every
  request;
* **placement accounting** — before the outage the spread fleet
  reports zero at-risk chunks while the naive fleet reports at least
  one (the at-risk metric actually discriminates).

Dual mode: a pytest bench (``pytest benchmarks/bench_dr.py``) and a
standalone CLI (``python benchmarks/bench_dr.py --smoke --out F``) run
by CI's ``gated-benches`` job; see :mod:`gates`.
"""

from __future__ import annotations

import sys

import numpy as np

import gates
from repro.core.report import format_table
from repro.faults import Arm, Campaign, FaultPlan, Scenario
from repro.hardware import FailureDomainTopology

OUT = "dr_campaign_timeline.json"

N_ROWS = 1024
DIMS = 48
K = 10
N_SHARDS = 8
REPLICATION = 2
N_REQUESTS = 160
SMOKE_REQUESTS = 60
HORIZON_NS = 1.5e7
CAMPAIGN_SEED = 11
OUTAGE_DOMAINS = 1
LEVEL = "power"
#: Boards of 2, channels of 2 boards, one channel per power domain:
#: 8 shards = 2 power domains, the smallest shape where a power outage
#: is survivable.
TOPOLOGY = FailureDomainTopology(
    n_shards=N_SHARDS,
    shards_per_board=2,
    boards_per_channel=2,
    channels_per_power_domain=1,
)
OUTAGE = Scenario(
    "power_outage",
    lambda n_shards, horizon_ns, seed: FaultPlan.domain_outage(
        TOPOLOGY, horizon_ns, seed=seed,
        outage_domains=OUTAGE_DOMAINS, level=LEVEL,
    ),
    "every shard of one power domain crashes at once",
)
NAIVE = Arm("naive", {"spread": False})
SPREAD = Arm("spread", {"spread": True})
#: The spread arm must keep every request on the full-fidelity path.
SPREAD_AVAILABILITY = 1.0


def _dataset() -> np.ndarray:
    return np.random.default_rng(42).random((N_ROWS, DIMS))


def _campaign(n_requests: int) -> Campaign:
    return Campaign(
        _dataset(),
        [OUTAGE],
        [NAIVE, SPREAD],
        fleet={
            "n_shards": N_SHARDS,
            "replication": REPLICATION,
            "topology": TOPOLOGY,
        },
        n_requests=n_requests,
        k=K,
        horizon_ns=HORIZON_NS,
        seed=CAMPAIGN_SEED,
    )


def run_bench(smoke: bool, out=None) -> dict:
    """Run the DR campaign; returns the recovery-timeline artifact."""
    campaign = _campaign(SMOKE_REQUESTS if smoke else N_REQUESTS)
    result = campaign.run()
    result["checkpoint"] = campaign.restart(OUTAGE, SPREAD)
    result["meta"] = {"smoke": smoke}
    result["thresholds"] = {
        "spread_availability": SPREAD_AVAILABILITY,
    }
    return result


def check(result: dict) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    (outage,) = result["scenarios"]
    naive = outage["arms"]["naive"]
    spread = outage["arms"]["spread"]
    for name, arm in outage["arms"].items():
        if arm["exactness_violations"]:
            failures.append(
                f"{name}: {arm['exactness_violations']} answers differ "
                "from the clean single-array oracle"
            )
    if outage["answer_divergence"]:
        failures.append(
            f"placement arms disagree on "
            f"{outage['answer_divergence']} answers "
            "(placement must never change values)"
        )
    if not spread["availability"] > naive["availability"]:
        failures.append(
            f"spread availability {spread['availability']:.2%} is not "
            f"strictly above naive {naive['availability']:.2%} at equal "
            "hardware"
        )
    if spread["availability"] < SPREAD_AVAILABILITY:
        failures.append(
            f"spread availability {spread['availability']:.2%} < "
            f"{SPREAD_AVAILABILITY:.0%} — a chunk lost every replica "
            "to one domain"
        )
    if spread["spread_report"]["n_at_risk"] != 0:
        failures.append(
            f"spread placement left {spread['spread_report']['n_at_risk']} "
            "chunks at risk before the outage"
        )
    if naive["spread_report"]["n_at_risk"] == 0:
        failures.append(
            "naive placement reports zero at-risk chunks — the at-risk "
            "metric does not discriminate on this fleet"
        )
    ck = result["checkpoint"]
    if ck["exactness_violations"]:
        failures.append(
            f"checkpoint leg: {ck['exactness_violations']} answers "
            "differ from the oracle"
        )
    if ck["restore_mismatches"]:
        failures.append(
            f"checkpoint leg: {ck['restore_mismatches']} answers differ "
            "from the uninterrupted run after restore"
        )
    if ck["recovery_point_ns"] != ck["checkpoint_t_ns"]:
        failures.append(
            f"recovery point {ck['recovery_point_ns']} != last "
            f"checkpoint {ck['checkpoint_t_ns']}"
        )
    return failures


def format_report(result: dict) -> str:
    rows = []
    for name, arm in result["scenarios"][0]["arms"].items():
        rows.append(
            [
                name,
                f"{arm['availability']:.2%}",
                arm["exactness_violations"],
                arm["degraded_responses"],
                arm["spread_report"]["n_at_risk"],
                len(arm["spread_report"]["violations"]),
                f"{arm['latency_p99_ns'] / 1e3:.1f}",
            ]
        )
    ck = result["checkpoint"]
    campaign = result["campaign"]
    table = format_table(
        [
            "placement", "availability", "violations", "degraded",
            "at-risk (pre)", "spread warns", "p99 (us)",
        ],
        rows,
        title=(
            f"Disaster recovery: {N_SHARDS} shards "
            f"x{REPLICATION} replicas, {OUTAGE_DOMAINS} {LEVEL} "
            f"domain(s) down, {campaign['n_requests']} requests/arm, "
            f"seed {campaign['seed']}"
        ),
    )
    return (
        f"{table}\n"
        f"checkpoint leg    : {ck['requests_before_crash']} served, "
        f"crash, restore, {ck['requests_after_restore']} served — "
        f"{ck['restore_mismatches']} mismatches, recovery point "
        f"{ck['recovery_point_ns'] / 1e6:.3f}ms "
        f"(= checkpoint: "
        f"{ck['recovery_point_ns'] == ck['checkpoint_t_ns']})"
    )


def test_dr_campaign(benchmark, save_results):
    gates.record(sys.modules[__name__], save_results, "dr_campaign")
    campaign = _campaign(16)
    benchmark.pedantic(
        lambda: (campaign.run(), campaign.restart(OUTAGE, SPREAD)),
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    raise SystemExit(gates.main(sys.modules[__name__]))

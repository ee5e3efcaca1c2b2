"""DR tour: correlated outages — the rail dies, the answers don't.

Walks the disaster-recovery ladder of ``repro.hardware`` +
``repro.serving`` + ``repro.checkpoint`` (DESIGN.md section 15):

1. **the tree** — map an 8-shard fleet onto its physical containment
   tree (shards -> boards -> channels -> power domains) and read each
   domain's blast radius;
2. **placement** — compare ring replica placement with
   failure-domain-aware spread placement: same hardware, same
   replication, very different at-risk accounting;
3. **outage** — kill one whole power rail at the same instant
   (:meth:`FaultPlan.domain_outage`) under both placements and watch
   spread keep every request on the full-fidelity path while ring
   degrades — with every completed answer still bit-identical to a
   clean single-array oracle either way;
4. **checkpoint** — serve, snapshot (atomic write-then-rename,
   SHA-256 everywhere), crash, restore, and finish the trace with
   answers bit-identical to the ones served without a crash.

Steps 2-4 are one :class:`~repro.faults.Campaign`: a power-outage
scenario × ring/spread placement arms, plus its ``restart`` leg.

The same experiment is available without code via the CLI::

    python -m repro serve --shards 8 --replication 2 \
        --topology 2x2x1 --domain-outage --checkpoint ck.npz
    python -m repro serve --restore ck.npz

    python examples/dr_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.faults import Arm, Campaign, FaultPlan, Scenario
from repro.hardware import DOMAIN_LEVELS, FailureDomainTopology

HORIZON_NS = 1.5e7


def main() -> None:
    data = np.random.default_rng(0).random((1024, 48))

    # -- 1. the containment tree -------------------------------------
    topology = FailureDomainTopology(
        n_shards=8,
        shards_per_board=2,
        boards_per_channel=2,
        channels_per_power_domain=1,
    )
    print("failure-domain tree (8 shards, 2 per board, 2 boards per")
    print("channel, 1 channel per power rail):")
    for level in DOMAIN_LEVELS:
        radii = [
            f"{level}{d}={list(topology.shards_in(level, d))}"
            for d in range(topology.n_domains(level))
        ]
        print(f"  {level:<8} {' '.join(radii)}")

    # -- 2. placement: ring vs spread ---------------------------------
    outage = Scenario(
        "power_outage",
        lambda n_shards, horizon_ns, seed: FaultPlan.domain_outage(
            topology, horizon_ns, seed=seed, outage_domains=1,
            level="power",
        ),
    )
    ring, spread = Arm("ring", {"spread": False}), Arm("spread")
    campaign = Campaign(
        data, [outage], [ring, spread],
        fleet={"n_shards": 8, "replication": 2, "topology": topology},
        n_requests=60, horizon_ns=HORIZON_NS, seed=11,
    )
    print("\nreplica placement at equal hardware (x2 replication):")
    for arm in (ring, spread):
        manager = campaign.manager(outage, arm)
        report = manager.spread_report()
        print(
            f"  {arm.name:<7} replicas={manager.replicas}  "
            f"at-risk={report['n_at_risk']}/{manager.n_chunks} "
            f"min_spread={report['min_spread']}"
        )
    print(
        "  ring puts chunk 0 on shards (0, 1) — one board, one rail; "
        "spread\n  pairs each board with the opposite rail, so no "
        "single domain\n  holds every copy of anything"
    )

    # -- 3. one power rail dies, both placements serve ----------------
    plan = campaign.plans[outage.name]
    victims = sorted(
        e.target for e in plan.events if e.kind == "shard_crash"
    )
    print(f"\ndomain outage (seed 11): {', '.join(victims)} all die at "
          f"{plan.events[0].t_ns / 1e6:.1f}ms")
    (result,) = campaign.run()["scenarios"]
    for name, arm in result["arms"].items():
        full = arm["requests"] - arm["degraded_responses"]
        print(
            f"  {name:<7} full-fidelity {full}/{arm['requests']}  "
            f"bit-exact={arm['exactness_violations'] == 0}"
        )

    # -- 4. checkpoint, crash, restore --------------------------------
    leg = campaign.restart(outage, spread)
    print(
        f"\ncheckpoint after {leg['requests_before_crash']} requests: "
        f"{leg['integrity']['hashes_verified']} arrays verified, "
        f"recovery point {leg['checkpoint_t_ns'] / 1e6:.3f}ms"
    )
    print(
        f"restored service finished the trace: "
        f"{leg['requests_after_restore']} answers, "
        f"{leg['restore_mismatches']} mismatches vs the uninterrupted run "
        f"(recovery point {leg['recovery_point_ns'] / 1e6:.3f}ms)"
    )


if __name__ == "__main__":
    main()

"""Chaos tour: gray failures — slow is the new broken.

Walks the gray-failure defense ladder of ``repro.faults`` +
``repro.serving`` (DESIGN.md section 14):

1. **gray weather** — generate a seeded
   :meth:`FaultPlan.gray_chaos` plan (sustained straggler,
   intermittent slowdown, flaky host<->shard link) and show that none
   of it can change an answer, only its timing;
2. **detect** — serve a trace under a straggler and watch the
   :class:`LatencyOutlierDetector` grow suspicion on exactly the
   slow shard until it is ejected (demoted, never blocked);
3. **hedge** — compare the straggler's tail latency with the
   defenses off and on: adaptive p95-triggered hedges race a duplicate
   wave on a healthy replica, cancel on first win, and stay within a
   global :class:`HedgeBudget`;
4. **campaign** — run the full :class:`Campaign` A/B (five stock
   scenarios x defenses on/off at equal hardware) and read the
   timeline: zero exactness violations anywhere, p99 bought back
   under the straggler, hedge rate <= budget.

The same experiment is available without code via the CLI::

    python -m repro serve --shards 4 --replication 2 \
        --gray-chaos --outlier-ejection --hedge-budget 0.3

    python examples/chaos_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.faults import (
    Campaign,
    FaultEvent,
    FaultPlan,
    Scenario,
    defense_arms,
    standard_campaign,
)

HORIZON_NS = 1.5e7


def main() -> None:
    # a low-dimensional workload keeps the waves device-dominated, so
    # the gray weather (which scales PIM time) is what moves the tail
    data = np.random.default_rng(0).random((1024, 48))

    # -- 1. gray weather: slow, flaky, never wrong --------------------
    plan = FaultPlan.gray_chaos(4, HORIZON_NS, seed=11)
    print("gray fault plan (seed 11):")
    for event in plan.describe():
        window = (
            f"{event['t_ns'] / 1e6:.1f}-"
            f"{(event['t_ns'] + (event['duration_ns'] or 0)) / 1e6:.1f}ms"
        )
        print(f"  {event['kind']:<18} {event['target']:<7} {window}")

    # -- 2. detect: suspicion lands on the straggler ------------------
    straggler = Scenario(
        "straggler",
        lambda n_shards, horizon_ns, seed: FaultPlan(
            (
                FaultEvent(
                    t_ns=0.2 * horizon_ns,
                    kind="slow_shard",
                    target="shard1",
                    duration_ns=0.6 * horizon_ns,
                    params={"factor": 12.0},
                ),
            ),
            seed=seed,
        ),
    )
    off_arm, on_arm = defense_arms(hedge_budget=0.3)
    campaign = Campaign(
        data, [straggler], [off_arm, on_arm],
        n_requests=80, horizon_ns=HORIZON_NS, seed=11,
    )
    # one arm by hand: build its fleet, serve the trace through the
    # campaign's oracle-checked loop, then read the detector's verdicts
    manager = campaign.manager(straggler, on_arm)
    served = campaign.serve(manager)
    print("\ndetector verdicts under a 12x straggler on shard1:")
    for entry in manager.health.snapshot(HORIZON_NS):
        p95 = entry["observed_p95_ns"]
        p95_txt = f"{p95 / 1e3:.1f}us" if p95 is not None else "n/a"
        print(
            f"  shard{entry['shard']}: {entry['status']:<8} "
            f"suspicion={entry['suspicion']:.2f} "
            f"ejections={entry['ejections']} p95={p95_txt}"
        )
    print(f"  bit-exact: {served['violations'] == 0}")

    # -- 3. hedge: the tail with defenses off vs on -------------------
    arms = campaign.run()["scenarios"][0]["arms"]
    off, on = arms["detector_off"], arms["detector_on"]
    p99_off, p99_on = off["latency_p99_ns"], on["latency_p99_ns"]
    print("\nstraggler tail latency (same traffic, same hardware):")
    print(f"  defenses off : p99 {p99_off / 1e3:.1f} us")
    print(f"  defenses on  : p99 {p99_on / 1e3:.1f} us "
          f"({1 - p99_on / p99_off:+.0%}, "
          f"{on['counters']['hedges_won']} hedges won)")
    print(
        f"  bit-exact    : off={off['exactness_violations'] == 0} "
        f"on={on['exactness_violations'] == 0}"
    )

    # -- 4. the full campaign -----------------------------------------
    campaign = Campaign(
        data, standard_campaign(), defense_arms(hedge_budget=0.3),
        n_requests=60, horizon_ns=HORIZON_NS, seed=0,
    )
    result = campaign.run()
    print("\nchaos campaign (5 scenarios x defenses off/on):")
    for scenario in result["scenarios"]:
        off = scenario["arms"]["detector_off"]
        on = scenario["arms"]["detector_on"]
        print(
            f"  {scenario['name']:<16} "
            f"p99 {off['latency_p99_ns'] / 1e3:7.1f} -> "
            f"{on['latency_p99_ns'] / 1e3:7.1f} us  "
            f"violations={off['exactness_violations']}"
            f"+{on['exactness_violations']}  "
            f"hedge_rate={on['hedge_rate']:.3f}"
        )


if __name__ == "__main__":
    main()

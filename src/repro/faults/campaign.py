"""Fault campaigns: one seeded trace over a scenario × arm table.

A :class:`Scenario` names one fault weather — a function from the
fleet size, horizon and seed to a :class:`~repro.faults.plan.FaultPlan`
(or ``None`` for clear skies). An :class:`Arm` names one way of
serving it — the :class:`~repro.serving.sharding.ShardManager`
settings it differs in (``recovery``, ``spread``, ...). A
:class:`Campaign` serves the *same* seeded query trace through every
(scenario, arm) pair on equal hardware and checks every answer
bit-for-bit against a clean single-array oracle: faults may slow,
degrade or reroute a request, never change its values. Each arm is
reduced to one stats dict (latency percentiles, availability, hedge
accounting, placement risk, final health), and :meth:`Campaign.restart`
adds the crash leg: serve half the trace, checkpoint, discard every
live object, restore, serve the rest, and compare with the arm's
uninterrupted answers.

Determinism: queries, plans and dispatch all derive from the campaign
seed on the simulated clock, and the checkpoint lives in a temporary
directory recorded by file name only, so two runs of the same campaign
emit byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan

# NOTE: repro.serving imports repro.faults (the injectors), so the
# serving classes the campaign drives are imported lazily inside the
# methods that need them to keep `import repro.faults` cycle-free.

#: Per-dispatch recovery counters summed over an arm's trace.
_COUNTERS = (
    "attempts", "hedges", "hedges_won", "hedges_lost", "hedges_denied",
    "link_drops", "retries", "failovers", "crashes", "timeouts",
    "degraded_chunks",
)


@dataclass(frozen=True)
class Scenario:
    """One named fault weather: ``plan(n_shards, horizon_ns, seed)``."""

    name: str
    plan: Callable[[int, float, int], "FaultPlan | None"]
    description: str = ""


@dataclass(frozen=True)
class Arm:
    """One named way to serve: the ``ShardManager`` settings it sets."""

    name: str
    settings: dict = field(default_factory=dict)


def _gray(crash_mid: bool = False, **gray) -> Callable:
    """A :meth:`FaultPlan.gray_chaos` plan, optionally with a hard crash
    of the middle shard at half the horizon."""

    def plan(n_shards: int, horizon_ns: float, seed: int) -> FaultPlan:
        base = FaultPlan.gray_chaos(n_shards, horizon_ns, seed=seed, **gray)
        if not crash_mid:
            return base
        crash = FaultEvent(
            t_ns=horizon_ns / 2,
            kind="shard_crash",
            target=f"shard{n_shards // 2}",
        )
        return FaultPlan(base.events + (crash,), seed=seed)

    return plan


def standard_campaign() -> tuple[Scenario, ...]:
    """The five stock gray-failure scenarios the chaos bench gates.

    ``straggler`` is the headline: one sustained slow shard, nothing
    else — the scenario under which the defended arm must beat the
    undefended one on p99. The others compose intermittent slowdowns,
    flaky links, the full gray mix, and gray + a mid-run crash
    (defenses must not confuse slow with dead).
    """
    quiet = dict(straggler_shards=0, intermittent_shards=0, flaky_shards=0)
    return (
        Scenario(
            "straggler",
            _gray(**{**quiet, "straggler_shards": 1,
                     "straggler_factor": 12.0}),
            "one sustained 12x straggler shard",
        ),
        Scenario(
            "intermittent",
            _gray(**{**quiet, "intermittent_shards": 1,
                     "intermittent_factor": 10.0}),
            "one shard alternating fast/slow (50% duty)",
        ),
        Scenario(
            "flaky_link",
            _gray(**{**quiet, "flaky_shards": 1, "drop_probability": 0.1,
                     "delay_probability": 0.2}),
            "one host<->shard link dropping/delaying",
        ),
        Scenario(
            "gray_mix",
            _gray(straggler_shards=1, straggler_factor=10.0,
                  intermittent_shards=1, flaky_shards=1),
            "straggler + intermittent + flaky link at once",
        ),
        Scenario(
            "gray_plus_crash",
            _gray(True, **{**quiet, "straggler_shards": 1,
                           "straggler_factor": 10.0}),
            "gray mix with a mid-run hard shard crash",
        ),
    )


def defense_arms(hedge_budget: float = 0.3) -> tuple[Arm, Arm]:
    """Gray-failure defenses off (legacy recovery) vs on (outlier
    ejection + adaptive hedging within ``hedge_budget``)."""
    from repro.serving.health import RecoveryPolicy

    return (
        Arm("detector_off", {"recovery": RecoveryPolicy()}),
        Arm(
            "detector_on",
            {
                "recovery": RecoveryPolicy(
                    outlier_ejection=True,
                    adaptive_hedge=True,
                    hedge_budget=hedge_budget,
                )
            },
        ),
    )


def _jsonable(value):
    if hasattr(value, "describe"):
        return value.describe()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return value


class Campaign:
    """Serve one seeded trace through every (scenario, arm) pair.

    Parameters
    ----------
    data:
        The dataset every arm serves (``(n, dims)`` float array).
    scenarios / arms:
        The table's rows and columns; names must be unique.
    fleet:
        ``ShardManager`` settings every arm shares (equal hardware —
        arms compare defenses or placement, not more metal); defaults
        to 4 shards × 2 replicas.
    n_requests / k:
        Seeded query trace length and top-k per request.
    horizon_ns:
        Fault-plan horizon; request pacing spreads the trace across it
        so every fault window sees traffic.
    seed:
        Master seed for queries and plans (scenario ``i`` plans with
        ``seed + i``).
    """

    def __init__(
        self,
        data: np.ndarray,
        scenarios,
        arms,
        *,
        fleet: dict | None = None,
        n_requests: int = 120,
        k: int = 10,
        horizon_ns: float = 1.5e7,
        seed: int = 0,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ConfigurationError(
                "campaign needs a non-empty (n, dims) dataset"
            )
        self.scenarios = tuple(scenarios)
        self.arms = tuple(arms)
        for kind, table in (("scenario", self.scenarios), ("arm", self.arms)):
            names = [entry.name for entry in table]
            if not names or len(set(names)) != len(names) or not all(names):
                raise ConfigurationError(
                    f"campaign needs at least one {kind}, uniquely named"
                )
        if n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        self.fleet = dict(
            fleet if fleet is not None else {"n_shards": 4, "replication": 2}
        )
        self.n_requests = int(n_requests)
        self.k = int(k)
        self.horizon_ns = float(horizon_ns)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self.queries = rng.normal(size=(self.n_requests, self.data.shape[1]))
        # spread the trace across the horizon so every fault window
        # (stragglers live in the middle 60%) actually sees traffic
        self.gap_ns = self.horizon_ns / (self.n_requests + 1)
        n_shards = int(self.fleet.get("n_shards", 1))
        self.plans = {
            scenario.name: scenario.plan(
                n_shards, self.horizon_ns, self.seed + index
            )
            for index, scenario in enumerate(self.scenarios)
        }
        self._oracle: list | None = None
        self._answers: dict = {}

    # ------------------------------------------------------------------
    @property
    def oracle(self) -> list:
        """Clean single-array answers — the bit-exactness oracle."""
        if self._oracle is None:
            from repro.serving.sharding import ShardManager

            manager = ShardManager(self.data, 1)
            self._oracle = []
            for q in self.queries:
                result = manager.knn(q, self.k)
                self._oracle.append(
                    (result.indices.tolist(), result.scores.tolist())
                )
        return self._oracle

    def manager(self, scenario: Scenario, arm: Arm):
        """A fresh fleet for ``arm`` under ``scenario``'s plan."""
        from repro.serving.sharding import ShardManager

        return ShardManager(
            self.data,
            fault_plan=self.plans[scenario.name],
            seed=self.seed,
            **{**self.fleet, **arm.settings},
        )

    def serve(
        self, manager, start: int = 0, stop: int | None = None,
        t: float = 0.0,
    ) -> dict:
        """Serve trace rows ``[start, stop)`` from simulated time ``t``,
        checking every answer against the oracle."""
        oracle = self.oracle
        stop = self.n_requests if stop is None else stop
        answers: list = []
        latencies: list[float] = []
        violations = 0
        degraded = 0
        counters = dict.fromkeys(_COUNTERS, 0)
        for i in range(start, stop):
            batch, timing = manager.knn_batch(
                np.atleast_2d(self.queries[i]), self.k, now_ns=t
            )
            result = batch[0]
            pair = (result.indices.tolist(), result.scores.tolist())
            answers.append(pair)
            latencies.append(timing.service_ns)
            # degraded = exact host-side recompute of a replica-less
            # chunk: slower and flagged, but still bit-exact — so it
            # dents availability yet still faces the oracle below
            if result.degraded:
                degraded += 1
            if pair != oracle[i]:
                violations += 1
            for key in counters:
                counters[key] += getattr(timing, key)
            t += timing.service_ns + self.gap_ns
        return {
            "answers": answers,
            "latencies": latencies,
            "violations": violations,
            "degraded": degraded,
            "counters": counters,
            "t_end": t,
        }

    def _arm(self, scenario: Scenario, arm: Arm) -> dict:
        manager = self.manager(scenario, arm)
        spread_report = manager.spread_report()
        served = self.serve(manager)
        self._answers[scenario.name, arm.name] = served["answers"]
        counters = served["counters"]
        stats = manager.merged_stats()
        lat = np.asarray(served["latencies"])
        return {
            "latency_p50_ns": float(np.percentile(lat, 50.0)),
            "latency_p95_ns": float(np.percentile(lat, 95.0)),
            "latency_p99_ns": float(np.percentile(lat, 99.0)),
            "latency_mean_ns": float(lat.mean()),
            "requests": self.n_requests,
            "exactness_violations": served["violations"],
            "degraded_responses": served["degraded"],
            # availability counts full-fidelity (non-degraded) answers
            "availability": 1.0 - served["degraded"] / self.n_requests,
            "hedge_rate": (
                counters["hedges"] / counters["attempts"]
                if counters["attempts"]
                else 0.0
            ),
            "pim_time_ns": stats.pim_time_ns,
            "hedge_cancelled_pim_ns": stats.extra.get(
                "hedge_cancelled_pim_ns", 0.0
            ),
            "counters": counters,
            "spread_report": spread_report,
            "at_risk_chunks_after": manager.spread_report()["n_at_risk"],
            "health": manager.health.snapshot(self.horizon_ns),
        }

    def run(self) -> dict:
        """Serve every (scenario, arm); returns the timeline artifact."""
        scenarios_out = []
        for index, scenario in enumerate(self.scenarios):
            plan = self.plans[scenario.name]
            arms = {arm.name: self._arm(scenario, arm) for arm in self.arms}
            served = [self._answers[scenario.name, a.name] for a in self.arms]
            scenarios_out.append(
                {
                    "name": scenario.name,
                    "description": scenario.description,
                    "plan_seed": self.seed + index,
                    "fault_timeline": plan.describe() if plan else [],
                    "arms": arms,
                    # requests on which the arms disagree (placement and
                    # defenses must never change values)
                    "answer_divergence": sum(
                        1 for row in zip(*served)
                        if any(pair != row[0] for pair in row)
                    ),
                }
            )
        return {
            "campaign": {
                "seed": self.seed,
                "fleet": {
                    key: _jsonable(value)
                    for key, value in self.fleet.items()
                },
                "arms": {
                    arm.name: {
                        key: _jsonable(value)
                        for key, value in arm.settings.items()
                    }
                    for arm in self.arms
                },
                "n_requests": self.n_requests,
                "k": self.k,
                "horizon_ns": self.horizon_ns,
                "dataset_rows": int(self.data.shape[0]),
                "dims": int(self.data.shape[1]),
            },
            "scenarios": scenarios_out,
        }

    def restart(self, scenario: Scenario, arm: Arm) -> dict:
        """Serve, checkpoint, crash, restore, serve — against the arm's
        uninterrupted answers (served first if :meth:`run` has not)."""
        from repro.checkpoint import (
            restore_manager,
            verify_checkpoint,
            write_checkpoint,
        )

        if (scenario.name, arm.name) not in self._answers:
            self._arm(scenario, arm)
        uninterrupted = self._answers[scenario.name, arm.name]
        half = self.n_requests // 2
        manager = self.manager(scenario, arm)
        first = self.serve(manager, 0, half)
        name = f"campaign-seed{self.seed}.ckpt.npz"
        with tempfile.TemporaryDirectory(prefix="repro-dr-") as directory:
            path = os.path.join(directory, name)
            manifest = write_checkpoint(manager, path, t_ns=first["t_end"])
            integrity = {**verify_checkpoint(path), "path": name}
            del manager  # the crash: every live object is gone
            restored = restore_manager(
                path,
                fault_plan=self.plans[scenario.name],
                recovery={**self.fleet, **arm.settings}.get("recovery"),
            )
        second = self.serve(restored, half, self.n_requests, first["t_end"])
        answers = first["answers"] + second["answers"]
        return {
            "checkpoint_file": name,
            "checkpoint_t_ns": float(manifest["t_ns"]),
            "recovery_point_ns": float(restored.last_checkpoint_ns),
            "requests_before_crash": half,
            "requests_after_restore": self.n_requests - half,
            "exactness_violations": (
                first["violations"] + second["violations"]
            ),
            "restore_mismatches": sum(
                1 for mine, theirs in zip(answers, uninterrupted)
                if mine != theirs
            ),
            "degraded_responses": first["degraded"] + second["degraded"],
            "integrity": integrity,
        }

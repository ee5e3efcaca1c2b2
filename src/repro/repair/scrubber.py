"""Background scrubber: idle-time re-verification of programmed shards.

PR-4's residue checksum detects a corrupted wave *when a query happens
to read it* — a stuck region flipped between queries sits silently until
the next unlucky dispatch pays a retry/failover. The scrubber closes
that gap: during idle windows of the simulated clock it walks the
shards round-robin and fires a small *probe wave* (two query vectors —
an all-ones vector that touches every programmed cell, plus one seeded
random vector) through the shard's one wave path (the one queries and
hedges take), which re-verifies the residue checksum on the result and
books the wave on the device, slowdowns included. A silent defect is
therefore detected at most one ``scrub_period_ns`` of idle time after
it appears, instead of on the next real query to hit it.

The scrubber only *observes*; what to do about a bad probe —
confirmation, spare-crossbar remap, quarantine, re-replication — is the
:class:`~repro.repair.controller.RepairController`'s decision.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CrossbarDeadError
from repro.repair.policy import RepairPolicy
from repro.serving.health import CRASH_DETECT_NS
from repro.telemetry import get_recorder

#: Salt mixed into the probe-vector RNG so scrub draws never collide
#: with any fault injector's stream derived from the same plan seed.
_PROBE_SEED_SALT = 0x5C12_0B5E


class BackgroundScrubber:
    """Round-robin idle-time prober over a :class:`ShardManager`'s shards.

    Pacing: one full sweep (every shard probed once) is spread evenly
    over ``policy.scrub_period_ns``; :meth:`due_ns` tells the controller
    when the next probe is owed. A controller confirming a suspicion can
    :meth:`hold` the cursor to re-probe the same shard immediately.
    """

    def __init__(self, manager, policy: RepairPolicy | None = None) -> None:
        self.manager = manager
        self.policy = policy if policy is not None else RepairPolicy()
        self.cursor = 0
        self.sweeps = 0
        self.probes = 0
        self.outcomes: dict[str, int] = {}
        self._next_due_ns = 0.0
        seed = manager.fault_plan.seed if manager.fault_plan is not None else 0
        bits = manager.hardware.pim.operand_bits if manager.hardware.pim else 8
        rng = np.random.default_rng((int(seed) << 8) ^ _PROBE_SEED_SALT)
        # all-ones touches every programmed cell (any stuck cell whose
        # original value differs perturbs the dot product); the random
        # companion breaks the rare residue blind spot of the first
        self._queries = np.stack(
            [
                np.ones(manager.dims, dtype=np.int64),
                rng.integers(0, 1 << bits, size=manager.dims, dtype=np.int64),
            ]
        )

    # ------------------------------------------------------------------
    @property
    def interval_ns(self) -> float:
        """Idle time between two probes of one sweep."""
        return self.policy.scrub_period_ns / max(self.manager.n_shards, 1)

    def due_ns(self) -> float:
        """Simulated time the next probe is owed at."""
        return self._next_due_ns

    def advance(self, t_ns: float) -> None:
        """Move the cursor to the next shard and schedule its probe.

        Backlog is capped at one period: after a long stretch without
        idle time the scrubber catches up with at most one full sweep
        instead of replaying every missed one.
        """
        self.cursor = (self.cursor + 1) % self.manager.n_shards
        if self.cursor == 0:
            self.sweeps += 1
        self._next_due_ns = max(
            self._next_due_ns + self.interval_ns,
            t_ns - self.policy.scrub_period_ns,
        )

    def hold(self) -> None:
        """Keep the cursor in place: the next probe re-checks this shard."""
        # _next_due_ns unchanged — the confirmation probe is due now

    # ------------------------------------------------------------------
    def probe(self, t_ns: float) -> dict:
        """Fire one probe wave at the cursor shard.

        Returns ``{"shard", "outcome", "cost_ns", "bad_waves"}`` where
        ``outcome`` is one of:

        * ``"skip"``       — shard empty or already dead;
        * ``"clean"``      — probe served and residues verified (or
          verification is off — nothing to check against);
        * ``"corrupt"``    — residues failed: a silent defect is live;
        * ``"dead_array"`` — the wave raised ``CrossbarDeadError``;
        * ``"crash"`` / ``"hang"`` — shard-level verdict, no wave fired.
        """
        s = self.cursor
        shard = self.manager.shards[s]
        self.probes += 1
        result = {"shard": s, "outcome": "skip", "cost_ns": 0.0, "bad_waves": 0}
        if shard.n_rows == 0 or not self.manager.health.alive(s):
            return self._finish(result)
        shard.advance_clock(t_ns)
        # a probe runs through a dropped link and pays no link delay:
        # it checks the device, not the path to it
        verdict = shard.verdict(t_ns)
        if verdict.status == "crash":
            result.update(outcome="crash", cost_ns=CRASH_DETECT_NS)
            return self._finish(result)
        if verdict.status == "hang":
            cost = self.manager.recovery.dispatch_timeout_ns or CRASH_DETECT_NS
            result.update(outcome="hang", cost_ns=cost)
            shard.busy_ns += cost
            return self._finish(result)
        try:
            _, pim_ns, bad = shard.fire(self._queries)
        except CrossbarDeadError:
            result.update(
                outcome="dead_array", cost_ns=CRASH_DETECT_NS
            )
            return self._finish(result)
        shard.busy_ns += pim_ns
        result.update(
            outcome="corrupt" if bad else "clean",
            cost_ns=pim_ns,
            bad_waves=bad,
        )
        return self._finish(result)

    def _finish(self, result: dict) -> dict:
        outcome = result["outcome"]
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("repair.scrub_probes").add(1)
            tele.metrics.counter(f"repair.scrub.{outcome}").add(1)
            with tele.span(
                "repair.scrub_probe", "repair",
                shard=result["shard"], outcome=outcome,
            ):
                pass  # zero-duration marker on the trace timeline
        return result

    def report(self) -> dict:
        """Probe accounting for the repair report."""
        return {
            "probes": self.probes,
            "sweeps": self.sweeps,
            "outcomes": dict(sorted(self.outcomes.items())),
            "interval_ns": self.interval_ns,
        }

"""Fault plans: deterministic, seedable schedules of fault events.

A :class:`FaultPlan` is the single source of truth for *what goes wrong
when* in a run: an immutable, time-sorted list of :class:`FaultEvent`\\ s
on the simulated clock plus one master seed from which every injector
derives its RNG stream. Two runs with the same plan (and the same
workload) inject byte-identical faults — the property every recovery
test and the chaos bench relies on.

Fault kinds
-----------
Array-level (enforced by the device's
:class:`~repro.faults.injectors.FaultyPIMArray` hook, inside its own
dispatch):

* ``stuck_cells``    — a seeded region of a programmed matrix reads as a
  stuck value (``params``: ``fraction``, ``stuck_to`` 0/1, optional
  ``matrix`` name); permanent unless a duration is given.
* ``wave_corrupt``   — while active, each wave is corrupted with
  probability ``params["probability"]`` (a seeded offset is added to a
  seeded subset of result values; the default offset is guaranteed to
  flip the residue check).
* ``latency_spike``  — wave latency multiplied by ``params["factor"]``
  while active (stragglers).
* ``crossbar_dead``  — the array stops answering: every wave raises
  :class:`~repro.errors.CrossbarDeadError` from ``t_ns`` on.
* ``bankgroup_straggler`` — a seeded subset of the device's bank groups
  runs ``params["factor"]`` times slower while active. Commands on a
  banked substrate (HBM-PIM) run in all-bank lockstep, so a wave whose
  matrix touches any straggling group is bounded by the slow group and
  stretches whole; arrays without a bank layout (crossbars) degrade to
  a whole-array slowdown. ``params``: ``factor``, ``groups`` (count of
  straggling groups, default 1).

Shard-level (aimed at a serving shard's name, ``"shard<i>"``):

* ``shard_crash``    — dispatches fail fast from ``t_ns`` on (permanent).
* ``shard_hang``     — dispatches never complete while active; the
  serving watchdog converts this into a per-dispatch timeout.
* ``slow_shard``     — the shard's waves take ``params["factor"]``
  times longer while active (a *sustained* gray failure).
* ``intermittent_slow`` — the shard's waves take ``params["factor"]``
  times longer, but only during the first ``params["duty"]`` fraction
  of each ``params["period_ns"]`` window (phase-locked to the event
  start) — a shard that alternates fast/slow.
* ``link_flaky``     — the host<->shard link misbehaves per dispatch:
  with ``params["drop_probability"]`` the dispatch is dropped (fails
  fast, transient), else with ``params["delay_probability"]`` it is
  delayed by ``params["delay_ns"]``. Draws are *stateless* — hashed
  from ``(seed, target, event, dispatch time)`` — so the verdict at an
  instant never depends on how many other draws happened first, and
  detector-on vs detector-off runs see identical link weather.

The :class:`~repro.faults.injectors.FaultyShardEngine` rules on crash,
hang and link per dispatch; the two slowdowns stretch the wave in the
shard device's :class:`~repro.faults.injectors.FaultyPIMArray` hook,
so the device books every slowdown.

The gray kinds (everything that slows or delays but never corrupts)
preserve bit-exactness by construction: slow answers are still correct
answers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

ARRAY_FAULT_KINDS = (
    "stuck_cells",
    "wave_corrupt",
    "latency_spike",
    "crossbar_dead",
    "bankgroup_straggler",
)
SHARD_FAULT_KINDS = (
    "shard_crash",
    "shard_hang",
    "slow_shard",
    "intermittent_slow",
    "link_flaky",
)
#: Kinds that degrade timing but never values: answers under any plan
#: composed purely of these are bit-identical to a fault-free run.
GRAY_FAULT_KINDS = (
    "latency_spike",
    "bankgroup_straggler",
    "slow_shard",
    "intermittent_slow",
    "link_flaky",
)
FAULT_KINDS = ARRAY_FAULT_KINDS + SHARD_FAULT_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on the simulated clock.

    ``duration_ns=None`` means permanent (active from ``t_ns`` forever);
    transient faults are active on ``[t_ns, t_ns + duration_ns)``.
    ``target`` names the victim — ``"shard3"`` for serving shards, any
    label (conventionally ``"array"``) for standalone arrays.
    """

    t_ns: float
    kind: str
    target: str
    duration_ns: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.t_ns < 0:
            raise ConfigurationError("fault times must be >= 0")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ConfigurationError(
                "fault duration must be positive (None = permanent)"
            )

    def active_at(self, t_ns: float) -> bool:
        """Whether the fault is in effect at simulated time ``t_ns``."""
        if t_ns < self.t_ns:
            return False
        if self.duration_ns is None:
            return True
        return t_ns < self.t_ns + self.duration_ns

    def describe(self) -> dict:
        """JSON-friendly record for fault-timeline artifacts."""
        return {
            "t_ns": self.t_ns,
            "kind": self.kind,
            "target": self.target,
            "duration_ns": self.duration_ns,
            "params": dict(self.params),
        }


class FaultPlan:
    """An immutable, seeded schedule of :class:`FaultEvent` s.

    Parameters
    ----------
    events:
        The fault schedule; stored sorted by ``(t_ns, target, kind)``.
    seed:
        Master seed. Injectors derive independent, reproducible RNG
        streams with :meth:`rng_for`, so adding one injector never
        perturbs another's draws.
    """

    def __init__(self, events=(), seed: int = 0) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.t_ns, e.target, e.kind))
        )
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def events_for(
        self, target: str, kind: str | None = None
    ) -> tuple[FaultEvent, ...]:
        """All events aimed at ``target`` (optionally of one kind)."""
        return tuple(
            e
            for e in self.events
            if e.target == target and (kind is None or e.kind == kind)
        )

    def active(
        self, target: str, kind: str, t_ns: float
    ) -> tuple[FaultEvent, ...]:
        """Events of ``kind`` on ``target`` in effect at ``t_ns``."""
        return tuple(
            e
            for e in self.events
            if e.target == target and e.kind == kind and e.active_at(t_ns)
        )

    def targets(self) -> tuple[str, ...]:
        """Distinct victim labels, sorted."""
        return tuple(sorted({e.target for e in self.events}))

    def rng_for(self, target: str, salt: str = "") -> np.random.Generator:
        """A reproducible RNG stream for one injector.

        The stream is keyed by ``(seed, target, salt)`` through a stable
        CRC32, so the same plan always hands the same draws to the same
        injector regardless of construction order.
        """
        key = zlib.crc32(f"{target}|{salt}".encode("utf-8"))
        return np.random.default_rng((self.seed << 32) ^ key)

    def hash_unit(self, target: str, salt: str, t_ns: float) -> float:
        """A stateless uniform draw in ``[0, 1)`` for one instant.

        Unlike :meth:`rng_for` streams, the draw is a pure function of
        ``(seed, target, salt, t_ns)``: two runs that consult the plan
        in different orders (or different numbers of times) still agree
        on every per-dispatch outcome. The ``link_flaky`` injector
        depends on this — a detector-on run must not reshuffle the link
        weather a detector-off run saw.
        """
        key = zlib.crc32(
            f"{self.seed}|{target}|{salt}|{float(t_ns)!r}".encode("utf-8")
        )
        return key / 4294967296.0

    def describe(self) -> list[dict]:
        """JSON-friendly schedule (for the fault-timeline artifact)."""
        return [e.describe() for e in self.events]

    # ------------------------------------------------------------------
    @classmethod
    def chaos(
        cls,
        n_shards: int,
        horizon_ns: float,
        seed: int = 0,
        *,
        kill_shards: int = 1,
        corrupt_shards: int = 1,
        corrupt_probability: float = 0.15,
        slow_shards: int = 0,
        slow_factor: float = 8.0,
    ) -> "FaultPlan":
        """A seeded chaos schedule over ``n_shards`` serving shards.

        Kills ``kill_shards`` distinct shards mid-run (uniformly in the
        middle half of the horizon), makes ``corrupt_shards`` others
        corrupt waves with ``corrupt_probability`` for the whole run,
        and optionally slows ``slow_shards`` more by ``slow_factor``
        for the middle third. Victims are distinct while shard count
        allows, so a chunk with 2 replicas never loses both to this
        generator.
        """
        if n_shards < 1:
            raise ConfigurationError("need at least one shard")
        horizon_ns = float(horizon_ns)
        if horizon_ns <= 0:
            raise ConfigurationError("horizon must be positive")
        rng = np.random.default_rng(seed)
        wanted = kill_shards + corrupt_shards + slow_shards
        victims = list(
            rng.permutation(n_shards)[: min(wanted, n_shards)]
        )
        events: list[FaultEvent] = []
        for _ in range(kill_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            t = float(rng.uniform(0.25, 0.75) * horizon_ns)
            events.append(
                FaultEvent(t_ns=t, kind="shard_crash", target=f"shard{shard}")
            )
        for _ in range(corrupt_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            events.append(
                FaultEvent(
                    t_ns=0.0,
                    kind="wave_corrupt",
                    target=f"shard{shard}",
                    duration_ns=horizon_ns,
                    params={"probability": corrupt_probability},
                )
            )
        for _ in range(slow_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            events.append(
                FaultEvent(
                    t_ns=horizon_ns / 3.0,
                    kind="slow_shard",
                    target=f"shard{shard}",
                    duration_ns=horizon_ns / 3.0,
                    params={"factor": slow_factor},
                )
            )
        return cls(events, seed=seed)

    @classmethod
    def gray_chaos(
        cls,
        n_shards: int,
        horizon_ns: float,
        seed: int = 0,
        *,
        straggler_shards: int = 1,
        straggler_factor: float = 8.0,
        intermittent_shards: int = 1,
        intermittent_factor: float = 8.0,
        intermittent_period_ns: float | None = None,
        intermittent_duty: float = 0.5,
        flaky_shards: int = 1,
        drop_probability: float = 0.1,
        delay_probability: float = 0.2,
        delay_ns: float = 100_000.0,
        bankgroup_shards: int = 0,
        bankgroup_factor: float = 4.0,
    ) -> "FaultPlan":
        """A seeded *gray* chaos schedule: everything slow, nothing wrong.

        Composes the gray failure modes over distinct victims while the
        shard count allows: ``straggler_shards`` run ``slow_shard`` at
        ``straggler_factor`` for the middle 60% of the horizon (the
        sustained straggler the outlier detector must eject),
        ``intermittent_shards`` alternate fast/slow with the given duty
        cycle for the whole run (the flap-admit trap),
        ``flaky_shards`` get a ``link_flaky`` link for the middle half,
        and ``bankgroup_shards`` suffer correlated bank-group
        stragglers. No kind in this generator ever corrupts a value, so
        any run under it must stay bit-identical to a clean one.
        """
        if n_shards < 1:
            raise ConfigurationError("need at least one shard")
        horizon_ns = float(horizon_ns)
        if horizon_ns <= 0:
            raise ConfigurationError("horizon must be positive")
        if not 0.0 < intermittent_duty < 1.0:
            raise ConfigurationError("intermittent_duty must be in (0, 1)")
        if drop_probability < 0 or delay_probability < 0:
            raise ConfigurationError("link probabilities must be >= 0")
        if drop_probability + delay_probability > 1.0:
            raise ConfigurationError(
                "drop_probability + delay_probability must be <= 1"
            )
        rng = np.random.default_rng(seed)
        wanted = (
            straggler_shards
            + intermittent_shards
            + flaky_shards
            + bankgroup_shards
        )
        victims = list(rng.permutation(n_shards)[: min(wanted, n_shards)])
        period = (
            horizon_ns / 16.0
            if intermittent_period_ns is None
            else float(intermittent_period_ns)
        )
        events: list[FaultEvent] = []
        for _ in range(straggler_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            events.append(
                FaultEvent(
                    t_ns=0.2 * horizon_ns,
                    kind="slow_shard",
                    target=f"shard{shard}",
                    duration_ns=0.6 * horizon_ns,
                    params={"factor": straggler_factor},
                )
            )
        for _ in range(intermittent_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            events.append(
                FaultEvent(
                    t_ns=0.0,
                    kind="intermittent_slow",
                    target=f"shard{shard}",
                    duration_ns=horizon_ns,
                    params={
                        "factor": intermittent_factor,
                        "period_ns": period,
                        "duty": intermittent_duty,
                    },
                )
            )
        for _ in range(flaky_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            events.append(
                FaultEvent(
                    t_ns=0.25 * horizon_ns,
                    kind="link_flaky",
                    target=f"shard{shard}",
                    duration_ns=0.5 * horizon_ns,
                    params={
                        "drop_probability": drop_probability,
                        "delay_probability": delay_probability,
                        "delay_ns": delay_ns,
                    },
                )
            )
        for _ in range(bankgroup_shards):
            if not victims:
                break
            shard = int(victims.pop(0))
            events.append(
                FaultEvent(
                    t_ns=0.3 * horizon_ns,
                    kind="bankgroup_straggler",
                    target=f"shard{shard}",
                    duration_ns=0.4 * horizon_ns,
                    params={"factor": bankgroup_factor, "groups": 1},
                )
            )
        return cls(events, seed=seed)

    @classmethod
    def domain_outage(
        cls,
        topology,
        horizon_ns: float,
        seed: int = 0,
        *,
        outage_domains: int = 1,
        level: str = "power",
        outage_at_ns: float | None = None,
        brownout_domains: int = 0,
        brownout_level: str = "power",
        brownout_at_ns: float | None = None,
        brownout_duration_ns: float | None = None,
        recovery_stagger_ns: float | None = None,
    ) -> "FaultPlan":
        """A seeded *correlated* outage over whole failure domains.

        Picks ``outage_domains`` distinct domains at ``level`` (board,
        channel or power — see
        :class:`repro.hardware.FailureDomainTopology`) and crashes
        every shard inside them **simultaneously** — the signature of a
        shared power rail or channel controller going down, and the
        scenario single-shard generators like :meth:`chaos` never
        produce. Optionally browns out ``brownout_domains`` *other*
        domains: their shards hang (``shard_hang``) from
        ``brownout_at_ns`` and come back with *staggered* recovery —
        shard ``i`` of the domain hangs for
        ``brownout_duration_ns + i * recovery_stagger_ns``, the way
        breakers re-close one leg at a time after a brownout.

        Victim domains are seeded draws; brownout victims are drawn
        from the domains the outage spared (at the brownout level), so
        a plan never crashes and browns out the same shard.
        """
        horizon_ns = float(horizon_ns)
        if horizon_ns <= 0:
            raise ConfigurationError("horizon must be positive")
        for lv in (level, brownout_level):
            if lv not in ("board", "channel", "power"):
                raise ConfigurationError(
                    f"unknown domain level {lv!r}; expected board, "
                    "channel or power"
                )
        if outage_domains < 0 or brownout_domains < 0:
            raise ConfigurationError("domain counts must be >= 0")
        if outage_domains > topology.n_domains(level):
            raise ConfigurationError(
                f"cannot kill {outage_domains} {level} domains, "
                f"topology has {topology.n_domains(level)}"
            )
        rng = np.random.default_rng(seed)
        outage_t = (
            0.4 * horizon_ns if outage_at_ns is None else float(outage_at_ns)
        )
        dead_domains = [
            int(d)
            for d in rng.permutation(topology.n_domains(level))[
                :outage_domains
            ]
        ]
        events: list[FaultEvent] = []
        dead_shards: set[int] = set()
        for d in dead_domains:
            for shard in topology.shards_in(level, d):
                dead_shards.add(shard)
                events.append(
                    FaultEvent(
                        t_ns=outage_t,
                        kind="shard_crash",
                        target=f"shard{shard}",
                        params={"domain": d, "level": level},
                    )
                )
        if brownout_domains:
            spared = [
                d
                for d in range(topology.n_domains(brownout_level))
                if not any(
                    s in dead_shards
                    for s in topology.shards_in(brownout_level, d)
                )
            ]
            if brownout_domains > len(spared):
                raise ConfigurationError(
                    f"cannot brown out {brownout_domains} "
                    f"{brownout_level} domains, only {len(spared)} "
                    "escape the outage"
                )
            brown_t = (
                0.2 * horizon_ns
                if brownout_at_ns is None
                else float(brownout_at_ns)
            )
            duration = (
                0.15 * horizon_ns
                if brownout_duration_ns is None
                else float(brownout_duration_ns)
            )
            stagger = (
                0.05 * horizon_ns
                if recovery_stagger_ns is None
                else float(recovery_stagger_ns)
            )
            picks = rng.permutation(len(spared))[:brownout_domains]
            for d in (int(spared[i]) for i in picks):
                for i, shard in enumerate(
                    topology.shards_in(brownout_level, d)
                ):
                    events.append(
                        FaultEvent(
                            t_ns=brown_t,
                            kind="shard_hang",
                            target=f"shard{shard}",
                            duration_ns=duration + i * stagger,
                            params={"domain": d, "level": brownout_level},
                        )
                    )
        return cls(events, seed=seed)

    @classmethod
    def sustained(
        cls,
        n_shards: int,
        horizon_ns: float,
        seed: int = 0,
        *,
        stuck_shards: int = 2,
        stuck_fraction: float = 0.05,
        stuck_at_ns: float | None = None,
        kill_shards: int = 1,
        kill_at_ns: float | None = None,
    ) -> "FaultPlan":
        """A sustained *silent*-corruption stream for the repair bench.

        Plants permanent ``stuck_cells`` defects on ``stuck_shards``
        **consecutive** shards starting from a seeded offset. Under the
        k-replica ring placement (chunk ``c`` on shards ``(c + j) % n``),
        consecutive victims cover every replica of at least one chunk
        whenever ``stuck_shards >= replication``, so a failover-only
        baseline is forced into degraded host recompute on that chunk
        until the defects are repaired. ``kill_shards`` of the remaining
        shards then crash mid-run, exercising live re-replication.

        Unlike :meth:`chaos`, the defects here are silent between
        queries: nothing fails until a wave (or a scrub probe) actually
        reads the stuck region.
        """
        if n_shards < 1:
            raise ConfigurationError("need at least one shard")
        horizon_ns = float(horizon_ns)
        if horizon_ns <= 0:
            raise ConfigurationError("horizon must be positive")
        if stuck_shards > n_shards:
            raise ConfigurationError(
                "cannot plant defects on more shards than exist"
            )
        rng = np.random.default_rng(seed)
        stuck_t = (
            0.1 * horizon_ns if stuck_at_ns is None else float(stuck_at_ns)
        )
        kill_t = (
            0.5 * horizon_ns if kill_at_ns is None else float(kill_at_ns)
        )
        start = int(rng.integers(0, n_shards))
        stuck_set = {(start + i) % n_shards for i in range(stuck_shards)}
        events: list[FaultEvent] = [
            FaultEvent(
                t_ns=stuck_t,
                kind="stuck_cells",
                target=f"shard{shard}",
                params={"fraction": stuck_fraction, "stuck_to": 0},
            )
            for shard in sorted(stuck_set)
        ]
        survivors = [s for s in range(n_shards) if s not in stuck_set]
        kill_order = [int(s) for s in rng.permutation(survivors)]
        for shard in kill_order[:kill_shards]:
            events.append(
                FaultEvent(
                    t_ns=kill_t, kind="shard_crash", target=f"shard{shard}"
                )
            )
        return cls(events, seed=seed)

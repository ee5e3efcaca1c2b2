"""The self-healing loop: detect, remap, re-replicate, re-admit.

:class:`RepairController` owns the
:class:`~repro.repair.scrubber.BackgroundScrubber` and turns its probe
outcomes into repairs, entirely within idle windows of the simulated
clock handed over by :meth:`advance`:

* a **corrupt** probe raises suspicion; ``probe_confirmations``
  consecutive failures confirm a *persistent* defect (a single hit could
  be a transient ``wave_corrupt``), at which point the controller asks
  the fault hook of the shard's device
  (:class:`~repro.faults.injectors.FaultyPIMArray`) which device faults
  are live and has the device remap the affected data crossbars onto
  its spare pool (wear-leveled, charged real reprogramming
  latency), then quarantines the shard via
  :meth:`~repro.serving.health.ShardHealthTracker.mark_repaired`;
* a **dead_array** probe is conclusive on its own — hard failures need
  no confirmation;
* a **crash** verdict marks the shard permanently dead, and any chunk
  below its target replica count is queued for **re-replication**: the
  chunk's bytes are copied from a surviving replica under the
  ``repair_bandwidth_bytes_per_s`` budget (split across idle windows),
  then the target shard's matrix is reprogrammed, checksum row included;
* when the spare pool is exhausted, a stuck shard is left to the
  per-query detection path and a dead one is declared unrepairable
  (permanently failed), falling through to re-replication.

Every decision lands in the event timeline (:meth:`drain_events`) the
:class:`~repro.serving.slo.SLOTracker` folds into the SLO report, and
:meth:`heal` finishes outstanding redundancy restoration after the last
request drains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import (
    CapacityError,
    ChunkUnavailableError,
    ServingError,
    WatchdogTimeoutError,
)
from repro.repair.policy import RepairPolicy
from repro.repair.scrubber import BackgroundScrubber
from repro.telemetry import get_recorder


@dataclass
class _Transfer:
    """One in-flight re-replication: copy phase, then program phase."""

    chunk: int
    target: int
    started_ns: float
    bytes: int
    remaining_ns: float
    phase: str = "copy"
    record: dict | None = None


class RepairController:
    """Drives scrubbing, spare-crossbar remap and live re-replication.

    The controller keeps its own monotone clock (``now_ns``): a probe
    that slightly overruns the handed-over window simply pushes the next
    window's start, so repair work never runs concurrently with itself.
    """

    def __init__(self, manager, policy: RepairPolicy | None = None) -> None:
        self.manager = manager
        self.policy = policy if policy is not None else RepairPolicy()
        self.scrubber = BackgroundScrubber(manager, self.policy)
        self.now_ns = 0.0
        self.busy_ns = 0.0
        self.detections = 0
        self.remaps = 0
        self.remap_ns = 0.0
        self.rereplications = 0
        self.rereplicated_bytes = 0
        self.events: list[dict] = []
        self._pending: list[_Transfer] = []
        self._suspicion: dict[int, int] = {}
        self._unrepairable: set[int] = set()
        self._dead_handled: set[int] = set()
        self._spread_noted: set[int] = set()

    # ------------------------------------------------------------------
    # idle-window scheduling
    # ------------------------------------------------------------------
    def advance(self, start_ns: float, end_ns: float) -> float:
        """Spend the idle window ``[start_ns, end_ns)`` on repair work.

        Redundancy restoration outranks scrubbing: queued re-replication
        transfers progress first (under the bandwidth budget), then due
        scrub probes fire. Returns the simulated time consumed.
        """
        t = max(float(start_ns), self.now_ns)
        end = float(end_ns)
        if end <= t:
            return 0.0
        t0 = t
        self._enqueue_missing(t)
        while t < end:
            if self._pending:
                t = self._transfer_step(t, end)
                continue
            due = self.scrubber.due_ns()
            if due >= end:
                break
            t = max(t, due)
            t += self._scrub_once(t)
        self.now_ns = max(self.now_ns, t)
        used = max(t - t0, 0.0)
        self.busy_ns += used
        return used

    def heal(self, now_ns: float, max_steps: int = 100_000) -> float:
        """Finish all outstanding re-replication after the run drains.

        Ignores scrub pacing — this is the end-of-run "restore every
        chunk to its target replica count" pass. Returns the simulated
        time at which the last transfer completed.
        """
        t = max(float(now_ns), self.now_ns)
        for _ in range(max_steps):
            self._enqueue_missing(t)
            if not self._pending:
                break
            t = self._transfer_step(t, math.inf)
        else:
            raise WatchdogTimeoutError(
                f"heal() made no progress after {max_steps} steps "
                f"({len(self._pending)} transfers stuck)"
            )
        self.now_ns = max(self.now_ns, t)
        return self.now_ns

    # ------------------------------------------------------------------
    # scrub outcomes -> repair decisions
    # ------------------------------------------------------------------
    def _scrub_once(self, t_ns: float) -> float:
        probe = self.scrubber.probe(t_ns)
        s = probe["shard"]
        outcome = probe["outcome"]
        cost = float(probe["cost_ns"])
        t_done = t_ns + cost
        health = self.manager.health
        if outcome in ("clean", "skip"):
            self._suspicion[s] = 0
            self.scrubber.advance(t_done)
        elif outcome == "crash":
            health.record_failure(s, t_done, permanent=True)
            self._suspicion[s] = 0
            self._event(t_done, "shard_dead", shard=s, via="scrub")
            self.scrubber.advance(t_done)
            self._enqueue_missing(t_done)
        elif outcome == "hang":
            health.record_failure(s, t_done)
            self.scrubber.advance(t_done)
        else:  # corrupt / dead_array
            self._suspicion[s] = self._suspicion.get(s, 0) + 1
            # a hard CrossbarDeadError is conclusive on its own; a bad
            # residue could be a transient wave_corrupt and needs the
            # policy's consecutive confirmations
            needed = (
                1
                if outcome == "dead_array"
                else self.policy.probe_confirmations
            )
            if self._suspicion[s] >= needed:
                self._suspicion[s] = 0
                cost += self._repair_shard(s, t_done)
                self.scrubber.advance(t_ns + cost)
            else:
                self.scrubber.hold()
        return cost

    def _repair_shard(self, s: int, t_ns: float) -> float:
        """Remap a confirmed-bad shard's faulty crossbars onto spares."""
        shard = self.manager.shards[s]
        health = self.manager.health
        faulty = shard.faulty
        events = (
            [
                e
                for e in faulty.repairable_events(t_ns)
                if id(e) not in self._unrepairable
            ]
            if faulty is not None
            else []
        )
        self.detections += 1
        self._event(
            t_ns, "detect", shard=s,
            faults=[e.describe() for e in events],
        )
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("repair.detections").add(1)
        if not events:
            # transient (wave_corrupt) or nothing the plan owns up to:
            # the per-query retry path absorbs it, nothing to remap
            return 0.0
        repaired = 0
        spent_ns = 0.0
        dead_beyond_repair = False
        window_open = False
        for event in events:
            old_ids = self._crossbars_of(shard, event)
            try:
                # pre-check the pool so a mid-loop exhaustion can't eat
                # spares without actually clearing the fault
                if shard.controller.pim.spares_remaining < len(old_ids):
                    raise CapacityError(
                        f"{shard.name}: {len(old_ids)} crossbars to remap, "
                        f"{shard.controller.pim.spares_remaining} spares left"
                    )
                # the remap is going ahead: open the outage window now
                # so the MTTR sample measures detection -> re-admission
                # (probation included) — opening it for a repair that
                # never runs (spares exhausted on a stuck shard) would
                # let the next routine success record a spurious
                # recovery sample
                if not window_open:
                    health.record_failure(s, t_ns)
                    window_open = True
                spares, ns = shard.controller.pim.remap_crossbars(old_ids)
            except CapacityError:
                self._unrepairable.add(id(event))
                self._event(
                    t_ns + spent_ns, "spares_exhausted",
                    shard=s, fault=event.describe(),
                )
                if event.kind == "crossbar_dead":
                    dead_beyond_repair = True
                continue
            shard.faulty.mark_repaired(event)
            repaired += 1
            spent_ns += ns
            self.remaps += len(old_ids)
            self.remap_ns += ns
            self._event(
                t_ns + spent_ns, "remap",
                shard=s, crossbars=old_ids, spares=spares,
                reprogram_ns=ns, fault=event.describe(),
            )
        if dead_beyond_repair:
            # the array cannot answer and no spare can bring it back:
            # declare the shard dead and let re-replication take over
            health.record_failure(s, t_ns + spent_ns, permanent=True)
            self._event(
                t_ns + spent_ns, "shard_dead", shard=s, via="spares_exhausted"
            )
            self._enqueue_missing(t_ns + spent_ns)
        elif repaired:
            probes = self.policy.quarantine_probes
            health.mark_repaired(s, t_ns + spent_ns, probes)
            self._event(
                t_ns + spent_ns, "quarantine",
                shard=s,
                probes=(
                    probes
                    if probes is not None
                    else self.manager.recovery.quarantine_probes
                ),
            )
        return spent_ns

    @staticmethod
    def _crossbars_of(shard, event) -> list[int]:
        """Physical crossbar ids a repairable fault touches.

        Data crossbars are group-major: vector group ``g`` (of
        ``vectors_per_crossbar`` vectors) occupies the ``g``-th run of
        ``stack = ceil(dims/rows)`` consecutive ids of the matrix's
        allocation; gather crossbars occupy the tail. A ``stuck_cells``
        event maps through its affected vectors to whole groups; a
        ``crossbar_dead`` event has no vector footprint — remapping the
        first data crossbar models swapping the failed device.
        """
        pim = shard.controller.pim
        name = shard.name
        ids = pim.unit_ids_of(name)
        layout = pim.layouts()[name]
        if event.kind != "stuck_cells":
            return ids[:1]
        vectors = shard.faulty.affected_vectors(name, event)
        vpc = layout.vectors_per_crossbar
        n_groups = math.ceil(layout.n_vectors / vpc)
        stack = max(layout.n_data_crossbars // max(n_groups, 1), 1)
        groups = sorted({int(v) // vpc for v in vectors})
        out: list[int] = []
        for g in groups:
            out.extend(ids[g * stack : (g + 1) * stack])
        return out or ids[:1]

    # ------------------------------------------------------------------
    # live re-replication
    # ------------------------------------------------------------------
    def _target_replication(self) -> int:
        if self.policy.target_replication is not None:
            return self.policy.target_replication
        return self.manager.replication

    def _enqueue_missing(self, t_ns: float) -> int:
        """Queue a transfer for every chunk below its replica target.

        Targets come from ``manager.select_replica_target``: least-
        loaded shard first historically, and — with a failure-domain
        topology attached — domain-disjoint shards before co-domain
        ones, so repair restores *spread*, not just count. A chunk
        already at its target count but whose surviving replicas all
        share one failure domain (``manager.chunk_risk``) gets one extra
        domain-disjoint copy when a shard outside that domain can host
        it: count-only repair would declare victory while the next
        correlated outage still takes every copy.
        """
        manager = self.manager
        n_alive = sum(manager.health.alive(s) for s in range(manager.n_shards))
        target_k = min(self._target_replication(), n_alive)
        # chunk -> shards its queued transfers already target
        targets: dict[int, set[int]] = {}
        for tr in self._pending:
            targets.setdefault(tr.chunk, set()).add(tr.target)
        queued = 0
        for c in range(manager.n_chunks):
            live = manager.live_replicas(c)
            if not live:
                # no surviving copy anywhere: degraded recompute is the
                # only recourse; note it once so the timeline shows why
                if c not in self._dead_handled:
                    self._dead_handled.add(c)
                    self._event(t_ns, "unrecoverable", chunk=c)
                continue
            busy = targets.setdefault(c, set())
            deficit = target_k - len(live) - len(busy)
            if deficit > 0:
                # a concurrent in-flight transfer is re-checked for
                # capacity at program time by add_replica's own pre-check
                for _ in range(deficit):
                    if not self._enqueue(c, t_ns, busy, spread=False):
                        break
                    queued += 1
            elif (
                not busy
                and manager.topology is not None
                and manager.spread
                and manager.chunk_risk(c) is not None
            ):
                if self._enqueue(c, t_ns, busy, spread=True):
                    self._spread_noted.discard(c)
                    queued += 1
                elif c not in self._spread_noted:
                    self._spread_noted.add(c)
                    self._event(
                        t_ns, "spread_unrestorable",
                        chunk=c, level=manager.chunk_risk(c),
                    )
        return queued

    def _enqueue(
        self, c: int, t_ns: float, busy: set[int], spread: bool
    ) -> bool:
        """Queue one copy of chunk ``c`` to its best target outside
        ``busy``; with ``spread`` only a fully domain-disjoint target
        will do. False when no shard qualifies."""
        manager = self.manager
        tgt = manager.select_replica_target(c, exclude=busy)
        if tgt is None or (
            spread and manager.replica_target_score(c, tgt)[0] != 0
        ):
            return False
        size = manager.chunk_bytes(c)
        self._pending.append(
            _Transfer(
                chunk=c,
                target=tgt,
                started_ns=t_ns,
                bytes=size,
                remaining_ns=size * self.policy.copy_ns_per_byte,
            )
        )
        busy.add(tgt)
        extra = {"spread_repair": True} if spread else {}
        self._event(
            t_ns, "rereplicate_start", chunk=c, target=tgt, bytes=size, **extra
        )
        return True

    def _transfer_step(self, t_ns: float, end_ns: float) -> float:
        """Progress the head transfer; returns the new simulated time."""
        tr = self._pending[0]
        step = min(tr.remaining_ns, end_ns - t_ns)
        tr.remaining_ns -= step
        t_ns += step
        if tr.remaining_ns > 1e-9:
            return t_ns  # window exhausted mid-phase; resume next window
        if tr.phase == "copy":
            try:
                record = self.manager.add_replica(tr.chunk, tr.target)
            except (CapacityError, ChunkUnavailableError, ServingError) as exc:
                self._pending.pop(0)
                self._event(
                    t_ns, "rereplicate_failed",
                    chunk=tr.chunk, target=tr.target, reason=str(exc),
                )
                return t_ns
            tr.record = record
            tr.phase = "program"
            tr.remaining_ns = float(record["program_ns"])
            return t_ns
        # program phase finished: the replica is live
        self._pending.pop(0)
        self.rereplications += 1
        self.rereplicated_bytes += tr.bytes
        record = dict(tr.record or {})
        record.update(duration_ns=t_ns - tr.started_ns)
        self._event(t_ns, "rereplicate_done", **record)
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("repair.rereplications").add(1)
            tele.metrics.counter("repair.rereplicated_bytes").add(tr.bytes)
        return t_ns

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _event(self, t_ns: float, kind: str, **attrs) -> None:
        self.events.append({"t_ns": float(t_ns), "kind": kind, **attrs})
        tele = get_recorder()
        if tele.enabled:
            # each repair action is its own root span on the repair
            # track: timeline events are stamped at completion, so the
            # span covers the action's known duration ending at t_ns
            duration = attrs.get("duration_ns", attrs.get("reprogram_ns", 0.0))
            try:
                duration = max(0.0, float(duration))
            except (TypeError, ValueError):
                duration = 0.0
            start = max(0.0, float(t_ns) - duration)
            safe = {
                k: v
                for k, v in attrs.items()
                if isinstance(v, (str, int, float, bool, type(None)))
            }
            tele.record_span(
                f"repair.{kind}", "repair", start, float(t_ns),
                trace_id=tele.mint_id("t"), track="repair", **safe,
            )

    def drain_events(self) -> list[dict]:
        """Timeline events recorded since the last drain."""
        out = self.events
        self.events = []
        return out

    def report(self) -> dict:
        """The repair loop's own dashboard (folded into SLO summaries)."""
        manager = self.manager
        spares = [
            (
                shard.controller.pim.spares_remaining
                if shard.controller is not None
                else 0
            )
            for shard in manager.shards
        ]
        return {
            "scrub": self.scrubber.report(),
            "detections": self.detections,
            "remaps": self.remaps,
            "remap_ns": self.remap_ns,
            "rereplications": self.rereplications,
            "rereplicated_bytes": self.rereplicated_bytes,
            "pending_transfers": len(self._pending),
            "spares_remaining": spares,
            "replica_counts": manager.replica_counts(),
            "at_risk_chunks": manager.spread_report()["n_at_risk"],
            "busy_ns": self.busy_ns,
        }

"""Exact scatter/gather over PIM shards, surviving faults.

A *shard* is one PIM memory module (its own substrate array) holding a
subset of the dataset rows. :class:`ShardManager` answers queries by
scattering the quantized query to every shard, letting each shard
filter-and-refine its local rows, and merging the per-shard top-k lists
— the SimplePIM-style thin software layer that turns N independent
arrays into one logical store. Where rows and replicas live is decided
in :mod:`repro.serving.placement`; every score, bound and top-k is a
kernel of :mod:`repro.kernels`. This module holds the dispatch.

Exactness and placement invariance
----------------------------------
Merged results must be *bit-identical* for every placement of the same
dataset, so every numeric step is defined per global row:

* one **global quantizer** is fitted on the full dataset and shared by
  all shards — a per-shard fit would make the PIM lower bounds depend on
  which rows share a shard;
* shard-local work visits candidates in ``(lower bound, global index)``
  order and maintains the k best by the canonical ``(score, global
  index)`` lexicographic order, so duplicate distances always resolve to
  the lowest global index no matter which shard refined them;
* pruning is strict (``lb > threshold``), so boundary ties are always
  refined rather than dropped.

Exact scores are squared Euclidean distances in the quantizer's
normalised space — the space Theorem 1's bound provably lower-bounds.

Replication and recovery
------------------------
With ``replication=r`` the placement's shard ids are reinterpreted as
*chunk* ids and each chunk is programmed onto ``r`` shards; each
dispatch serves every chunk from exactly one live replica, so no row is
ever double-counted. Because the quantizer is global and ties resolve
canonically, *any* choice of live replicas yields bit-identical results
— failover is invisible in the values. When a
:class:`~repro.faults.FaultPlan` is attached, dispatches survive
crashes, hangs, stragglers and corrupted waves via bounded retries with
capped exponential backoff, per-attempt timeouts, replica failover and
(last resort) host-side exact recomputation of an unavailable chunk —
see :class:`~repro.serving.health.RecoveryPolicy`. Wave integrity is
checked with a residue checksum row (:mod:`repro.faults.integrity`)
programmed alongside the data, so a corrupted wave is detected and
never silently used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cost.counters import PerfCounters
from repro.cost.model import CostModel
from repro.errors import (
    CapacityError,
    ChunkUnavailableError,
    ConfigurationError,
    CrossbarDeadError,
    ReproError,
    ServingError,
    ShardHungError,
)
from repro.faults.injectors import FaultyPIMArray, FaultyShardEngine, ShardVerdict
from repro.faults.integrity import append_checksum_row, verify_wave_residues
from repro.faults.plan import FaultPlan
from repro.hardware.config import (
    FailureDomainTopology,
    HardwareConfig,
    pim_platform,
)
from repro.hardware.controller import PIMController
from repro.hardware.pim_array import PIMStats
from repro.serving.health import (
    CRASH_DETECT_NS,
    HEDGE_MIN_NS,
    HEDGE_P95_FACTOR,
    MAX_RETRIES,
    HedgeBudget,
    RecoveryPolicy,
    ShardHealthTracker,
    backoff_ns,
)
from repro.kernels import (
    assign_sweep,
    canonical_topk,
    exact_sq_distances,
    knn_bounds,
    merge_topk,
    nearest_centers,
    refine_topk,
)
from repro.serving.placement import (
    ReplicaPlacement,
    ShardPlacement,
    plan_placement,
)
from repro.similarity.quantization import Quantizer
from repro.telemetry import get_recorder

#: Entries the per-manager shard CPU-time memo holds before it is cleared.
_SHARD_CPU_MEMO_SIZE = 4096


@dataclass(frozen=True)
class KNNAnswer:
    """Merged top-k of one query in canonical ``(score, index)`` order."""

    indices: np.ndarray
    scores: np.ndarray
    refined: int
    pruned: int
    approximate: bool = False
    degraded: bool = False


@dataclass(frozen=True)
class AssignAnswer:
    """k-means-assist result: nearest center per global dataset row."""

    assignments: np.ndarray
    distances: np.ndarray
    refined: int
    pruned: int
    degraded: bool = False


@dataclass
class GatherTiming:
    """Simulated-time breakdown of one scatter/gather dispatch.

    Shards run in parallel (each is an independent memory module), so
    the dispatch occupies the service until its tail — the latest
    successful wave completion (``wave_end_ns``, which under faults
    includes failed attempts, backoff idle time and failovers
    serialized per shard) or the moment the last degraded chunk was
    given up (``given_up_ns``), whichever is later — then any degraded
    host-side recompute, then the coordinator's merge. The recovery
    counters record what it took to get every chunk served.
    """

    per_shard_pim_ns: list = field(default_factory=list)
    per_shard_cpu_ns: list = field(default_factory=list)
    merge_cpu_ns: float = 0.0
    wave_end_ns: list = field(default_factory=list)
    #: One dict per ``wave_end_ns`` entry: the winning wave's shard,
    #: dispatch-relative start (everything before it — failed attempts,
    #: backoff, queueing behind the shard — is retry/wait time), and its
    #: pim/cpu split, so the critical path decomposes exactly.
    wave_components: list = field(default_factory=list)
    #: dispatch-relative time the last degraded chunk was given up: the
    #: time its failed attempts and backoff took before the host-side
    #: recompute could start (0.0 when no chunk degraded)
    given_up_ns: float = 0.0
    degraded_cpu_ns: float = 0.0
    attempts: int = 0
    retries: int = 0
    failovers: int = 0
    hedges: int = 0
    #: hedged waves that finished before their original (and vice
    #: versa); the loser is cancelled at the winner's completion and
    #: only charged for the time it actually ran — the cancelled
    #: remainder (cpu, link stall and device time) accumulates in
    #: ``hedge_cancelled_ns`` instead of inflating shard busy time, and
    #: its device part leaves the merged PIM stats (their
    #: ``hedge_cancelled_pim_ns``).
    hedges_won: int = 0
    hedges_lost: int = 0
    #: hedges the global budget refused (token bucket dry)
    hedges_denied: int = 0
    hedge_cancelled_ns: float = 0.0
    timeouts: int = 0
    corrupt_detected: int = 0
    crashes: int = 0
    backoff_ns: float = 0.0
    degraded_chunks: int = 0
    #: dispatches a flaky host<->shard link dropped (transient fails)
    link_drops: int = 0

    @property
    def service_ns(self) -> float:
        """End-to-end occupancy of the dispatch."""
        tail = max(self.wave_end_ns, default=0.0)
        return (
            max(tail, self.given_up_ns)
            + self.degraded_cpu_ns
            + self.merge_cpu_ns
        )

    def critical_path(self) -> dict:
        """Attribute :attr:`service_ns` to its latency segments.

        Follows the same tail logic as :attr:`service_ns`, so
        ``retry_ns + wave_ns + host_ns + degraded_ns + gather_ns`` sums
        back to the dispatch occupancy (to float rounding, well inside
        1 simulated ns). A tail set by a given-up chunk is all retry
        time.
        """
        path = {
            "retry_ns": self.given_up_ns,
            "wave_ns": 0.0,
            "host_ns": 0.0,
            "degraded_ns": self.degraded_cpu_ns,
            "gather_ns": self.merge_cpu_ns,
            "shard": None,
        }
        if self.wave_components:
            comp = max(self.wave_components, key=lambda c: c["end_ns"])
            if comp["end_ns"] >= self.given_up_ns:
                path["retry_ns"] = max(
                    0.0, comp["end_ns"] - comp["pim_ns"] - comp["cpu_ns"]
                )
                path["wave_ns"] = comp["pim_ns"]
                path["host_ns"] = comp["cpu_ns"]
                path["shard"] = comp["shard"]
        return path


class _Shard:
    """One PIM module: a row subset, its side data, and its engine.

    Every wave on the shard — a dispatch, a hedge, a scrub probe — goes
    through :meth:`fire`. With ``verify=True`` the programmed matrix
    carries one extra checksum row (see :mod:`repro.faults.integrity`),
    which :meth:`fire` verifies and strips. With a fault plan, the
    shard's device carries a
    :class:`~repro.faults.injectors.FaultyPIMArray` hook targeting this
    shard's name (``faulty``: its fault clock and repair API), which
    books every slowdown of the shard as device time, and a
    :class:`~repro.faults.injectors.FaultyShardEngine` answers
    crash/hang/drop verdicts and link delay per dispatch
    (:meth:`verdict`). An empty shard has no array until a replica
    lands on it.
    """

    def __init__(
        self,
        shard_id: int,
        global_indices: np.ndarray,
        integers: np.ndarray,
        phi: np.ndarray,
        floats: np.ndarray,
        hardware: HardwareConfig,
        verify: bool = False,
        fault_plan: FaultPlan | None = None,
        spare_crossbars: int = 0,
        substrate: str = "crossbar",
    ) -> None:
        self.shard_id = shard_id
        self.global_indices = global_indices
        self.integers = integers
        self.phi = phi
        self.floats = floats
        self.name = f"shard{shard_id}"
        self.busy_ns = 0.0
        # PIM time charged to this shard's stats by waves whose result
        # was discarded after a hedge race was decided — subtracted from
        # the merged PIMStats so hedging never double-counts device time.
        self.cancelled_pim_ns = 0.0
        self.hardware = hardware
        #: operand width of the shard's integers (the checksum modulus)
        self.bits = hardware.pim.operand_bits if hardware.pim else 8
        self.fault_plan = fault_plan
        self.spare_crossbars = spare_crossbars
        self.substrate = substrate
        self.verify = False
        self.chunk_slices: dict[int, slice] = {}
        self.controller: PIMController | None = None
        self.faulty: FaultyPIMArray | None = None
        self.fault_engine: FaultyShardEngine | None = (
            FaultyShardEngine(fault_plan, self.name)
            if fault_plan is not None
            else None
        )
        if self.n_rows:
            self.reprogram(verify)

    def advance_clock(self, t_ns: float) -> None:
        """Move this shard's fault clock to simulated time ``t_ns``."""
        if self.faulty is not None:
            self.faulty.advance_to(t_ns)

    def reprogram(self, verify: bool) -> float:
        """(Re)program the full matrix from the shard's current rows.

        The first call builds the controller (and the fault hook) and
        fixes the shard's ``verify`` flag; later calls — live
        re-replication appended a chunk's rows — reset the matrix and
        rewrite it, checksum row included. Returns the programming
        receipt time in ns, which the repair controller charges against
        the repair budget.
        """
        if self.controller is None:
            self.controller = PIMController(
                self.hardware,
                spare_crossbars=self.spare_crossbars,
                substrate=self.substrate,
            )
            if self.fault_plan is not None:
                self.faulty = FaultyPIMArray(
                    self.controller.pim, self.fault_plan, self.name,
                    auto_advance=False,
                )
            self.verify = verify
        elif self.name in self.controller.pim.layouts():
            # absent when a failed reprogram already erased the matrix
            # (the rollback path re-programs from scratch)
            self.controller.pim.reset_matrix(self.name)
        payload = (
            append_checksum_row(self.integers, self.bits)
            if self.verify
            else self.integers
        )
        receipt = self.controller.program(
            self.name, payload, side_data_bytes=self.phi.nbytes
        )
        return receipt.total_ns

    def can_host(self, extra_rows: int, verify: bool) -> bool:
        """Whether the matrix rewritten with ``extra_rows`` more vectors fits.

        The capacity check live re-replication runs *before* mutating
        this shard: the combined payload (checksum row included) must
        fit the device net of the spare-unit reservation and of any
        other matrix it hosts. ``verify`` is only consulted when the
        shard has never been programmed (its own flag is authoritative
        otherwise). A live device answers through its
        :meth:`fits_matrix` hook, an unbuilt shard through the backend's
        capability descriptor; a spare reservation that leaves no data
        units fits nothing.
        """
        v = self.verify if self.controller is not None else verify
        n = self.n_rows + int(extra_rows) + (1 if v else 0)
        dims = self.integers.shape[1]
        if self.controller is not None:
            return self.controller.pim.fits_matrix(n, dims, exclude=self.name)
        from repro.substrate import substrate_capabilities

        try:
            return substrate_capabilities(
                self.substrate, self.hardware
            ).fits_fresh(n, dims, self.spare_crossbars)
        except CapacityError:
            return False

    @property
    def n_rows(self) -> int:
        return int(self.global_indices.size)

    @property
    def pim_stats(self) -> PIMStats:
        """This shard's array-level stats (empty for an empty shard)."""
        if self.controller is not None:
            return self.controller.pim.stats
        return PIMStats()

    @property
    def endurance(self):
        """This shard's endurance tracker (None for an unbuilt shard)."""
        if self.controller is not None:
            return self.controller.pim.endurance
        return None

    def verdict(self, t_ns: float) -> ShardVerdict:
        """The fault engine's verdict on a dispatch at ``t_ns``."""
        if self.fault_engine is None:
            return ShardVerdict("ok")
        return self.fault_engine.outcome(t_ns)

    def fire(self, q_int: np.ndarray) -> tuple[np.ndarray, float, int]:
        """One batched wave of ``q_int``: ``(dots, pim_ns, bad)``.

        ``dots`` are the ``(B, n_rows)`` integer dot products with the
        checksum column verified and stripped, ``pim_ns`` the wave's
        time as the device booked it (every slowdown included) and
        ``bad`` the number of query rows whose residue check failed.
        Raises :class:`~repro.errors.CrossbarDeadError` from a dead
        device; an empty shard fires nothing.
        """
        if self.n_rows == 0:
            return np.zeros((q_int.shape[0], 0), dtype=np.int64), 0.0, 0
        result = self.controller.dot_products_batch(self.name, q_int)
        dots, bad = result.values, 0
        if self.verify:
            clean = np.atleast_1d(verify_wave_residues(dots, self.bits))
            bad = int(clean.size - np.count_nonzero(clean))
            dots = dots[:, : self.n_rows]
        return dots, result.timing.total_ns, bad


def _recovery_marker(tele, outcome: str, shard_id: int, n_chunks: int) -> None:
    """Surface one recovery decision in telemetry (marker span + counter)."""
    if not tele.enabled:
        return
    tele.metrics.counter(f"serving.recovery.{outcome}").add(1)
    with tele.span(
        "serving.recovery", "serving",
        shard=shard_id, outcome=outcome, chunks=n_chunks,
    ):
        pass  # zero-duration marker on the trace timeline


#: Failed wave attempts: outcome -> (cost, GatherTiming counter,
#: permanent, failover). ``"detect"`` costs ``CRASH_DETECT_NS`` of host
#: waiting that blocks the shard's timeline without charging it;
#: ``"timeout"`` (the watchdog bound) and ``"wave"`` (the wave's own
#: device time) are charged to the shard as device time. ``permanent``
#: marks the shard dead; without ``failover`` a transient fault retries
#: the same replica once before moving on.
_OUTCOMES = {
    "link_drop": ("detect", "link_drops", False, True),
    "crash": ("detect", "crashes", True, True),
    "crossbar_dead": ("detect", "crashes", True, True),
    "hang_timeout": ("timeout", "timeouts", False, True),
    "timeout": ("timeout", "timeouts", False, True),
    "corrupt": ("wave", "corrupt_detected", False, False),
}

#: Fault-engine verdicts that fail an attempt before any wave runs.
_VERDICT_OUTCOMES = {
    "drop": "link_drop", "crash": "crash", "hang": "hang_timeout"
}


class _Ledger:
    """Per-dispatch state of :meth:`ShardManager._dispatch`.

    Every chunk starts *pending* with a replica pointer, a failure count
    and a ``ready`` time (dispatch-relative, when it may next be tried);
    each round puts it *in flight* in one shard's wave, after which it
    is *served* (leaves ``pending``), failed (back to pending, later
    ``ready``) or, with no replica left to try, *degraded* (given up to
    the caller's host-side recompute). ``clock`` is each shard's
    dispatch-relative timeline; :meth:`book` is its only writer, and the
    only writer of the shards' busy and cancelled device time and of the
    per-shard pim/cpu totals in ``timing``.
    """

    def __init__(self, manager, now_ns: float, timing) -> None:
        self.manager = manager
        self.now_ns = now_ns
        self.timing = timing
        self.tele = get_recorder()
        self.pending = set(range(manager.n_chunks))
        self.ptr = dict.fromkeys(self.pending, 0)
        self.fails = dict.fromkeys(self.pending, 0)
        self.ready = dict.fromkeys(self.pending, 0.0)
        self.degraded: list[int] = []
        #: shards whose single probe slot this dispatch claimed
        self.claimed: set[int] = set()
        self.clock = [0.0] * manager.n_shards
        timing.per_shard_pim_ns = [0.0] * manager.n_shards
        timing.per_shard_cpu_ns = [0.0] * manager.n_shards

    def book(
        self,
        s: int,
        start_rel: float,
        pim_ns: float,
        cpu_ns: float,
        cancelled_pim_ns: float = 0.0,
    ) -> float:
        """Charge shard ``s`` for a slice of work; returns its end.

        A wave books its whole run from ``start_rel``, moving the
        shard's clock to its end. A cancellation books negative time at
        the cancel instant ``start_rel``: the clock returns to that
        instant and the discarded device time moves to
        ``cancelled_pim_ns`` (subtracted from the merged PIMStats).
        """
        shard = self.manager.shards[s]
        shard.busy_ns += pim_ns + cpu_ns
        shard.cancelled_pim_ns += cancelled_pim_ns
        self.timing.per_shard_pim_ns[s] += pim_ns
        self.timing.per_shard_cpu_ns[s] += cpu_ns
        self.clock[s] = max(start_rel, start_rel + pim_ns + cpu_ns)
        return self.clock[s]

    def cut(
        self, s: int, at_rel: float, tail_ns: float, cpu_ns: float,
        delay_ns: float,
    ):
        """Cancel the last ``tail_ns`` of a race loser's wave at ``at_rel``.

        The wave's cpu stage (``cpu_ns``) runs last, after its flaky-link
        stall (``delay_ns``), so the cancelled tail eats cpu time first,
        then link delay, then device time. Only the device part moves to
        ``cancelled_pim_ns``: the device never booked the link stall.
        """
        cpu_cut = min(tail_ns, cpu_ns)
        delay_cut = min(tail_ns - cpu_cut, delay_ns)
        self.book(
            s, at_rel, cpu_cut - tail_ns, -cpu_cut,
            tail_ns - cpu_cut - delay_cut,
        )
        self.timing.hedge_cancelled_ns += tail_ns

    def fail(
        self,
        s: int,
        chunks: list[int],
        start_rel: float,
        outcome: str,
        wave_ns: float = 0.0,
        count: int = 1,
    ) -> None:
        """Book a failed attempt of ``chunks`` on shard ``s``.

        ``outcome`` keys ``_OUTCOMES``; ``wave_ns`` is the device time
        of a wave that ran (``"wave"`` cost) and ``count`` the amount
        its counter grows by.
        """
        cost, counter, permanent, failover = _OUTCOMES[outcome]
        timing = self.timing
        setattr(timing, counter, getattr(timing, counter) + count)
        if cost == "detect":
            end_rel = self.book(s, start_rel + CRASH_DETECT_NS, 0.0, 0.0)
        elif cost == "timeout":
            timeout_ns = self.manager.recovery.dispatch_timeout_ns
            end_rel = self.book(s, start_rel, timeout_ns, 0.0)
        else:
            end_rel = self.book(s, start_rel, wave_ns, 0.0)
        _recovery_marker(self.tele, outcome, s, len(chunks))
        self.manager.health.record_failure(
            s, self.now_ns + end_rel, permanent=permanent
        )
        for c in chunks:
            self.fails[c] += 1
            # transient faults retry the same replica once; anything
            # persistent (or any repeat failure) moves on
            if failover or permanent or self.fails[c] >= 2:
                self.ptr[c] += 1
                timing.failovers += 1
            # an exhausted chunk gets no backoff: it is given up at the
            # end of its last attempt
            delay = 0.0
            if self.fails[c] <= MAX_RETRIES:
                delay = backoff_ns(self.fails[c])
                timing.retries += 1
                timing.backoff_ns += delay
            self.ready[c] = max(self.ready[c], end_rel + delay)

    def give_up(self, c: int) -> None:
        """Chunk ``c`` has no replica left to try: degrade it (or raise)."""
        manager = self.manager
        self.pending.discard(c)
        if not manager.recovery.allow_degraded:
            raise ChunkUnavailableError(
                f"chunk {c} has no live replica and degraded "
                "recompute is disabled",
                unit=f"chunk{c}",
                timestamp_ns=self.now_ns,
                replicas=list(manager.replicas[c]),
                failures=self.fails[c],
            )
        self.degraded.append(c)
        self.timing.degraded_chunks += 1
        self.timing.given_up_ns = max(self.timing.given_up_ns, self.ready[c])
        _recovery_marker(self.tele, "degraded", manager.replicas[c][0], 1)

    def pick(self, c: int, batch: int, probing: set[int]) -> int | None:
        """The replica chunk ``c`` tries this round, or None to give up.

        Walks the chunk's preference order from its replica pointer. A
        half-open or quarantined shard takes exactly one probe wave:
        claiming its probe slot makes every other caller see it as
        unavailable, and chunks joining the same round ride the probe.
        """
        if self.fails[c] > MAX_RETRIES:
            return None
        health = self.manager.health
        t_sel = self.now_ns + self.ready[c]
        reps = health.prefer_order(self.manager._route_order(c, batch), t_sel)
        for step in range(len(reps)):
            s = reps[(self.ptr[c] + step) % len(reps)]
            if s not in probing:
                if not health.available(s, t_sel):
                    continue
                if health.probationary(s, t_sel):
                    if not health.begin_probe(s, t_sel):
                        continue
                    probing.add(s)
                    self.claimed.add(s)
            self.ptr[c] += step
            return s
        return None


class ShardManager(ReplicaPlacement):
    """Partition a dataset over N PIM shards; serve exact queries.

    Parameters
    ----------
    data:
        The float dataset, ``(n, dims)``. Normalisation statistics and
        the quantizer are global, shared by every shard.
    n_shards:
        Shard count when ``placement`` is a kind string.
    placement:
        ``"range"``, ``"hash"``, or an explicit :class:`ShardPlacement`.
    hardware:
        Per-shard platform (each shard instantiates its own array).
    quantizer:
        Global quantizer; defaults to the paper's alpha, fitted here.
    replication:
        Replicas per data chunk (the placement's shard ids become chunk
        ids; chunk ``c`` lives on shards ``(c + j) % n_shards`` for
        ``j < replication``, or on a domain-spread set with a
        ``topology``). 1 reproduces unreplicated behaviour bit for bit.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; attaches injectors to
        every shard and turns on the recovery machinery.
    recovery:
        Timeout/breaker/hedging/degradation settings; defaults to
        :class:`~repro.serving.health.RecoveryPolicy`.
    verify:
        Program a residue checksum row per shard and verify every wave
        (detection of corrupted waves). Defaults to on exactly when a
        fault plan is attached.
    substrates:
        Per-shard compute backend, by registry name: a single name for
        a homogeneous fleet, or one name per shard for heterogeneous
        placements (e.g. ``["crossbar", "hbm_pim", ...]``). Defaults to
        ``"crossbar"`` everywhere. Every substrate computes the same
        exact integer dot products, so answers are bit-identical for
        any assignment — only the simulated cost differs.
    route:
        Replica-preference policy under replication: ``"auto"`` runs
        the planner cost-router (latency objective) exactly when the
        fleet is heterogeneous, ``"latency"``/``"energy"`` force it
        with that objective, ``"none"`` keeps the historical
        round-robin order. Routing only permutes which replica is
        *tried first* — failover still walks the remaining replicas,
        so values are unchanged by construction.
    topology:
        Optional :class:`~repro.hardware.config.FailureDomainTopology`
        mapping shard ids onto the board/channel/power-domain tree.
        With ``spread=True`` (the default) replica placement becomes
        *domain-spread*: each chunk's replicas are placed so that no
        two share a failure domain whenever the fleet shape allows,
        and every unavoidable co-domain pairing is recorded in
        ``placement_violations``. Because answers are placement-
        invariant by construction, spread placement changes *which*
        shards host a chunk but never the values served.
    spread:
        With a topology attached, ``False`` keeps the historical ring
        placement (domain-oblivious) while still exposing the
        topology's spread/at-risk accounting — the "naive placement"
        arm of the disaster-recovery bench.
    """

    def __init__(
        self,
        data: np.ndarray,
        n_shards: int = 1,
        placement: str | ShardPlacement = "range",
        *,
        hardware: HardwareConfig | None = None,
        quantizer: Quantizer | None = None,
        seed: int = 0,
        replication: int = 1,
        fault_plan: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        verify: bool | None = None,
        spare_crossbars: int = 0,
        substrates: "str | list[str] | tuple[str, ...] | None" = None,
        route: str = "auto",
        topology: FailureDomainTopology | None = None,
        spread: bool = True,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ServingError(
                "ShardManager expects a non-empty (n, dims) dataset"
            )
        self.hardware = hardware if hardware is not None else pim_platform()
        if isinstance(placement, ShardPlacement):
            if placement.n_rows != data.shape[0]:
                raise ServingError(
                    "placement covers "
                    f"{placement.n_rows} rows, dataset has {data.shape[0]}"
                )
            self.placement = placement
        else:
            self.placement = plan_placement(
                data.shape[0], n_shards, kind=placement, seed=seed
            )
        self.n_shards = self.placement.n_shards
        self.n_chunks = self.placement.n_shards
        self.dims = int(data.shape[1])
        self.n_rows = int(data.shape[0])
        if not 1 <= replication <= self.n_shards:
            raise ServingError(
                f"replication must lie in [1, {self.n_shards}] "
                f"(got {replication})"
            )
        self.replication = int(replication)
        if topology is not None and topology.n_shards != self.n_shards:
            raise ServingError(
                f"topology describes {topology.n_shards} shards, "
                f"placement has {self.n_shards}"
            )
        self.topology = topology
        self.spread = bool(spread)
        #: Unavoidable co-domain replica pairings, recorded at placement
        #: time and by add_replica when no spread-restoring target
        #: exists. Each record names the chunk, the offending shard pair
        #: and the finest domain level they share.
        self.placement_violations: list[dict] = []
        #: Every successful add_replica as ``(chunk, target)`` in
        #: application order — replayed verbatim by checkpoint restore
        #: so shard row layouts come back byte-identical.
        self.replica_log: list[tuple[int, int]] = []
        self.replicas: list[tuple[int, ...]] = self._initial_replicas()
        self.fault_plan = fault_plan
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.spare_crossbars = int(spare_crossbars)
        if self.spare_crossbars < 0:
            raise ConfigurationError("spare_crossbars must be non-negative")
        if substrates is None:
            substrate_list = ["crossbar"] * self.n_shards
        elif isinstance(substrates, str):
            substrate_list = [substrates] * self.n_shards
        else:
            substrate_list = [str(s) for s in substrates]
            if len(substrate_list) != self.n_shards:
                raise ServingError(
                    f"substrates names {len(substrate_list)} shards, "
                    f"placement has {self.n_shards}"
                )
        self.substrates: list[str] = substrate_list
        self.health = ShardHealthTracker(
            self.n_shards, self.recovery, substrates=substrate_list
        )
        self._hedge_budget = (
            HedgeBudget(self.recovery.hedge_budget)
            if self.recovery.hedge_budget is not None
            else None
        )
        self._health_version_seen = 0
        heterogeneous = len(set(substrate_list)) > 1
        if any(s != "crossbar" for s in substrate_list):
            from repro.substrate import available_substrates

            known = set(available_substrates())
            unknown = sorted(set(substrate_list) - known)
            if unknown:
                raise ServingError(
                    f"unknown substrates {unknown}; registered: "
                    f"{sorted(known)}"
                )
        if route not in ("auto", "latency", "energy", "none"):
            raise ServingError(
                f"unknown route policy {route!r}; expected auto, "
                "latency, energy or none"
            )
        self.route = route
        self._router = None
        if route in ("latency", "energy") or (
            route == "auto" and heterogeneous
        ):
            from repro.substrate import CostRouter

            objective = "energy" if route == "energy" else "latency"
            # With the latency-outlier detector running, observed
            # service times are trustworthy enough to let measurements
            # pull the ranking away from pure capability predictions.
            observed_weight = (
                0.5 if self.recovery.outlier_ejection else 0.0
            )
            self._router = CostRouter(
                self.hardware,
                objective=objective,
                observed_weight=observed_weight,
            )
        self._route_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._route_decisions: list = []
        if verify is None:
            verify = fault_plan is not None
        self.verify = bool(verify)
        self.quantizer = (
            quantizer if quantizer is not None else Quantizer()
        )
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        self.cost_model = CostModel(self.hardware)
        self._shard_cpu_memo: dict[tuple[int, int, int], float] = {}
        qv = self.quantizer.quantize(data)
        normalized = self.quantizer.normalize(data)
        phi = qv.phi
        self.chunk_rows: list[np.ndarray] = [
            self.placement.rows_of(c) for c in range(self.n_chunks)
        ]
        self._clock_ns = 0.0
        self.shards: list[_Shard] = []
        for s in range(self.n_shards):
            hosted = sorted(
                c for c in range(self.n_chunks) if s in self.replicas[c]
            )
            parts = [self.chunk_rows[c] for c in hosted]
            rows = (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=np.int64)
            )
            shard = _Shard(
                s,
                rows,
                qv.integers[rows],
                phi[rows],
                normalized[rows],
                self.hardware,
                verify=self.verify,
                fault_plan=fault_plan,
                spare_crossbars=self.spare_crossbars,
                substrate=substrate_list[s],
            )
            offset = 0
            for c in hosted:
                size = int(self.chunk_rows[c].size)
                shard.chunk_slices[c] = slice(offset, offset + size)
                offset += size
            self.shards.append(shard)
        #: The dataset as handed in (float64) — the checkpoint layer
        #: snapshots it so a cold restart re-quantizes bit-identically.
        self.source_data = data
        #: Simulated time of the last checkpoint written against this
        #: manager (None = never); feeds the checkpoint-age gauge.
        self.last_checkpoint_ns: float | None = None
        self.health.attach_placement(
            [
                topology.domains_of(s) if topology is not None else None
                for s in range(self.n_shards)
            ],
            self.spread_report,
        )

    # ------------------------------------------------------------------
    # CPU accounting (Quartz model, one bucket per stage)
    # ------------------------------------------------------------------
    def _cpu_ns(self, **events) -> float:
        counters = PerfCounters()
        counters.record("serving", calls=1, **events)
        return self.cost_model.total_time_ns(counters)

    def _shard_cpu_ns(self, n_local: int, queries: int, refined: int) -> float:
        """:meth:`_shard_cpu_model_ns`, memoised per argument triple.

        The model is a pure function of its arguments, ``dims`` and the
        frozen hardware config, and serving repeats the same few triples
        on every wave; the memo is cleared when it reaches a fixed size.
        """
        key = (n_local, queries, refined)
        ns = self._shard_cpu_memo.get(key)
        if ns is None:
            if len(self._shard_cpu_memo) >= _SHARD_CPU_MEMO_SIZE:
                self._shard_cpu_memo.clear()
            ns = self._shard_cpu_model_ns(n_local, queries, refined)
            self._shard_cpu_memo[key] = ns
        return ns

    def _shard_cpu_model_ns(
        self, n_local: int, queries: int, refined: int
    ) -> float:
        """Shard-local host work: bound combine, sort, refine, heap."""
        n_visited = n_local * queries  # worst case; refined <= visited
        return self._cpu_ns(
            # lb = (phi_p + phi_q - 2 dots - 2d) / alpha^2, clip
            flops=5.0 * n_visited,
            bytes_cached=16.0 * n_visited,
            # lexsort by (lb, index) + candidate scan / heap maintenance
            branches=1.5 * n_visited * max(np.log2(max(n_local, 2)), 1.0)
            + 2.0 * n_visited,
            # exact refinement of the surviving candidates
            long_ops=0.0,
        ) + self._cpu_ns(
            flops=3.0 * self.dims * refined,
            bytes_from_memory=4.0 * self.dims * refined,
        )

    def _merge_cpu_ns(self, candidates: int) -> float:
        """Coordinator gather: merge the per-shard k-lists."""
        if candidates <= 0:
            return 0.0
        return self._cpu_ns(
            flops=candidates,
            branches=2.0 * candidates * max(np.log2(max(candidates, 2)), 1.0),
            bytes_cached=16.0 * candidates,
        )

    def _degraded_cpu_ns(self, n_rows: int, queries: int) -> float:
        """Host-side exact recompute of one unavailable chunk.

        No PIM bounds are available, so every row pays a full exact
        distance against every query — the slow-but-exact last resort.
        """
        if n_rows <= 0:
            return 0.0
        return self._cpu_ns(
            flops=3.0 * self.dims * n_rows * queries,
            bytes_from_memory=8.0 * self.dims * n_rows,
            branches=2.0 * n_rows * queries,
        )

    # ------------------------------------------------------------------
    # kNN scatter/gather
    # ------------------------------------------------------------------
    def _prepare_queries(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dims:
            raise ServingError(
                f"queries must have {self.dims} dimensions"
            )
        qv = self.quantizer.quantize(queries)
        normalized = self.quantizer.normalize(queries)
        return qv.integers, normalized, qv.phi

    # ------------------------------------------------------------------
    # fault-tolerant chunk dispatch
    # ------------------------------------------------------------------
    #: routed decisions kept for :meth:`routing_report` (newest last)
    _MAX_ROUTE_DECISIONS = 256

    def _route_order(self, c: int, batch: int) -> tuple[int, ...]:
        """Replica preference order for one chunk dispatch.

        Without a router this is the historical ``(c + j) % N`` order.
        With one, replicas are ranked by the predicted cost of this
        batch on each replica's substrate (capability-descriptor
        predictions — no device is touched), blended with each
        replica's observed service-time EWMA when the latency-outlier
        detector is running; the rest of the ranking stays as the
        failover order. Cached per ``(chunk, batch)`` because serving
        replays the same shapes constantly; the cache is invalidated
        when the replica set changes and whenever the health tracker's
        verdict version moves (an ejection or re-admission means the
        measured picture the cached ranking priced in is stale).
        """
        if self._router is None:
            return self.replicas[c]
        if self.health.version != self._health_version_seen:
            self._route_cache.clear()
            self._health_version_seen = self.health.version
        key = (c, batch)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        candidates = []
        for s in self.replicas[c]:
            shard = self.shards[s]
            n = shard.n_rows + (1 if shard.verify else 0)
            candidates.append((s, self.substrates[s], max(n, 1), self.dims))
        observed = None
        if self.health.detector is not None:
            observed = {
                s: ewma
                for s, _, _, _ in candidates
                if (ewma := self.health.detector.ewma(s)) is not None
            }
        decision = self._router.order(
            c, candidates, n_queries=batch, observed=observed
        )
        order = tuple(s for s, _, _ in decision.ranked)
        self._route_cache[key] = order
        self._route_decisions.append(decision)
        del self._route_decisions[: -self._MAX_ROUTE_DECISIONS]
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter(
                f"serving.routed.{decision.winner_substrate}"
            ).add(1)
        return order

    def routing_report(self) -> dict:
        """Routing activity: objective, decision log, substrate map."""
        return {
            "route": self.route,
            "enabled": self._router is not None,
            "objective": (
                self._router.objective if self._router is not None else None
            ),
            "substrates": list(self.substrates),
            "decisions": [d.to_dict() for d in self._route_decisions],
        }

    def _hedge_trigger_ns(self, s: int) -> float | None:
        """Straggler threshold for one wave on shard ``s`` (ns).

        With adaptive hedging it is ``HEDGE_P95_FACTOR x min(own p95,
        fleet median p95)``, floored at ``HEDGE_MIN_NS``, so the trigger
        tracks what *healthy* replicas actually deliver (a straggler's
        own inflated p95 never raises its own bar past the fleet's).
        None — no hedge — with adaptive hedging off or while the
        detector has too few samples for any p95.
        """
        if not self.recovery.adaptive_hedge:
            return None
        det = self.health.detector
        p95s = [
            p95
            for p95 in (det.observed_p95_ns(s), det.fleet_p95_ns())
            if p95 is not None
        ]
        if not p95s:
            return None
        return max(HEDGE_MIN_NS, HEDGE_P95_FACTOR * min(p95s))

    def _dispatch(
        self,
        q_int: np.ndarray,
        now_ns: float,
        process,
        timing: GatherTiming,
        span_name: str,
    ) -> list[int]:
        """Serve every chunk from exactly one replica, surviving faults.

        ``process(shard, sel, dots)`` does the host-side candidate work
        for the shard-local rows ``sel`` (``None`` = all rows) whose dot
        products are ``dots``, and returns the CPU time it cost; it runs
        once per *successful* wave. Each round groups the pending chunks
        by the replica they try (:meth:`_Ledger.pick`), fires one wave
        per shard, and books the outcome on the :class:`_Ledger`: crash
        detection and failover, hang and straggler timeouts, residue
        verification, bounded retries with capped exponential backoff
        and circuit breaking; straggling waves of the round are then
        raced against a hedge (:meth:`_hedge`). All timing is serialized
        per shard and recorded in ``timing``.

        Returns the chunks that could not be served by any replica (the
        caller recomputes them host-side), or raises
        :class:`~repro.errors.ChunkUnavailableError` when degradation is
        disabled, or :class:`~repro.errors.ShardHungError` for a hang
        with the watchdog disabled. An aborted dispatch releases every
        probe slot it claimed — an abandoned claim would otherwise wedge
        the probationary shard out of rotation forever (releasing a
        slot whose outcome was recorded is a no-op).
        """
        led = _Ledger(self, now_ns, timing)
        tele = led.tele
        batch = q_int.shape[0]
        timeout_ns = self.recovery.dispatch_timeout_ns
        try:
            while led.pending:
                groups: dict[int, list[int]] = {}
                probing: set[int] = set()
                for c in sorted(led.pending):
                    s = led.pick(c, batch, probing)
                    if s is None:
                        led.give_up(c)
                    else:
                        groups.setdefault(s, []).append(c)
                if not groups:
                    break
                # straggling waves of this round, hedged after the round
                stragglers = []
                for s in sorted(groups):
                    chunks = groups[s]
                    shard = self.shards[s]
                    if self._hedge_budget is not None:
                        # the budget earns a fraction of a hedge per wave
                        # attempt, so granted hedges stay <= budget x waves
                        self._hedge_budget.accrue()
                    start_rel = max(
                        led.clock[s], max(led.ready[c] for c in chunks)
                    )
                    t_start = now_ns + start_rel
                    verdict = shard.verdict(t_start)
                    timing.attempts += 1
                    outcome = _VERDICT_OUTCOMES.get(verdict.status)
                    if outcome == "hang_timeout" and timeout_ns is None:
                        raise ShardHungError(
                            f"{shard.name} hung and the dispatch "
                            "watchdog is disabled",
                            unit=shard.name,
                            timestamp_ns=t_start,
                            chunks=list(chunks),
                        )
                    if outcome is not None:
                        led.fail(s, chunks, start_rel, outcome)
                        continue
                    shard.advance_clock(t_start)
                    with tele.span(
                        span_name, "serving",
                        shard=s, rows=shard.n_rows, queries=batch,
                        substrate=shard.substrate,
                    ):
                        try:
                            dots, pim_ns, bad = shard.fire(q_int)
                        except CrossbarDeadError:
                            led.fail(s, chunks, start_rel, "crossbar_dead")
                            continue
                        # a flaky link that chose to delay (not drop)
                        # adds a flat stall on top of the device's wave
                        pim_ns += verdict.delay_ns
                        if (
                            self.fault_plan is not None
                            and timeout_ns is not None
                            and pim_ns > timeout_ns
                        ):
                            led.fail(s, chunks, start_rel, "timeout")
                            continue
                        if bad:
                            led.fail(
                                s, chunks, start_rel, "corrupt", pim_ns, bad
                            )
                            continue
                        slices = [shard.chunk_slices[c] for c in chunks]
                        served = sum(sl.stop - sl.start for sl in slices)
                        if served == shard.n_rows:
                            cpu_ns = process(shard, None, dots)
                        else:
                            sel = np.concatenate(
                                [
                                    np.arange(sl.start, sl.stop, dtype=np.int64)
                                    for sl in slices
                                ]
                            )
                            cpu_ns = process(shard, sel, dots[:, sel])
                        tele.advance(cpu_ns)
                    end_rel = led.book(s, start_rel, pim_ns, cpu_ns)
                    self.health.record_success(s, now_ns + end_rel)
                    self.health.record_service_time(
                        s, now_ns + end_rel, pim_ns + cpu_ns
                    )
                    led.pending.difference_update(chunks)
                    timing.wave_end_ns.append(end_rel)
                    timing.wave_components.append(
                        {
                            "shard": s,
                            "chunks": len(chunks),
                            "start_ns": start_rel,
                            "pim_ns": pim_ns,
                            "cpu_ns": cpu_ns,
                            "end_ns": end_rel,
                            "hedged": False,
                        }
                    )
                    trigger_ns = self._hedge_trigger_ns(s)
                    if trigger_ns is not None and pim_ns + cpu_ns > trigger_ns:
                        widx = len(timing.wave_end_ns) - 1
                        stragglers.append(
                            (widx, trigger_ns, chunks, verdict.delay_ns)
                        )
                # hedges resolve only after every primary wave of the
                # round is simulated: a hedge fires later in wall time
                # than the round's waves start, so its replica pick must
                # see their true busy times — evaluating inline would
                # serialize the hedge *ahead* of a replica's own wave
                for straggler in stragglers:
                    self._hedge(led, q_int, *straggler)
        except BaseException:
            for s in led.claimed:
                self.health.release_probe(s)
            raise
        return led.degraded

    def _hedge(
        self,
        led: _Ledger,
        q_int: np.ndarray,
        widx: int,
        trigger_ns: float,
        chunks: list[int],
        delay_ns: float,
    ) -> None:
        """Race straggling wave ``widx`` against a copy on an idle replica.

        ``delay_ns`` is the flaky-link stall inside the wave's ``pim_ns``.

        Values are identical either way; only the finish time improves.
        Cancel-on-first-win: whichever wave finishes first is the
        answer, and the loser is cut back to that instant
        (:meth:`_Ledger.cut`), so its shard is only charged for the time
        it actually ran. A global :class:`HedgeBudget`, when configured,
        caps how often hedges fire.

        Two known accounting gaps (DESIGN.md section 14.3): the budget
        token is spent before the alternate's verdict is known, and a
        hedge wave that fails its checksum is charged nowhere.
        """
        timing = led.timing
        prim = timing.wave_components[widx]
        s, start_rel = prim["shard"], prim["start_ns"]
        end_rel, cpu_ns = prim["end_ns"], prim["cpu_ns"]
        hedge_start = start_rel + trigger_ns
        t_hedge = led.now_ns + hedge_start
        health = self.health
        for s2, alt in enumerate(self.shards):
            if (
                s2 == s
                or not health.available(s2, t_hedge)
                # a hedge is a latency optimisation, not a probe: never
                # spend a probationary shard's single probe slot on one
                or health.probationary(s2, t_hedge)
                # nor duplicate onto a suspected-slow (ejected) replica
                or health.demoted(s2, t_hedge)
                or any(c not in alt.chunk_slices for c in chunks)
            ):
                continue
            budget = self._hedge_budget
            if budget is not None and not budget.try_take():
                timing.hedges_denied += 1
                return
            alt_start = max(led.clock[s2], hedge_start)
            alt.advance_clock(led.now_ns + alt_start)
            verdict = alt.verdict(led.now_ns + alt_start)
            if not verdict.ok:
                continue
            try:
                _, pim2, bad = alt.fire(q_int)
            except CrossbarDeadError:
                continue
            pim2 += verdict.delay_ns
            if bad:
                timing.corrupt_detected += 1
                continue
            timing.hedges += 1
            _recovery_marker(led.tele, "hedge", s2, len(chunks))
            alt_end = led.book(s2, alt_start, pim2, cpu_ns)
            if alt_end < end_rel:
                # hedge won: the original is cancelled at alt_end
                led.cut(s, alt_end, end_rel - alt_end, cpu_ns, delay_ns)
                timing.hedges_won += 1
                health.record_service_time(
                    s2, led.now_ns + alt_end, pim2 + cpu_ns
                )
                timing.wave_end_ns[widx] = alt_end
                timing.wave_components[widx] = {
                    **prim, "shard": s2, "start_ns": alt_start,
                    "pim_ns": pim2, "end_ns": alt_end, "hedged": True,
                }
            else:
                # hedge lost: cancelled where the original finished
                cut_end = min(alt_end, max(end_rel, alt_start))
                ran = max(0.0, cut_end - alt_start)
                led.cut(
                    s2, cut_end, (pim2 + cpu_ns) - ran, cpu_ns,
                    verdict.delay_ns,
                )
                timing.hedges_lost += 1
            return

    # ------------------------------------------------------------------
    # kernel hooks: each calls into repro.kernels, and
    # repro.oracle.LoopShardManager overrides each with a plain loop
    # ------------------------------------------------------------------
    def _knn_bounds(
        self, phi: np.ndarray, phi_q: np.ndarray, dots: np.ndarray
    ) -> np.ndarray:
        """Clamped lower bounds of every query on one shard, ``(B, n)``."""
        return knn_bounds(phi, phi_q, dots, self.dims, self.quantizer.alpha)

    def _refine_scan(
        self,
        shard: _Shard,
        sel: np.ndarray | None,
        gidx: np.ndarray,
        lb: np.ndarray,
        q_norm: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One query's canonical top-``k`` on ``shard``: ``(scores,
        gidx, refined)``, ``refined`` being the number of rows scored."""
        floats = shard.floats

        def score(at: np.ndarray) -> np.ndarray:
            return exact_sq_distances(
                floats, q_norm, at if sel is None else sel[at]
            )

        return refine_topk(score, lb, gidx, k)[:3]

    def _degraded_scores(
        self, floats: np.ndarray, q_norm: np.ndarray
    ) -> np.ndarray:
        """Exact scores of every row of an unavailable chunk."""
        return exact_sq_distances(floats, q_norm)

    def _assign_rows(
        self,
        shard: _Shard,
        sel: np.ndarray | None,
        dots: np.ndarray,
        c_norm: np.ndarray,
        phi_c: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Nearest center of the shard rows ``sel`` (``None`` = all
        rows): ``(centers, dists, refined)``."""
        return assign_sweep(
            shard.phi, shard.floats, dots, c_norm, phi_c,
            self.dims, self.quantizer.alpha, sel,
            shard.controller.pim.config.accumulator_bits,
        )

    def _degraded_assign(
        self, floats: np.ndarray, c_norm: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Host-side nearest center of every row of an unavailable chunk."""
        return nearest_centers(floats, c_norm)

    def knn_batch(
        self,
        queries: np.ndarray,
        ks,
        approximate=None,
        *,
        now_ns: float | None = None,
    ) -> tuple[list[KNNAnswer], GatherTiming]:
        """Exact (or per-query degraded) kNN for a batch of queries.

        ``ks`` is an int or a per-query sequence; ``approximate``
        likewise a bool or per-query flags. All queries ride one batched
        wave per shard, so the batch amortizes pipeline setup exactly as
        the mining layer's :class:`~repro.core.planner.BatchScheduler`
        flushes do. ``now_ns`` anchors the dispatch on the simulated
        clock (fault windows are time-based); it defaults to this
        manager's own monotone clock.
        """
        q_int, q_norm, phi_q = self._prepare_queries(queries)
        batch = q_int.shape[0]
        k_list = (
            [int(ks)] * batch if np.isscalar(ks) else [int(k) for k in ks]
        )
        if len(k_list) != batch:
            raise ServingError("ks must match the query batch")
        if any(k < 1 for k in k_list):
            raise ServingError("k must be >= 1")
        approx_list = (
            [bool(approximate)] * batch
            if approximate is None or isinstance(approximate, bool)
            else [bool(a) for a in approximate]
        )
        if len(approx_list) != batch:
            raise ServingError("approximate flags must match the batch")
        timing = GatherTiming()
        tele = get_recorder()
        t0 = self._clock_ns if now_ns is None else float(now_ns)
        # a top-k list never holds more than the dataset
        top_k = [min(k, self.n_rows) for k in k_list]
        # per query: every shard's (and degraded chunk's) top-k lists
        part_scores: list[list[np.ndarray]] = [[] for _ in range(batch)]
        part_gidx: list[list[np.ndarray]] = [[] for _ in range(batch)]
        refined_total = [0] * batch
        pruned_total = [0] * batch

        def process(shard: _Shard, sel, dots) -> float:
            """Local top-k of every query over the shard rows ``sel``."""
            gidx = shard.global_indices
            phi = shard.phi
            if sel is not None:
                gidx, phi = gidx[sel], phi[sel]
            lb_all = self._knn_bounds(phi, phi_q, dots)
            refined_here = 0
            for b in range(batch):
                if approx_list[b]:
                    # degrade-to-approximate: the lower bound IS the score
                    scores, top = canonical_topk(lb_all[b], gidx, top_k[b])
                    refined = 0
                    pruned = gidx.size - top.size
                else:
                    scores, top, refined = self._refine_scan(
                        shard, sel, gidx, lb_all[b], q_norm[b], top_k[b]
                    )
                    pruned = gidx.size - refined
                part_scores[b].append(scores)
                part_gidx[b].append(top)
                refined_total[b] += refined
                pruned_total[b] += pruned
                refined_here += refined
            return self._shard_cpu_ns(gidx.size, batch, refined_here)

        degraded_chunks = self._dispatch(
            q_int, t0, process, timing, "serving.scatter"
        )
        for c in degraded_chunks:
            # no PIM bounds: score every row of the chunk exactly, then
            # keep the same canonical top-k as the refine path
            host = self.shards[self.replicas[c][0]]
            sl = host.chunk_slices[c]
            gidx = host.global_indices[sl]
            if gidx.size == 0:
                continue
            for b in range(batch):
                scores = self._degraded_scores(host.floats[sl], q_norm[b])
                scores, top = canonical_topk(scores, gidx, top_k[b])
                part_scores[b].append(scores)
                part_gidx[b].append(top)
                refined_total[b] += gidx.size
            timing.degraded_cpu_ns += self._degraded_cpu_ns(gidx.size, batch)
        answers: list[KNNAnswer] = []
        merge_candidates = 0
        degraded = bool(degraded_chunks)
        for b in range(batch):
            scores, top = merge_topk(part_scores[b], part_gidx[b], k_list[b])
            merge_candidates += sum(p.size for p in part_gidx[b])
            answers.append(
                KNNAnswer(
                    indices=top,
                    scores=scores,
                    refined=refined_total[b],
                    pruned=pruned_total[b],
                    approximate=approx_list[b],
                    degraded=degraded,
                )
            )
        with tele.span(
            "serving.gather", "serving",
            queries=batch, candidates=merge_candidates,
        ):
            timing.merge_cpu_ns = self._merge_cpu_ns(merge_candidates)
            tele.advance(timing.merge_cpu_ns)
        if tele.enabled:
            tele.metrics.counter("serving.queries").add(batch)
            tele.metrics.counter("serving.refined").add(sum(refined_total))
            tele.metrics.counter("serving.pruned").add(sum(pruned_total))
            if timing.degraded_chunks:
                tele.metrics.counter("serving.degraded_chunks").add(
                    timing.degraded_chunks
                )
        self._clock_ns = max(self._clock_ns, t0 + timing.service_ns)
        return answers, timing

    def knn(self, query: np.ndarray, k: int) -> KNNAnswer:
        """Exact kNN of a single query (see :meth:`knn_batch`)."""
        answers, _ = self.knn_batch(np.atleast_2d(query), k)
        return answers[0]

    # ------------------------------------------------------------------
    # k-means assist
    # ------------------------------------------------------------------
    def assign(
        self, centers: np.ndarray, *, now_ns: float | None = None
    ) -> tuple[AssignAnswer, GatherTiming]:
        """Nearest center of every dataset row (k-means assist).

        Exact, with the canonical lowest-center-index tie-break: centers
        are considered in index order and only a strictly smaller
        distance replaces the incumbent. A chunk no replica could serve
        is recomputed host-side with the same expression and tie-break,
        so assignments stay bit-identical.
        """
        c_int, c_norm, phi_c = self._prepare_queries(centers)
        n_centers = c_int.shape[0]
        assignments = np.empty(self.n_rows, dtype=np.int64)
        distances = np.empty(self.n_rows, dtype=np.float64)
        timing = GatherTiming()
        tele = get_recorder()
        t0 = self._clock_ns if now_ns is None else float(now_ns)
        stats = {"refined": 0, "visited": 0}

        def process(shard: _Shard, sel, dots) -> float:
            """Nearest centers of the shard rows ``sel`` (``None`` =
            all rows), written straight into the global answer."""
            gi = shard.global_indices
            if sel is not None:
                gi = gi[sel]
            n_here = int(gi.size)
            refined = 0
            if n_here:
                best_c, best_d, refined = self._assign_rows(
                    shard, sel, dots, c_norm, phi_c
                )
                assignments[gi] = best_c
                distances[gi] = best_d
            stats["refined"] += refined
            stats["visited"] += n_here * n_centers
            return self._shard_cpu_ns(n_here, n_centers, refined)

        degraded_chunks = self._dispatch(
            c_int, t0, process, timing, "serving.assist"
        )
        for c in degraded_chunks:
            rows = self.chunk_rows[c]
            if rows.size == 0:
                continue
            host = self.shards[self.replicas[c][0]]
            sl = host.chunk_slices[c]
            gidx = host.global_indices[sl]
            best_c, best_d = self._degraded_assign(host.floats[sl], c_norm)
            assignments[gidx] = best_c
            distances[gidx] = best_d
            stats["refined"] += int(gidx.size) * n_centers
            stats["visited"] += int(gidx.size) * n_centers
            timing.degraded_cpu_ns += self._degraded_cpu_ns(
                int(rows.size), n_centers
            )
        if tele.enabled:
            tele.metrics.counter("serving.assist_rows").add(self.n_rows)
            if timing.degraded_chunks:
                tele.metrics.counter("serving.degraded_chunks").add(
                    timing.degraded_chunks
                )
        self._clock_ns = max(self._clock_ns, t0 + timing.service_ns)
        return (
            AssignAnswer(
                assignments=assignments,
                distances=distances,
                refined=stats["refined"],
                pruned=stats["visited"] - stats["refined"],
                degraded=bool(degraded_chunks),
            ),
            timing,
        )

    # ------------------------------------------------------------------
    # live re-replication (repair layer)
    # ------------------------------------------------------------------
    def chunk_bytes(self, chunk: int) -> int:
        """Payload bytes one replica of ``chunk`` carries (all side data)."""
        host = self.shards[self.replicas[chunk][0]]
        sl = host.chunk_slices[chunk]
        rows = sl.stop - sl.start
        per_row = (
            host.global_indices.itemsize
            + host.integers.shape[1] * host.integers.itemsize
            + host.phi.itemsize
            + host.floats.shape[1] * host.floats.itemsize
        )
        return int(rows * per_row)

    def add_replica(
        self, chunk: int, target_shard: int | None = None
    ) -> dict:
        """Copy ``chunk`` onto ``target_shard`` (live re-replication).

        The chunk's rows are copied from any surviving replica (the
        host-side arrays are always readable — it is the PIM matrix that
        dies, not the coordinator's copy of the data) and appended to the
        target, whose matrix is then reset and reprogrammed in full,
        checksum row included. Because the quantizer is global and ties
        resolve canonically, the new replica is bit-identical to serve
        from — the hypothesis suite asserts the copied bytes equal their
        source.

        With ``target_shard=None`` the target is chosen by
        :meth:`select_replica_target`, which prefers a shard restoring
        full failure-domain spread. A target (chosen or explicit) that
        still shares a domain with a live replica is accepted — a
        co-domain copy beats no copy — but the pairing is recorded in
        ``placement_violations`` and counted in telemetry.

        Returns a repair record: source/target shards, rows and bytes
        copied, and the reprogramming time the caller must charge
        against the repair-bandwidth budget.
        """
        if not 0 <= chunk < self.n_chunks:
            raise ServingError(f"no chunk {chunk}")
        if target_shard is None:
            target_shard = self.select_replica_target(chunk)
            if target_shard is None:
                raise CapacityError(
                    f"no alive shard can host a replica of chunk {chunk}"
                )
        if self.topology is not None:
            self._note_co_domain(
                "re-replication", chunk, target_shard,
                [t for t in self.live_replicas(chunk) if t != target_shard],
            )
        target = self.shards[target_shard]
        if chunk in target.chunk_slices:
            raise ServingError(
                f"shard {target_shard} already hosts chunk {chunk}"
            )
        source = None
        for s in self.replicas[chunk]:
            if chunk in self.shards[s].chunk_slices:
                source = self.shards[s]
                break
        if source is None:
            raise ChunkUnavailableError(
                f"chunk {chunk} has no surviving copy to re-replicate",
                unit=f"chunk{chunk}",
                timestamp_ns=self._clock_ns,
                replicas=list(self.replicas[chunk]),
            )
        sl = source.chunk_slices[chunk]
        new_rows = int(sl.stop - sl.start)
        if not target.can_host(new_rows, self.verify):
            # refuse up front: appending rows and then failing to
            # reprogram would destroy the replicas the target already
            # hosts, turning a repair into an outage
            raise CapacityError(
                f"shard {target_shard} cannot host chunk {chunk}: "
                f"{target.n_rows} + {new_rows} rows exceed its array "
                "(spare reservation included)"
            )
        old_n = target.n_rows
        target.global_indices = np.concatenate(
            [target.global_indices, source.global_indices[sl]]
        )
        target.integers = np.concatenate([target.integers, source.integers[sl]])
        target.phi = np.concatenate([target.phi, source.phi[sl]])
        target.floats = np.concatenate([target.floats, source.floats[sl]])
        target.chunk_slices[chunk] = slice(old_n, old_n + new_rows)
        try:
            program_ns = target.reprogram(self.verify)
        except ReproError:
            # belt and braces behind the capacity pre-check: a failed
            # reprogram must leave the target serving what it served
            # before, so undo the append and restore the old matrix
            del target.chunk_slices[chunk]
            target.global_indices = target.global_indices[:old_n]
            target.integers = target.integers[:old_n]
            target.phi = target.phi[:old_n]
            target.floats = target.floats[:old_n]
            if old_n:
                target.reprogram(self.verify)
            raise
        self.replicas[chunk] = tuple(
            list(self.replicas[chunk]) + [target_shard]
        )
        self.replica_log.append((int(chunk), int(target_shard)))
        # replica sets and the target's row count changed; routed
        # orders priced against the old shapes are stale
        self._route_cache.clear()
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("serving.rereplications").add(1)
        return {
            "chunk": chunk,
            "source": source.shard_id,
            "target": target_shard,
            "rows": new_rows,
            "bytes": self.chunk_bytes(chunk),
            "program_ns": float(program_ns),
        }

    def wear_reports(self, top: int | None = 3) -> list[dict]:
        """Per-shard endurance wear reports (empty shards report zeros)."""
        out = []
        for shard in self.shards:
            tracker = shard.endurance
            if tracker is None:
                out.append({"shard": shard.shard_id, "units_tracked": 0})
                continue
            report = tracker.wear_report(top=top)
            report["shard"] = shard.shard_id
            out.append(report)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def shard_sizes(self) -> list[int]:
        """Rows per shard, by shard id."""
        return [shard.n_rows for shard in self.shards]

    def shard_busy_ns(self) -> list[float]:
        """Cumulative simulated busy time per shard."""
        return [shard.busy_ns for shard in self.shards]

    def reset_busy(self) -> None:
        """Zero the per-shard busy accounting (e.g. after a probe)."""
        for shard in self.shards:
            shard.busy_ns = 0.0

    def merged_stats(self) -> PIMStats:
        """Aggregate array stats over every shard, namespaced per shard.

        Device time spent on waves that a decided hedge race cancelled
        is subtracted from the merged ``pim_time_ns`` (and reported
        under ``extra["hedge_cancelled_pim_ns"]``, the device part of
        :attr:`GatherTiming.hedge_cancelled_ns`) so a hedged
        deployment's total device time reflects work that produced
        answers — the per-shard namespaced stats keep the raw
        uncancelled numbers.
        """
        merged = PIMStats.merge(
            [shard.pim_stats for shard in self.shards],
            prefixes=[f"shard{s}." for s in range(self.n_shards)],
        )
        cancelled = sum(shard.cancelled_pim_ns for shard in self.shards)
        if cancelled > 0.0:
            merged.pim_time_ns = max(0.0, merged.pim_time_ns - cancelled)
            merged.add_extra("hedge_cancelled_pim_ns", cancelled)
        return merged

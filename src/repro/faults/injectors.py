"""Fault injectors for the hardware simulators.

Three injection points, all driven by one :class:`~repro.faults.plan.FaultPlan`:

* :class:`FaultyCrossbar` — a :class:`~repro.hardware.crossbar.Crossbar`
  with physically stuck cells (the standalone single-crossbar model);
* :class:`FaultyPIMArray` — the fault hook of one device (any
  :class:`~repro.hardware.pim_array.Substrate`, including a
  :class:`~repro.hardware.noise.NoisyPIMArray` — faults compose with
  analog noise). The device consults it on every wave: a dead device
  raises, stuck-cell regions and transient corruption act on the
  values, and every slowdown — latency spikes, bank-group stragglers
  and the shard-level ``slow_shard`` / ``intermittent_slow`` of its
  target — stretches the wave the device books;
* :class:`FaultyShardEngine` — a per-shard oracle the serving layer asks
  before each dispatch, returning a :class:`ShardVerdict`
  (ok / crash / hang / drop, plus any link delay).

Every injector keeps its own *fault clock* on the simulated timeline;
hosts that know the dispatch time call :meth:`FaultyPIMArray.advance_to`,
standalone users let the clock auto-advance by each wave's latency.
All injections are seeded from the plan (reruns are byte-identical) and
emitted to telemetry as ``fault.*`` spans and ``faults.injected.*``
counters so every injected fault is visible in traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import CrossbarDeadError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware import bitslice
from repro.hardware.config import HBMPIMConfig
from repro.hardware.crossbar import Crossbar
from repro.telemetry import get_recorder

#: Default additive corruption of a ``wave_corrupt`` fault. Chosen prime
#: and not divisible by any power of two, so the induced residue error is
#: never 0 mod 2**operand_bits — the checksum column detects it with
#: certainty (see :mod:`repro.faults.integrity`).
DEFAULT_CORRUPT_MAGNITUDE = 1_000_003


class FaultyCrossbar(Crossbar):
    """A crossbar with a fixed, seeded population of stuck cells.

    Models manufacture-time stuck-at defects at the physical bit-slice
    level: a seeded fraction of the cell grid is pinned to 0 (stuck-at-0)
    or to the cell's full-scale value (stuck-at-1). The defect map is a
    property of the device, so it survives re-programming — every
    :meth:`program` call re-applies it via the ``_apply_cell_faults``
    hook.
    """

    def __init__(
        self,
        config=None,
        crossbar_id: int = 0,
        endurance_tracker=None,
        *,
        stuck_fraction: float = 0.0,
        stuck_to: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__(config, crossbar_id, endurance_tracker)
        if not 0.0 <= stuck_fraction <= 1.0:
            raise ValueError("stuck_fraction must be in [0, 1]")
        if stuck_to not in (0, 1):
            raise ValueError("stuck_to must be 0 or 1")
        rng = np.random.default_rng((seed << 16) ^ crossbar_id)
        self._stuck_mask = rng.random(self._cells.shape) < stuck_fraction
        self._stuck_value = np.uint8(
            0 if stuck_to == 0 else (1 << self.config.cell_bits) - 1
        )

    @property
    def stuck_cells(self) -> int:
        """Number of defective cells on this crossbar."""
        return int(self._stuck_mask.sum())

    def _apply_cell_faults(self) -> None:
        self._cells[self._stuck_mask] = self._stuck_value


class FaultyPIMArray:
    """Array-level fault injection as a hook of the device it faults.

    Attaches itself to ``device`` (any
    :class:`~repro.hardware.pim_array.Substrate`: crossbar, HBM-PIM or
    :class:`~repro.hardware.noise.NoisyPIMArray`), which then consults
    it on every wave of every dispatch style:

    * :meth:`before_wave` — a dead device raises
      :class:`~repro.errors.CrossbarDeadError` before anything runs;
    * :meth:`after_wave` — stuck cells and corruption act on the values
      the kernel (noise included) produced, and every slowdown active
      on the target (latency spikes, bank-group stragglers, slow and
      intermittently slow shards) stretches the wave's timing before
      the device books it, so stats, spans and the returned timing
      carry one number;
    * :meth:`booked` — the fault clock advances by the simulated ns
      the device booked for the dispatch (every wave of a train).

    Parameters
    ----------
    device:
        The device to fault; its ``_faults`` hook is set to this
        injector (one injector per device).
    plan:
        The fault schedule.
    target:
        This device's victim label in the plan (serving uses
        ``"shard<i>"``; standalone arrays conventionally ``"array"``).
    auto_advance:
        Advance the fault clock by the latency the device books for
        each dispatch. Hosts that track simulated time themselves (the
        serving layer) disable this and call :meth:`advance_to` before
        dispatching.
    """

    def __init__(
        self,
        device,
        plan: FaultPlan,
        target: str = "array",
        *,
        auto_advance: bool = True,
    ) -> None:
        self._device = device
        self.plan = plan
        self.target = target
        self.auto_advance = auto_advance
        self.now_ns = 0.0
        self.injected: dict[str, int] = {}
        self._event_rngs: dict[int, np.random.Generator] = {}
        self._stuck_cache: dict[tuple[str, int], tuple] = {}
        self._bankgroup_cache: dict[int, frozenset] = {}
        self._repaired: set[int] = set()
        device._faults = self

    def advance_to(self, t_ns: float) -> None:
        """Move the fault clock forward to simulated time ``t_ns``."""
        self.now_ns = max(self.now_ns, float(t_ns))

    # ------------------------------------------------------------------
    # repair API (consumed by repro.repair)
    # ------------------------------------------------------------------
    #: Persistent device faults a spare-crossbar remap can clear. The
    #: transient kinds (wave_corrupt, latency_spike) expire on their own
    #: and have no physical substrate to swap out.
    REPAIRABLE_KINDS = ("stuck_cells", "crossbar_dead")

    def _active(
        self, kind: str, t_ns: float | None = None
    ) -> list[FaultEvent]:
        """Unrepaired events of ``kind`` active at ``t_ns`` (default: now)."""
        t = self.now_ns if t_ns is None else t_ns
        return [
            e
            for e in self.plan.active(self.target, kind, t)
            if id(e) not in self._repaired
        ]

    def repairable_events(self, now_ns: float | None = None) -> list[FaultEvent]:
        """Unrepaired persistent device faults active at ``now_ns``.

        The scrubber calls this after a failed probe to learn *what* to
        remap; ``now_ns`` defaults to the injector's fault clock.
        """
        t = self.now_ns if now_ns is None else float(now_ns)
        return [
            e for kind in self.REPAIRABLE_KINDS for e in self._active(kind, t)
        ]

    def mark_repaired(self, event: FaultEvent) -> None:
        """Suppress ``event`` permanently: its physical substrate was
        remapped onto a spare, so the defect no longer touches waves."""
        self._repaired.add(id(event))
        self._stuck_cache = {
            key: cached
            for key, cached in self._stuck_cache.items()
            if key[1] != id(event)
        }
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("faults.repaired").add(1)

    def affected_vectors(self, name: str, event: FaultEvent) -> np.ndarray:
        """Global-in-matrix vector indices a stuck-cells event corrupts.

        The repair layer maps these onto data-crossbar indices to decide
        which physical crossbars to remap. ``crossbar_dead`` events have
        no vector footprint (the whole array refuses service).
        """
        if event.kind != "stuck_cells":
            return np.array([], dtype=np.int64)
        affected, _rows = self._stuck_rows(name, event)
        return np.asarray(affected, dtype=np.int64)

    # ------------------------------------------------------------------
    # the device's hook points
    # ------------------------------------------------------------------
    def before_wave(self) -> None:
        """Refuse the wave if a ``crossbar_dead`` fault is active."""
        dead = self._active("crossbar_dead")
        if dead:
            self._note("crossbar_dead")
            raise CrossbarDeadError(
                f"{self.target} is dead (crossbar failure at "
                f"t={dead[0].t_ns:.0f}ns)",
                unit=self.target,
                timestamp_ns=self.now_ns,
                fault_t_ns=dead[0].t_ns,
            )

    def after_wave(self, name: str, queries: np.ndarray, values, timing):
        """Faulted ``(values, timing)`` of a wave of ``queries`` on ``name``.

        ``values`` is ``(B, n_vectors)``; the timing keeps its clean
        components and carries the straggler factor as ``stretch``.
        """
        values = self._apply_stuck(name, queries, values)
        values = self._apply_corruption(values)
        factor = self._latency_factor(name)
        if factor != 1.0:
            timing = replace(timing, stretch=factor)
        return values, timing

    def booked(self, pim_ns: float) -> None:
        """The device booked ``pim_ns`` for a dispatch: advance the clock."""
        if self.auto_advance:
            self.now_ns += pim_ns

    # ------------------------------------------------------------------
    def _rng_for_event(self, event: FaultEvent) -> np.random.Generator:
        """Persistent per-event RNG stream (draws stay aligned per wave)."""
        key = id(event)
        rng = self._event_rngs.get(key)
        if rng is None:
            rng = self.plan.rng_for(
                self.target, f"{event.kind}@{event.t_ns}"
            )
            self._event_rngs[key] = rng
        return rng

    def _note(self, kind: str, **attrs) -> None:
        """Count an injection and surface it in telemetry."""
        self.injected[kind] = self.injected.get(kind, 0) + 1
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter(f"faults.injected.{kind}").add(1)
            with tele.span(
                f"fault.{kind}", "fault_injection",
                target=self.target, **attrs,
            ):
                pass  # zero-duration marker on the trace timeline

    def _stuck_rows(self, name: str, event: FaultEvent):
        """Corrupted replacement rows for a stuck-cells event.

        The defect positions are seeded once per (matrix, event) and the
        affected rows' stuck copies cached, so only those vectors' dot
        products are ever recomputed.
        """
        key = (name, id(event))
        cached = self._stuck_cache.get(key)
        if cached is not None:
            return cached
        matrix = self._device.matrix_of(name)
        n_vectors, dims = matrix.shape
        fraction = float(event.params.get("fraction", 0.01))
        stuck_to = int(event.params.get("stuck_to", 0))
        stuck_value = (
            0 if stuck_to == 0 else (1 << self._device.config.operand_bits) - 1
        )
        count = max(1, int(round(fraction * n_vectors * dims)))
        rng = self.plan.rng_for(
            self.target, f"stuck@{event.t_ns}:{name}"
        )
        vec_idx = rng.integers(0, n_vectors, size=count)
        dim_idx = rng.integers(0, dims, size=count)
        affected = np.unique(vec_idx)
        local = {int(v): i for i, v in enumerate(affected)}
        rows = matrix[affected].copy()
        rows[[local[int(v)] for v in vec_idx], dim_idx] = stuck_value
        self._stuck_cache[key] = (affected, rows)
        return affected, rows

    def _apply_stuck(
        self, name: str, queries: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        events = [
            e
            for e in self._active("stuck_cells")
            if e.params.get("matrix") in (None, name)
        ]
        if not events:
            return values
        values = values.copy()
        bits = self._device.config.accumulator_bits
        for event in events:
            affected, rows = self._stuck_rows(name, event)
            dots = queries.astype(np.int64) @ rows.T
            dots = bitslice.truncate_result(dots, bits)
            values[..., affected] = dots
            self._note("stuck_cells", matrix=name, vectors=len(affected))
        return values

    def _apply_corruption(self, values: np.ndarray) -> np.ndarray:
        events = self._active("wave_corrupt")
        if not events:
            return values
        out = values.copy()
        hit = False
        for event in events:
            rng = self._rng_for_event(event)
            probability = float(event.params.get("probability", 1.0))
            magnitude = int(
                event.params.get("magnitude", DEFAULT_CORRUPT_MAGNITUDE)
            )
            for row in out:
                if rng.random() < probability:
                    col = int(rng.integers(0, row.shape[0]))
                    row[col] += magnitude
                    hit = True
                    self._note("wave_corrupt", column=col)
        return out if hit else values

    def _straggling_groups(self, event: FaultEvent, n_groups: int) -> frozenset:
        """The seeded set of bank groups one straggler event slows."""
        key = id(event)
        cached = self._bankgroup_cache.get(key)
        if cached is None:
            count = max(1, min(int(event.params.get("groups", 1)), n_groups))
            rng = self.plan.rng_for(self.target, f"bankgroup@{event.t_ns}")
            cached = frozenset(
                int(g) for g in rng.permutation(n_groups)[:count]
            )
            self._bankgroup_cache[key] = cached
        return cached

    def _bankgroup_factor(self, name: str) -> float:
        """Wave stretch from correlated bank-group stragglers.

        Banked substrates run waves in all-bank lockstep, so the wave is
        bounded by its slowest bank: the factor applies whenever any of
        the matrix's physical banks falls in a straggling group. Devices
        without a bank hierarchy (crossbars) have no group structure to
        dodge into, so the whole array stretches.
        """
        events = self._active("bankgroup_straggler")
        if not events:
            return 1.0
        config = self._device.config
        groups = None
        if isinstance(config, HBMPIMConfig):
            per_group = config.banks_per_bankgroup
            n_groups = config.total_banks // per_group
            groups = {
                int(b) // per_group for b in self._device.unit_ids_of(name)
            }
        factor = 1.0
        for event in events:
            if groups is None or groups & self._straggling_groups(
                event, n_groups
            ):
                event_factor = float(event.params.get("factor", 4.0))
                factor *= event_factor
                self._note(
                    "bankgroup_straggler", matrix=name, factor=event_factor
                )
        return factor

    def _slow_factor(self) -> float:
        """Product of the shard-level slowdowns active on the target.

        A sustained ``slow_shard`` always counts; an
        ``intermittent_slow`` window only in the slow part of its
        period (phase-locked to the event start).
        """
        factor = 1.0
        for event in self._active("slow_shard"):
            factor *= float(event.params.get("factor", 10.0))
        for event in self._active("intermittent_slow"):
            period = float(event.params.get("period_ns", 1_000_000.0))
            duty = float(event.params.get("duty", 0.5))
            if period <= 0:
                continue
            if (self.now_ns - event.t_ns) % period < duty * period:
                factor *= float(event.params.get("factor", 10.0))
        return factor

    def _latency_factor(self, name: str) -> float:
        """Product of every slowdown active on the wave: latency spikes,
        bank-group stragglers and shard-level slowdowns."""
        factor = 1.0
        events = self._active("latency_spike")
        if events:
            for event in events:
                factor *= float(event.params.get("factor", 10.0))
            self._note("latency_spike", factor=factor)
        return factor * self._bankgroup_factor(name) * self._slow_factor()


@dataclass(frozen=True)
class ShardVerdict:
    """What the fault plan says about one shard at one instant.

    ``status`` is ``"ok"``, ``"crash"``, ``"hang"`` or ``"drop"`` (the
    host<->shard link ate the dispatch — fail fast, transient);
    ``delay_ns`` is additive link delay on a wave that runs (it is not
    device time, so the device never books it); ``event`` is the
    triggering fault, if any. Slowdowns are no verdict: the shard's
    device stretches its own waves (:class:`FaultyPIMArray`).
    """

    status: str
    delay_ns: float = 0.0
    event: FaultEvent | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class FaultyShardEngine:
    """Per-shard fault oracle the serving layer consults each dispatch.

    Crash dominates hang dominates link drop: a crashed shard fails
    fast regardless of other active faults, a hung one never answers
    (the serving watchdog's problem), and a dropped dispatch fails fast
    but transiently. Otherwise the wave runs, late by any
    ``link_flaky`` delay. Link draws are stateless
    (:meth:`FaultPlan.hash_unit`), so the verdict at an instant is a
    pure function of the plan — independent of call order.
    """

    def __init__(self, plan: FaultPlan, target: str) -> None:
        self.plan = plan
        self.target = target

    def outcome(self, now_ns: float) -> ShardVerdict:
        """The shard's verdict at simulated time ``now_ns``."""
        crashes = self.plan.active(self.target, "shard_crash", now_ns)
        if crashes:
            return ShardVerdict(status="crash", event=crashes[0])
        hangs = self.plan.active(self.target, "shard_hang", now_ns)
        if hangs:
            return ShardVerdict(status="hang", event=hangs[0])
        delay = 0.0
        delayed_by: FaultEvent | None = None
        for event in self.plan.active(self.target, "link_flaky", now_ns):
            drop_p = float(event.params.get("drop_probability", 0.0))
            delay_p = float(event.params.get("delay_probability", 0.0))
            u = self.plan.hash_unit(
                self.target, f"link@{event.t_ns}", now_ns
            )
            if u < drop_p:
                return ShardVerdict(status="drop", event=event)
            if u < drop_p + delay_p:
                delay += float(event.params.get("delay_ns", 100_000.0))
                delayed_by = event
        return ShardVerdict(status="ok", delay_ns=delay, event=delayed_by)

    def crash_time(self) -> float | None:
        """Earliest scheduled crash of this shard (None if never)."""
        crashes = self.plan.events_for(self.target, "shard_crash")
        return crashes[0].t_ns if crashes else None

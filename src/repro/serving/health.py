"""Per-shard health tracking: circuit breaker, MTTR, recovery policy.

:class:`RecoveryPolicy` holds the eight recovery settings a deployment
tunes: the per-attempt watchdog, the circuit breaker, repair
quarantine, degraded fallback, outlier ejection, adaptive hedging and
the hedge budget. The fixed parts of recovery are module constants:
bounded retries with capped exponential backoff (:func:`backoff_ns`),
the crash-detection wait, the gray-failure detector's tuning and the
adaptive hedge trigger's shape.

:class:`ShardHealthTracker` is the circuit breaker: it watches per-shard
successes and failures on the simulated clock, opens a shard's circuit
after ``breaker_threshold`` consecutive failures (dispatch planning then
routes around it for ``breaker_reset_ns``, after which one half-open
probe is allowed through), marks crashed shards permanently dead, and
records down-to-up durations as MTTR samples the
:class:`~repro.serving.slo.SLOTracker` consumes.

The *gray*-failure half (``outlier_ejection=True``) is distinct from
the breaker: the breaker trips on hard failures, while the
:class:`LatencyOutlierDetector` watches *successful* wave service times
per (shard, substrate), maintains an EWMA + sliding quantile sketch,
and turns sustained deviation from the peer baseline into a
phi-accrual-style suspicion score. A suspected-slow shard is *ejected*
— demoted in dispatch preference, not blocked — then periodically
probed through the same half-open probe tokens the breaker uses, and
re-admitted only after a consecutive streak of clean probes whose
required length doubles every time a probe comes back slow (hysteresis
against flap-admitting an intermittently slow shard).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from repro.errors import ServingError
from repro.telemetry import get_recorder

#: Failed attempts tolerated per chunk per dispatch beyond the first
#: try; an exhausted chunk falls back to degraded recompute.
MAX_RETRIES = 3
#: Capped exponential backoff between a chunk's attempts (see
#: :func:`backoff_ns`): 50 us doubling up to 1 ms.
BACKOFF_BASE_NS = 50_000.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_NS = 1_000_000.0
#: Simulated time to notice a fail-fast crash or a dropped dispatch
#: (connection-refused analogue) before failing over.
CRASH_DETECT_NS = 10_000.0

#: Phi-accrual-style suspicion (roughly ``-log10`` of the probability
#: that a shard's recent service times come from the peer distribution)
#: at which a shard is ejected: 2.0 ~ "less than 1% likely healthy".
SUSPICION_THRESHOLD = 2.0
#: Detector EWMA smoothing factor, sliding quantile-sketch width, and
#: the sample floor before it may eject (or feed the hedge trigger).
DETECTOR_ALPHA = 0.2
DETECTOR_WINDOW = 64
DETECTOR_MIN_SAMPLES = 8
#: Magnitude gate: a sample accrues suspicion only above this multiple
#: of the peer baseline mean (see :class:`LatencyOutlierDetector`).
DETECTOR_MIN_RATIO = 1.5
#: Clean probes in a row an ejected shard must serve to re-admit, how
#: often a probe dispatch is routed through it, and the cap on the
#: escalated streak (every slow probe doubles the requirement).
EJECTION_PROBES = 3
EJECTION_PROBE_PERIOD_NS = 500_000.0
EJECTION_MAX_PROBES = 24
#: A probe counts clean at most this multiple of the peer baseline.
READMIT_SLACK = 1.5
#: Adaptive hedge trigger: this multiple of the observed p95, floored.
HEDGE_P95_FACTOR = 2.0
HEDGE_MIN_NS = 1_000.0


def backoff_ns(failures: int) -> float:
    """Backoff before retry number ``failures`` (1-based)."""
    if failures < 1:
        return 0.0
    raw = BACKOFF_BASE_NS * BACKOFF_FACTOR ** (failures - 1)
    return min(raw, BACKOFF_CAP_NS)


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the serving layer survives shard faults.

    Attributes
    ----------
    dispatch_timeout_ns:
        Per-attempt watchdog: a wave that would run longer (a hung or
        pathologically slow shard) is abandoned at this bound and the
        chunk fails over. ``None`` disables the watchdog — a hung shard
        then raises :class:`~repro.errors.ShardHungError` instead of
        silently looping.
    breaker_threshold / breaker_reset_ns:
        Consecutive failures that open a shard's circuit, and how long
        the circuit stays open before a half-open probe.
    quarantine_probes:
        Clean probe dispatches a *repaired* shard must serve before it
        re-enters full rotation (see
        :meth:`ShardHealthTracker.mark_repaired`). While quarantined the
        shard takes one probe at a time, like a half-open circuit.
    allow_degraded:
        Permit host-side exact recomputation of a chunk none of whose
        replicas answered (slow but exact, response flagged degraded).
        When ``False`` such a chunk raises
        :class:`~repro.errors.ChunkUnavailableError`.
    outlier_ejection:
        Attach a :class:`LatencyOutlierDetector` to the health tracker:
        shards whose successful-wave service times sustain a suspicion
        score >= ``SUSPICION_THRESHOLD`` are ejected (demoted in
        dispatch preference) and re-admitted through probes.
    adaptive_hedge:
        Hedge a wave still running past ``HEDGE_P95_FACTOR`` x the
        observed p95 service time (floored at ``HEDGE_MIN_NS``) on an
        idle replica holding the same chunks; whichever finishes first
        defines the latency (values are identical either way). No wave
        is hedged while the detector has too few samples for a p95.
        Requires ``outlier_ejection`` (the detector provides the
        sketch).
    hedge_budget:
        Global cap on hedged waves as a fraction of wave attempts
        (token bucket: every attempt accrues ``hedge_budget`` tokens,
        each hedge spends one). ``None`` leaves hedging uncapped.
    """

    dispatch_timeout_ns: float | None = 50_000_000.0
    breaker_threshold: int = 3
    breaker_reset_ns: float = 500_000_000.0
    quarantine_probes: int = 3
    allow_degraded: bool = True
    outlier_ejection: bool = False
    adaptive_hedge: bool = False
    hedge_budget: float | None = None

    def __post_init__(self) -> None:
        if self.dispatch_timeout_ns is not None and self.dispatch_timeout_ns <= 0:
            raise ServingError("dispatch_timeout_ns must be positive or None")
        if self.breaker_threshold < 1:
            raise ServingError("breaker_threshold must be >= 1")
        if self.quarantine_probes < 0:
            raise ServingError("quarantine_probes must be >= 0")
        if self.adaptive_hedge and not self.outlier_ejection:
            raise ServingError(
                "adaptive_hedge needs outlier_ejection (the detector "
                "supplies the service-time sketch)"
            )
        if self.hedge_budget is not None and not 0.0 <= self.hedge_budget <= 1.0:
            raise ServingError("hedge_budget must lie in [0, 1] or None")


def _median(ordered: list[float]) -> float:
    """``np.median`` of an ascending list, in plain Python.

    NumPy takes the middle value, or the mean of the middle pair
    (``(a + b) / 2`` in float64), so this keeps its bits.
    """
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _p95(ordered: list[float]) -> float:
    """``np.percentile(x, 95)`` of an ascending list, in plain Python.

    NumPy's ``linear`` rule: the virtual index ``(n - 1) * 0.95``
    between two neighbours, blended by ``_lerp``, which measures from
    the upper neighbour once the weight reaches one half.
    """
    n = len(ordered)
    virtual = (n - 1) * 0.95
    if virtual >= n - 1:
        return ordered[-1]
    lo = math.floor(virtual)
    t = virtual - lo
    a, b = ordered[lo], ordered[lo + 1]
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t


class _ShardLatency:
    """Streaming service-time state of one (shard, substrate).

    ``window`` holds the last samples in arrival order (for eviction)
    and ``ordered`` the same samples ascending (for the order
    statistics); ``p95`` caches the window's p95 until the next sample.
    """

    __slots__ = (
        "count", "ewma", "dev_ewma", "window", "ordered", "p95", "suspicion",
    )

    def __init__(self) -> None:
        self.count = 0
        self.ewma = 0.0
        self.dev_ewma = 0.0
        self.window: deque[float] = deque()
        self.ordered: list[float] = []
        self.p95: float | None = None
        self.suspicion = 0.0

    def push(self, x: float) -> None:
        """Slide ``x`` into the window, evicting the oldest sample."""
        self.window.append(x)
        insort(self.ordered, x)
        if len(self.window) > DETECTOR_WINDOW:
            old = self.window.popleft()
            del self.ordered[bisect_left(self.ordered, old)]
        self.p95 = None


class LatencyOutlierDetector:
    """Per-(shard, substrate) latency-outlier scoring for gray failures.

    Each successful wave's service time feeds three streaming
    statistics per shard: an EWMA (the shard's "current speed"), an
    EWMA of absolute deviation (its jitter), and a sliding window of
    the last ``DETECTOR_WINDOW`` samples (the quantile sketch behind
    :meth:`observed_p95_ns` and the adaptive hedge trigger).

    The suspicion score is phi-accrual flavoured: each observation is
    scored ``phi = -log10 P(x >= observed | shard behaves like its
    peers)`` under a normal model whose mean/deviation come from the
    *peer baseline* — the median EWMA/deviation of the other shards on
    the same substrate (per-substrate grouping keeps an HBM-PIM shard
    from looking like a straggler next to crossbar peers, and vice
    versa). A shard alone on its substrate is scored against its own
    sliding window instead, so a shard that *becomes* slower than its
    own history still accrues suspicion. Scores are EWMA-smoothed, so
    one slow wave cannot eject anybody but a sustained drift does.

    ``DETECTOR_MIN_RATIO`` gates phi on *magnitude*: a sample only
    accrues suspicion when it exceeds that multiple of the peer
    baseline mean.
    Replicated serving makes per-shard service times structurally
    uneven (a shard hosting two chunks does strictly more host-side
    work per wave than a single-chunk peer), and without the gate such
    steady small gaps z-score their way into ejections. A gray failure
    worth routing around is *meaningfully* slow, not 20% slower.
    """

    #: suspicion contribution cap per observation (P floored at 1e-15)
    MAX_PHI = 15.0

    def __init__(self, n_shards: int, substrates=None) -> None:
        if n_shards < 1:
            raise ServingError("need at least one shard")
        if substrates is None:
            self.substrates = ["default"] * n_shards
        else:
            self.substrates = [str(s) for s in substrates]
            if len(self.substrates) != n_shards:
                raise ServingError(
                    f"substrates names {len(self.substrates)} shards, "
                    f"detector covers {n_shards}"
                )
        self._state = [_ShardLatency() for _ in range(n_shards)]
        self._groups: dict[str, list[int]] = {}
        for s, name in enumerate(self.substrates):
            self._groups.setdefault(name, []).append(s)

    # ------------------------------------------------------------------
    def observe(self, shard: int, service_ns: float) -> None:
        """Fold one successful wave's service time into the statistics."""
        x = float(service_ns)
        st = self._state[shard]
        phi = self._phi(shard, x)
        if st.count == 0:
            st.ewma = x
            st.dev_ewma = 0.0
        else:
            st.dev_ewma = (
                (1.0 - DETECTOR_ALPHA) * st.dev_ewma
                + DETECTOR_ALPHA * abs(x - st.ewma)
            )
            st.ewma = (1.0 - DETECTOR_ALPHA) * st.ewma + DETECTOR_ALPHA * x
        st.count += 1
        st.push(x)
        st.suspicion = (
            (1.0 - DETECTOR_ALPHA) * st.suspicion + DETECTOR_ALPHA * phi
        )

    def _baseline(self, shard: int) -> tuple[float, float] | None:
        """(mean, deviation) the shard's samples are judged against."""
        peers = [
            self._state[s]
            for s in self._groups[self.substrates[shard]]
            if s != shard and self._state[s].count > 0
        ]
        if peers:
            mu = _median(sorted([p.ewma for p in peers]))
            dev = _median(sorted([p.dev_ewma for p in peers]))
        else:
            ordered = self._state[shard].ordered
            if len(ordered) < DETECTOR_MIN_SAMPLES:
                return None
            mu = _median(ordered)
            dev = _median(sorted([abs(x - mu) for x in ordered]))
        if mu <= 0.0:
            return None
        return mu, max(dev, 0.05 * mu)

    def _phi(self, shard: int, x: float) -> float:
        baseline = self._baseline(shard)
        if baseline is None:
            return 0.0
        mu, dev = baseline
        if x <= DETECTOR_MIN_RATIO * mu:
            return 0.0
        z = (x - mu) / dev
        if z <= 0.0:
            return 0.0
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
        return min(-math.log10(max(p, 1e-15)), self.MAX_PHI)

    # ------------------------------------------------------------------
    def samples(self, shard: int) -> int:
        """Observations folded in for ``shard``."""
        return self._state[shard].count

    def suspicion(self, shard: int) -> float:
        """Current smoothed suspicion score of ``shard``."""
        return self._state[shard].suspicion

    def ewma(self, shard: int) -> float | None:
        """Smoothed service time of ``shard`` (None before any sample)."""
        st = self._state[shard]
        return st.ewma if st.count > 0 else None

    def observed_p95_ns(self, shard: int) -> float | None:
        """p95 of the shard's sliding window (None under the floor)."""
        st = self._state[shard]
        if st.p95 is None and len(st.ordered) >= DETECTOR_MIN_SAMPLES:
            st.p95 = _p95(st.ordered)
        return st.p95

    def fleet_p95_ns(self) -> float | None:
        """Median of the per-shard p95s (None before any shard has one)."""
        values = [
            p95
            for s in range(len(self._state))
            if (p95 := self.observed_p95_ns(s)) is not None
        ]
        if not values:
            return None
        return _median(sorted(values))

    def is_slow(self, shard: int, service_ns: float) -> bool:
        """Whether one sample exceeds ``READMIT_SLACK`` x the peer baseline."""
        baseline = self._baseline(shard)
        if baseline is None:
            return False
        return float(service_ns) > READMIT_SLACK * baseline[0]

    def reset_suspicion(self, shard: int) -> None:
        """Clear the suspicion score (on re-admission); samples stay."""
        self._state[shard].suspicion = 0.0


class HedgeBudget:
    """Global token bucket capping hedges at a fraction of attempts.

    Every wave attempt accrues ``fraction`` tokens (capped at
    ``burst``); firing a hedge spends one whole token. Over any run,
    ``granted <= burst + fraction * accruals`` — the hedge rate
    converges to the budget fraction from above as traffic grows.
    """

    def __init__(self, fraction: float, burst: float = 1.0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ServingError("hedge budget fraction must lie in [0, 1]")
        if burst < 1.0:
            raise ServingError("hedge budget burst must be >= 1")
        self.fraction = float(fraction)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.accruals = 0
        self.granted = 0
        self.denied = 0

    def accrue(self) -> None:
        """One wave attempt happened: earn ``fraction`` of a hedge."""
        self.accruals += 1
        self.tokens = min(self.burst, self.tokens + self.fraction)

    def try_take(self) -> bool:
        """Spend one token to hedge; False when the budget is dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def snapshot(self) -> dict:
        """JSON-friendly budget state."""
        return {
            "fraction": self.fraction,
            "tokens": self.tokens,
            "accruals": self.accruals,
            "granted": self.granted,
            "denied": self.denied,
        }


class _ShardHealth:
    """Mutable health record of one shard."""

    __slots__ = (
        "consecutive_failures",
        "open_until_ns",
        "dead",
        "dead_since_ns",
        "down_since_ns",
        "failures",
        "successes",
        "probe_in_flight",
        "quarantine_probes",
        "quarantine_left",
        "quarantined_since_ns",
        "ejected",
        "ejected_since_ns",
        "ejections",
        "eject_probe_target",
        "eject_probes_left",
        "next_probe_ns",
    )

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.open_until_ns: float | None = None
        self.dead = False
        self.dead_since_ns: float | None = None
        self.down_since_ns: float | None = None
        self.failures = 0
        self.successes = 0
        self.probe_in_flight = False
        self.quarantine_probes = 0
        self.quarantine_left = 0
        self.quarantined_since_ns: float | None = None
        self.ejected = False
        self.ejected_since_ns: float | None = None
        self.ejections = 0
        self.eject_probe_target = 0
        self.eject_probes_left = 0
        self.next_probe_ns: float | None = None


class ShardHealthTracker:
    """Circuit breaker + MTTR bookkeeping over ``n_shards`` shards."""

    def __init__(
        self,
        n_shards: int,
        policy: RecoveryPolicy | None = None,
        substrates=None,
    ) -> None:
        if n_shards < 1:
            raise ServingError("need at least one shard")
        self.policy = policy if policy is not None else RecoveryPolicy()
        self._shards = [_ShardHealth() for _ in range(n_shards)]
        self._recoveries: list[float] = []
        #: Bumped whenever the gray-failure detector changes a verdict
        #: (ejection or re-admission); the dispatch layer watches it to
        #: invalidate cached route orders.
        self.version = 0
        self.detector: LatencyOutlierDetector | None = None
        if self.policy.outlier_ejection:
            self.detector = LatencyOutlierDetector(n_shards, substrates)
        self._domains: list[dict | None] | None = None
        self._spread_report = None

    def attach_placement(self, domains, spread_report) -> None:
        """Wire the tracker to the placement's durability accounting.

        ``domains`` is the per-shard failure-domain dict (or ``None``
        per shard when no topology is attached); ``spread_report`` is a
        zero-argument callable (``ShardManager.spread_report``) queried
        lazily at snapshot time so the tracker never holds stale copies
        of the replica map.
        """
        self._domains = list(domains)
        self._spread_report = spread_report

    # ------------------------------------------------------------------
    def record_success(self, shard_id: int, t_ns: float) -> None:
        """A dispatch on ``shard_id`` completed cleanly at ``t_ns``."""
        h = self._shards[shard_id]
        h.successes += 1
        h.probe_in_flight = False
        h.consecutive_failures = 0
        if h.quarantine_left > 0:
            h.quarantine_left -= 1
            if h.quarantine_left > 0:
                return  # still probationary: more clean probes needed
            h.quarantined_since_ns = None
            tele = get_recorder()
            if tele.enabled:
                tele.metrics.counter("serving.health.readmissions").add(1)
        if h.down_since_ns is not None:
            self._recoveries.append(max(t_ns - h.down_since_ns, 0.0))
            h.down_since_ns = None
            tele = get_recorder()
            if tele.enabled:
                tele.metrics.counter("serving.health.recoveries").add(1)
        h.open_until_ns = None

    def record_service_time(
        self, shard_id: int, t_ns: float, service_ns: float
    ) -> None:
        """A *successful* wave on ``shard_id`` took ``service_ns``.

        Feeds the gray-failure detector (no-op without
        ``outlier_ejection``). A healthy shard whose smoothed suspicion
        crosses the policy threshold is ejected; an ejected shard's
        observation doubles as its probe outcome — a clean sample
        (within ``READMIT_SLACK`` of the peer baseline) advances the
        re-admission streak, a slow one escalates the required streak
        (doubling, capped at ``EJECTION_MAX_PROBES``) so an
        intermittently slow shard cannot flap back into rotation.
        """
        det = self.detector
        if det is None:
            return
        det.observe(shard_id, service_ns)
        h = self._shards[shard_id]
        if h.ejected:
            if not det.is_slow(shard_id, service_ns):
                h.eject_probes_left -= 1
                if h.eject_probes_left <= 0:
                    self._readmit(shard_id)
            else:
                h.eject_probe_target = min(
                    h.eject_probe_target * 2, EJECTION_MAX_PROBES
                )
                h.eject_probes_left = h.eject_probe_target
                tele = get_recorder()
                if tele.enabled:
                    tele.metrics.counter(
                        "serving.health.eject_probe_slow"
                    ).add(1)
            h.next_probe_ns = t_ns + EJECTION_PROBE_PERIOD_NS
        elif (
            det.samples(shard_id) >= DETECTOR_MIN_SAMPLES
            and det.suspicion(shard_id) >= SUSPICION_THRESHOLD
        ):
            self._eject(shard_id, t_ns)

    def _eject(self, shard_id: int, t_ns: float) -> None:
        h = self._shards[shard_id]
        h.ejected = True
        h.ejected_since_ns = t_ns
        h.ejections += 1
        if h.eject_probe_target == 0:
            h.eject_probe_target = EJECTION_PROBES
        # ejections after a re-admission keep the escalated target: a
        # shard with a flapping history earns longer probation, never
        # shorter (the hysteresis is sticky by design)
        h.eject_probes_left = h.eject_probe_target
        h.next_probe_ns = t_ns + EJECTION_PROBE_PERIOD_NS
        self.version += 1
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("serving.health.ejections").add(1)

    def _readmit(self, shard_id: int) -> None:
        h = self._shards[shard_id]
        h.ejected = False
        h.ejected_since_ns = None
        h.next_probe_ns = None
        if self.detector is not None:
            self.detector.reset_suspicion(shard_id)
        self.version += 1
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("serving.health.ejection_readmits").add(1)

    def _eject_probe_due(self, h: _ShardHealth, t_ns: float) -> bool:
        return h.ejected and (
            h.next_probe_ns is None or t_ns >= h.next_probe_ns
        )

    def record_failure(
        self, shard_id: int, t_ns: float, permanent: bool = False
    ) -> None:
        """A dispatch on ``shard_id`` failed at ``t_ns``."""
        h = self._shards[shard_id]
        h.failures += 1
        h.consecutive_failures += 1
        h.probe_in_flight = False
        if h.ejected:
            # a hard failure on an ejected shard is conclusive for its
            # probation too: escalate and restart the clean streak
            h.eject_probe_target = min(
                h.eject_probe_target * 2, EJECTION_MAX_PROBES
            )
            h.eject_probes_left = h.eject_probe_target
            h.next_probe_ns = t_ns + EJECTION_PROBE_PERIOD_NS
        if h.down_since_ns is None:
            h.down_since_ns = t_ns
        if permanent:
            h.dead = True
            if h.dead_since_ns is None:
                h.dead_since_ns = t_ns
        elif h.quarantine_left > 0:
            # a failed probe during probation is conclusive: restart the
            # probation from scratch behind a fresh open window
            h.quarantine_left = h.quarantine_probes
            h.open_until_ns = t_ns + self.policy.breaker_reset_ns
        elif h.consecutive_failures >= self.policy.breaker_threshold:
            h.open_until_ns = t_ns + self.policy.breaker_reset_ns
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("serving.health.failures").add(1)
            if h.open_until_ns is not None:
                tele.metrics.counter("serving.health.circuit_opens").add(1)

    def mark_repaired(
        self, shard_id: int, t_ns: float, probes: int | None = None
    ) -> None:
        """A repaired shard re-enters rotation via quarantine.

        The repair layer calls this after a spare-crossbar remap or a
        completed re-replication: the shard is revived (even from
        ``dead``) but must first serve ``probes`` clean dispatches —
        one at a time, gated by the probe token — before it is fully
        re-admitted. Its MTTR sample completes at *re-admission*, not at
        the repair itself, so the recorded outage covers the probation.
        """
        h = self._shards[shard_id]
        n = self.policy.quarantine_probes if probes is None else int(probes)
        if n < 0:
            raise ServingError("quarantine probes must be >= 0")
        h.dead = False
        h.dead_since_ns = None
        h.consecutive_failures = 0
        h.open_until_ns = None
        h.probe_in_flight = False
        h.quarantine_probes = n
        h.quarantine_left = n
        h.quarantined_since_ns = t_ns if n > 0 else None
        if h.down_since_ns is None:
            h.down_since_ns = t_ns
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("serving.health.repairs").add(1)
        if n == 0:  # immediate re-admission requested
            self._recoveries.append(max(t_ns - h.down_since_ns, 0.0))
            h.down_since_ns = None

    # ------------------------------------------------------------------
    def available(self, shard_id: int, t_ns: float) -> bool:
        """Whether dispatch planning may route to ``shard_id`` at ``t_ns``.

        Dead shards never come back on their own; an open circuit blocks
        routing until ``breaker_reset_ns`` elapses, after which the shard
        is half-open: exactly one probe dispatch may route (claimed with
        :meth:`begin_probe`) and decides its fate. While that probe is in
        flight every other caller sees the shard as unavailable — the
        probe token closes the thundering-herd window where all callers
        piled onto a barely-recovered shard the moment the window
        elapsed. Quarantined (freshly repaired) shards are gated the
        same way.
        """
        h = self._shards[shard_id]
        if h.dead:
            return False
        if h.open_until_ns is not None and t_ns < h.open_until_ns:
            return False
        probationary = (
            h.open_until_ns is not None
            or h.quarantine_left > 0
            or self._eject_probe_due(h, t_ns)
        )
        if probationary and h.probe_in_flight:
            return False
        return True

    def probationary(self, shard_id: int, t_ns: float) -> bool:
        """Whether ``shard_id`` is half-open or quarantined at ``t_ns``.

        Probationary shards take one probe dispatch at a time; hedging
        skips them (a hedge is a latency optimisation, not a probe).
        An ejected shard is probationary exactly while a probe is due —
        between probes it stays routable as a last resort without
        consuming the probe token.
        """
        h = self._shards[shard_id]
        if h.dead:
            return False
        if h.quarantine_left > 0:
            return True
        if self._eject_probe_due(h, t_ns):
            return True
        return h.open_until_ns is not None and t_ns >= h.open_until_ns

    def demoted(self, shard_id: int, t_ns: float) -> bool:
        """Whether dispatch preference should rank ``shard_id`` last.

        Ejected shards are demoted — still routable (a chunk whose
        other replicas are gone prefers a slow answer over a degraded
        recompute) but tried after every non-ejected replica — except
        when their periodic probe is due, so probe traffic reaches them
        through the normal dispatch path.
        """
        h = self._shards[shard_id]
        return h.ejected and not self._eject_probe_due(h, t_ns)

    def prefer_order(self, order, t_ns: float):
        """Stable-partition a replica order: demoted shards go last."""
        kept = [s for s in order if not self.demoted(s, t_ns)]
        if len(kept) == len(order):
            return tuple(order)
        return tuple(kept) + tuple(
            s for s in order if self.demoted(s, t_ns)
        )

    def ejected(self, shard_id: int) -> bool:
        """Whether ``shard_id`` is currently ejected as a latency outlier."""
        return self._shards[shard_id].ejected

    def suspicion(self, shard_id: int) -> float:
        """Detector suspicion score (0.0 without a detector)."""
        if self.detector is None:
            return 0.0
        return self.detector.suspicion(shard_id)

    def observed_p95_ns(self, shard_id: int) -> float | None:
        """Observed p95 service time (None without detector/samples)."""
        if self.detector is None:
            return None
        return self.detector.observed_p95_ns(shard_id)

    def begin_probe(self, shard_id: int, t_ns: float) -> bool:
        """Claim the single probe slot of a probationary shard.

        Returns ``True`` when the caller's dispatch is *the* probe —
        every later caller is refused (and sees ``available() == False``)
        until the probe's outcome is recorded or the claim released.
        """
        h = self._shards[shard_id]
        if not self.probationary(shard_id, t_ns):
            return False
        if h.probe_in_flight:
            return False
        h.probe_in_flight = True
        return True

    def release_probe(self, shard_id: int) -> None:
        """Release a probe claim whose dispatch was abandoned unrecorded."""
        self._shards[shard_id].probe_in_flight = False

    def alive(self, shard_id: int) -> bool:
        """Whether ``shard_id`` is not permanently dead."""
        return not self._shards[shard_id].dead

    @property
    def dead_shards(self) -> list[int]:
        """Ids of permanently dead shards."""
        return [s for s, h in enumerate(self._shards) if h.dead]

    def drain_recoveries(self) -> list[float]:
        """Down-to-up durations observed since the last drain (MTTR samples)."""
        out = self._recoveries
        self._recoveries = []
        return out

    def snapshot(self, t_ns: float) -> list[dict]:
        """Per-shard health as JSON-friendly records.

        Includes the breaker window (``open_until_ns``) and the
        dead/down/quarantine timestamps, so operators can read *when* a
        shard went dark and how far its probation has progressed — not
        just its instantaneous status. With the gray-failure detector
        attached, each record also carries the ``suspicion`` score, the
        ``ejected`` flag, and the ``observed_p95_ns`` sketch readout;
        the same three are pushed as per-shard gauges so the Prometheus
        snapshot mirrors them.

        With a placement attached (:meth:`attach_placement`) each
        record additionally carries the shard's failure-domain
        coordinates (``domains``) and how many of its hosted chunks are
        at risk of a correlated outage (``hosted_at_risk_chunks``);
        fleet-wide durability (minimum replica spread, at-risk chunk
        count, recorded violations, checkpoint age) goes out as gauges.
        """
        tele = get_recorder()
        durability = (
            self._spread_report() if self._spread_report is not None else None
        )
        per_shard_at_risk = (
            durability["per_shard_at_risk"] if durability else None
        )
        out = []
        for s, h in enumerate(self._shards):
            if h.dead:
                status = "dead"
            elif h.quarantine_left > 0:
                status = "quarantine"
            elif h.open_until_ns is not None and t_ns < h.open_until_ns:
                status = "open"
            elif h.ejected:
                status = "ejected"
            elif h.down_since_ns is not None:
                status = "suspect"
            else:
                status = "up"
            suspicion = self.suspicion(s)
            p95 = self.observed_p95_ns(s)
            out.append(
                {
                    "shard": s,
                    "status": status,
                    "failures": h.failures,
                    "successes": h.successes,
                    "consecutive_failures": h.consecutive_failures,
                    "open_until_ns": h.open_until_ns,
                    "down_since_ns": h.down_since_ns,
                    "dead_since_ns": h.dead_since_ns,
                    "quarantined_since_ns": h.quarantined_since_ns,
                    "quarantine_left": h.quarantine_left,
                    "probe_in_flight": h.probe_in_flight,
                    "suspicion": suspicion,
                    "ejected": h.ejected,
                    "ejections": h.ejections,
                    "ejected_since_ns": h.ejected_since_ns,
                    "observed_p95_ns": p95,
                    "domains": (
                        self._domains[s]
                        if self._domains is not None
                        else None
                    ),
                    "hosted_at_risk_chunks": (
                        per_shard_at_risk[s]
                        if per_shard_at_risk is not None
                        else None
                    ),
                }
            )
            if tele.enabled and self.detector is not None:
                tele.metrics.gauge(f"serving.shard{s}.suspicion").set(
                    suspicion
                )
                tele.metrics.gauge(f"serving.shard{s}.ejected").set(
                    1.0 if h.ejected else 0.0
                )
                if p95 is not None:
                    tele.metrics.gauge(
                        f"serving.shard{s}.observed_p95_ns"
                    ).set(p95)
        if tele.enabled and durability is not None:
            if durability["min_spread"] is not None:
                tele.metrics.gauge("serving.placement.min_spread").set(
                    float(durability["min_spread"])
                )
            tele.metrics.gauge("serving.placement.at_risk_chunks").set(
                float(durability["n_at_risk"])
            )
            tele.metrics.gauge("serving.placement.violations").set(
                float(len(durability["violations"]))
            )
            last = durability.get("last_checkpoint_ns")
            if last is not None:
                tele.metrics.gauge("serving.checkpoint.age_ns").set(
                    max(t_ns - last, 0.0)
                )
        return out

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Serialize the mutable health state for a checkpoint.

        Captures every per-shard breaker/quarantine/ejection field plus
        the tracker version and undrained MTTR samples. The latency-
        outlier detector's sketches are deliberately *not* captured —
        they are advisory (they bias routing preference, never results)
        and rebuild from live traffic within one detector window.
        """
        return {
            "version": self.version,
            "recoveries": list(self._recoveries),
            "shards": [
                {slot: getattr(h, slot) for slot in _ShardHealth.__slots__}
                for h in self._shards
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output onto this tracker.

        The shard count must match; the version counter is bumped past
        the saved value so any route order cached before the restore is
        invalidated.
        """
        shards = state["shards"]
        if len(shards) != len(self._shards):
            raise ServingError(
                f"health state describes {len(shards)} shards, "
                f"tracker has {len(self._shards)}"
            )
        for h, payload in zip(self._shards, shards):
            for slot in _ShardHealth.__slots__:
                setattr(h, slot, payload[slot])
        self._recoveries = list(state.get("recoveries", []))
        self.version = int(state.get("version", 0)) + 1

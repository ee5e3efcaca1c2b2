"""Multi-window SLO burn-rate alerting on simulated time.

The classic Google-SRE construction: an SLO defines an *error budget*
(e.g. "1% of requests may miss their deadline"), and the *burn rate* of
a window is ``error_rate / budget`` — 1.0 means the budget is consumed
exactly at its sustainable pace, N means N-times too fast. Each rule
pairs a long window with a short confirmation window: the alert fires
only when *both* burn above the threshold, so a long-gone spike cannot
page (the short window has recovered) and a brief blip cannot either
(the long window dilutes it). A fast/page rule uses a short long-window
and a high threshold; a slow/ticket rule uses a longer window and a
lower threshold.

Windows here are *simulated* nanoseconds — the monitor observes
terminal :class:`~repro.serving.service.Response` objects, whose
completion times come from the discrete-event loop, so alert behaviour
is deterministic and replayable. Alerts are emitted as structured
events on the active telemetry recorder (``kind: "alert"`` in the
metrics JSONL, ``ph: "i"`` instants in the Chrome trace) and kept on
:attr:`BurnRateMonitor.alerts` for programmatic checks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.telemetry import get_recorder


@dataclass(frozen=True)
class SLObjective:
    """One error budget: at most ``budget`` of events may be bad."""

    name: str
    budget: float

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(
                f"objective {self.name!r} needs a budget in (0, 1]"
            )


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window rule: long window + short confirmation window."""

    name: str
    long_window_ns: float
    short_window_ns: float
    threshold: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_window_ns > self.long_window_ns:
            raise ValueError(
                f"rule {self.name!r}: short window exceeds long window"
            )
        if self.threshold <= 0:
            raise ValueError(f"rule {self.name!r}: threshold must be > 0")


#: Default budgets: 1% deadline misses, 5% sheds, and effectively zero
#: tolerated exactness violations (any violation burns 10^4x).
DEFAULT_OBJECTIVES = (
    SLObjective("p99_deadline", 0.01),
    SLObjective("shed_rate", 0.05),
    SLObjective("exactness", 1e-4),
)


def default_rules(base_window_ns: float) -> tuple[BurnRateRule, ...]:
    """The standard fast/slow pair scaled to one base window.

    The 14.4/6 thresholds are the canonical SRE-workbook multipliers
    (the pace that exhausts a 30-day budget in 1 day / 5 days); the
    window shapes (short = long/4, slow-long = 6x base) keep the same
    proportions on the compressed simulated timeline.
    """
    return (
        BurnRateRule(
            "fast",
            long_window_ns=base_window_ns,
            short_window_ns=base_window_ns / 4.0,
            threshold=14.4,
            severity="page",
        ),
        BurnRateRule(
            "slow",
            long_window_ns=6.0 * base_window_ns,
            short_window_ns=base_window_ns,
            threshold=6.0,
            severity="ticket",
        ),
    )


class BurnRateMonitor:
    """Streaming burn-rate evaluator over terminal responses.

    Feed it every terminal response (:class:`QueryService` does this
    when the monitor is attached); it classifies each against the
    objectives, re-evaluates every rule at that simulated instant, and
    emits one structured alert per (objective, rule) transition into
    the firing state (with hysteresis: the pair must stop firing before
    it can alert again).

    ``min_events`` suppresses evaluation until the long window holds a
    meaningful sample — a single bad first event is a 100% error rate
    but not a trend.
    """

    def __init__(
        self,
        objectives=None,
        *,
        base_window_ns: float = 500_000.0,
        rules=None,
        min_events: int = 12,
    ) -> None:
        self.objectives = tuple(
            objectives if objectives is not None else DEFAULT_OBJECTIVES
        )
        self.rules = tuple(
            rules if rules is not None else default_rules(base_window_ns)
        )
        self.min_events = min_events
        self._by_name = {o.name: o for o in self.objectives}
        # event times and bad-event times, each kept sorted — sheds at
        # dispatch time can be recorded after completions stamped later
        # on the event loop — so a window count is two bisections
        self._events: dict[str, list[float]] = {
            o.name: [] for o in self.objectives
        }
        self._bad: dict[str, list[float]] = {
            o.name: [] for o in self.objectives
        }
        self._active: dict[tuple[str, str], bool] = {}
        #: Structured alerts in emission order.
        self.alerts: list[dict] = []

    # ------------------------------------------------------------------
    def observe(self, response, deadline_ns: float | None = None) -> None:
        """Classify one terminal response against every objective."""
        t = response.completion_ns
        deadline_bad = (
            not response.ok and response.shed_reason == "deadline"
        ) or (
            response.ok
            and deadline_ns is not None
            and response.completion_ns > deadline_ns
        )
        self.record("p99_deadline", t, deadline_bad)
        self.record("shed_rate", t, not response.ok)
        if response.ok:
            # completions are the exactness denominator; violations
            # arrive via record_violation from verification layers
            self.record("exactness", t, False)

    def record_violation(self, t_ns: float) -> None:
        """Record one exactness violation (wrong answer served)."""
        self.record("exactness", t_ns, True)

    def record(self, objective: str, t_ns: float, bad: bool) -> None:
        """Record one good/bad event and re-evaluate that objective."""
        events = self._events.get(objective)
        if events is None:
            return
        bisect.insort(events, float(t_ns))
        if bad:
            bisect.insort(self._bad[objective], float(t_ns))
        self._evaluate(objective, float(t_ns))

    # ------------------------------------------------------------------
    def _window(
        self, objective: str, t_ns: float, window_ns: float
    ) -> tuple[int, int]:
        """(total, bad) over the half-open window ``(t - w, t]``."""
        start = t_ns - window_ns
        events = self._events[objective]
        bad = self._bad[objective]
        right = bisect.bisect_right
        return (
            right(events, t_ns) - right(events, start),
            right(bad, t_ns) - right(bad, start),
        )

    def _evaluate(self, objective: str, t_ns: float) -> None:
        obj = self._by_name[objective]
        for rule in self.rules:
            long_total, long_bad = self._window(
                objective, t_ns, rule.long_window_ns
            )
            short_total, short_bad = self._window(
                objective, t_ns, rule.short_window_ns
            )
            if long_total < self.min_events or short_total == 0:
                continue
            long_burn = (long_bad / long_total) / obj.budget
            short_burn = (short_bad / short_total) / obj.budget
            firing = (
                long_burn >= rule.threshold
                and short_burn >= rule.threshold
            )
            key = (objective, rule.name)
            if firing and not self._active.get(key, False):
                self._active[key] = True
                self._emit(obj, rule, t_ns, long_burn, short_burn)
            elif not firing and self._active.get(key, False):
                self._active[key] = False

    def _emit(
        self,
        obj: SLObjective,
        rule: BurnRateRule,
        t_ns: float,
        long_burn: float,
        short_burn: float,
    ) -> None:
        alert = {
            "objective": obj.name,
            "rule": rule.name,
            "severity": rule.severity,
            "t_ns": t_ns,
            "burn_rate": long_burn,
            "short_burn_rate": short_burn,
            "threshold": rule.threshold,
            "budget": obj.budget,
            "window_ns": rule.long_window_ns,
        }
        self.alerts.append(alert)
        tele = get_recorder()
        if tele.enabled:
            tele.record_event(
                "slo_burn_rate",
                ts_ns=t_ns,
                category="alert",
                **{k: v for k, v in alert.items() if k != "t_ns"},
            )
            tele.metrics.counter(
                "observability.alerts",
                labels={"objective": obj.name, "rule": rule.name},
            ).add(1)

    # ------------------------------------------------------------------
    def firing(self) -> list[tuple[str, str]]:
        """(objective, rule) pairs currently in the firing state."""
        return sorted(k for k, v in self._active.items() if v)

    def snapshot(self, t_ns: float | None = None) -> dict:
        """Current burn rates per objective per rule window."""
        out: dict = {}
        for obj in self.objectives:
            events = self._events[obj.name]
            t = t_ns
            if t is None:
                t = events[-1] if events else 0.0
            windows: dict = {}
            for rule in self.rules:
                total, bad = self._window(obj.name, t, rule.long_window_ns)
                rate = bad / total if total else 0.0
                windows[rule.name] = {
                    "events": total,
                    "error_rate": rate,
                    "burn_rate": rate / obj.budget,
                    "threshold": rule.threshold,
                    "firing": self._active.get((obj.name, rule.name), False),
                }
            out[obj.name] = {"budget": obj.budget, "windows": windows}
        return out

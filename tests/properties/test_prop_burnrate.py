"""Property-based tests: burn-rate windows count exactly like a scan.

:class:`BurnRateMonitor` counts a window's bad events with two
bisections over a sorted list of bad-event times. Sheds are recorded at
dispatch time, after completions stamped later, so events arrive out of
order. For any such sequence the monitor must raise the same alerts and
report the same snapshots as a brute-force count over every event in
the half-open window ``(t - w, t]``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import BurnRateMonitor


class _ScanMonitor(BurnRateMonitor):
    """The oracle: log every event and count a window by scanning it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = {o.name: [] for o in self.objectives}

    def record(self, objective, t_ns, bad):
        self.log[objective].append((float(t_ns), bool(bad)))
        super().record(objective, t_ns, bad)

    def _window(self, objective, t_ns, window_ns):
        inside = [
            bad
            for t, bad in self.log[objective]
            if t_ns - window_ns < t <= t_ns
        ]
        return len(inside), sum(inside)


#: Coarse times so events share timestamps and sit on window edges.
_events = st.lists(
    st.tuples(
        st.sampled_from(["p99_deadline", "shed_rate", "exactness"]),
        st.integers(min_value=0, max_value=40).map(lambda t: t * 25_000.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


class TestBurnRateWindows:
    @given(_events, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_alerts_and_snapshots_match_brute_force(self, events, min_events):
        fast = BurnRateMonitor(base_window_ns=100_000.0, min_events=min_events)
        scan = _ScanMonitor(base_window_ns=100_000.0, min_events=min_events)
        for objective, t_ns, bad in events:
            fast.record(objective, t_ns, bad)
            scan.record(objective, t_ns, bad)
            assert fast.alerts == scan.alerts
            assert fast.firing() == scan.firing()
        assert fast.snapshot() == scan.snapshot()
        for _, t_ns, _ in events:
            assert fast.snapshot(t_ns) == scan.snapshot(t_ns)
            assert fast.snapshot(t_ns + 50_000.0) == scan.snapshot(
                t_ns + 50_000.0
            )

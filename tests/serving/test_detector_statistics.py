"""The gray-failure detector's order statistics keep NumPy's bits.

:class:`~repro.serving.health.LatencyOutlierDetector` reads its p95 and
medians from a sorted copy of each shard's sliding window instead of
calling ``np.percentile``/``np.median`` per wave. Every value must stay
bit-identical, or a hedge trigger, an ejection or a route would move:

* the helpers equal NumPy byte for byte on windows of 1-64 samples,
  with ties and magnitudes from 1 to 1e9;
* a random observation stream on a mixed fleet (including a shard
  alone on its substrate, judged against its own window, and windows
  that overflow with tied samples) gives the same readings as a
  reference that applies NumPy's formulas to a mirror window;
* a defended fleet past the sample floor serves without any
  ``np.percentile``/``np.median`` call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultPlan
from repro.serving import RecoveryPolicy, ShardManager, health
from repro.serving.health import (
    DETECTOR_ALPHA,
    DETECTOR_MIN_RATIO,
    DETECTOR_MIN_SAMPLES,
    DETECTOR_WINDOW,
    READMIT_SLACK,
    LatencyOutlierDetector,
)


def bits(x):
    """Exact identity of an optional float (distinguishes -0.0, keeps None)."""
    return None if x is None else float(x).hex()


#: A few recurring values, so windows carry ties.
TIED = [1.0, 2.5, 1000.0, 123456.789, 1e9]

samples = st.one_of(
    st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    st.sampled_from(TIED),
)


class TestOrderStatistics:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(samples, min_size=1, max_size=DETECTOR_WINDOW))
    def test_p95_and_median_equal_numpy(self, window):
        ordered = sorted(window)
        assert bits(health._p95(ordered)) == bits(np.percentile(window, 95.0))
        assert bits(health._median(ordered)) == bits(np.median(window))

    def test_every_window_length(self):
        rng = np.random.default_rng(0)
        for n in range(1, DETECTOR_WINDOW + 1):
            for _ in range(20):
                window = list(10.0 ** rng.uniform(0.0, 9.0, size=n))
                # overwrite a random share with tied values
                for i in rng.integers(0, n, size=rng.integers(0, n + 1)):
                    window[i] = float(rng.choice(TIED))
                ordered = sorted(window)
                assert bits(health._p95(ordered)) == bits(
                    np.percentile(window, 95.0)
                )
                assert bits(health._median(ordered)) == bits(
                    np.median(window)
                )


class _NumpyReference:
    """The detector's statistics by NumPy's formulas on a mirror window."""

    def __init__(self, substrates):
        self.substrates = list(substrates)
        n = len(self.substrates)
        self.count = [0] * n
        self.ewma = [0.0] * n
        self.dev_ewma = [0.0] * n
        self.window = [[] for _ in range(n)]
        self.suspicion = [0.0] * n

    def baseline(self, shard):
        peers = [
            s
            for s, name in enumerate(self.substrates)
            if name == self.substrates[shard]
            and s != shard
            and self.count[s] > 0
        ]
        if peers:
            mu = float(np.median([self.ewma[s] for s in peers]))
            dev = float(np.median([self.dev_ewma[s] for s in peers]))
        else:
            window = self.window[shard]
            if len(window) < DETECTOR_MIN_SAMPLES:
                return None
            mu = float(np.median(window))
            dev = float(np.median(np.abs(np.asarray(window) - mu)))
        if mu <= 0.0:
            return None
        return mu, max(dev, 0.05 * mu)

    def phi(self, shard, x):
        baseline = self.baseline(shard)
        if baseline is None:
            return 0.0
        mu, dev = baseline
        if x <= DETECTOR_MIN_RATIO * mu:
            return 0.0
        z = (x - mu) / dev
        if z <= 0.0:
            return 0.0
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
        return min(
            -math.log10(max(p, 1e-15)), LatencyOutlierDetector.MAX_PHI
        )

    def observe(self, shard, x):
        phi = self.phi(shard, x)
        if self.count[shard] == 0:
            self.ewma[shard] = x
            self.dev_ewma[shard] = 0.0
        else:
            self.dev_ewma[shard] = (
                (1.0 - DETECTOR_ALPHA) * self.dev_ewma[shard]
                + DETECTOR_ALPHA * abs(x - self.ewma[shard])
            )
            self.ewma[shard] = (
                (1.0 - DETECTOR_ALPHA) * self.ewma[shard] + DETECTOR_ALPHA * x
            )
        self.count[shard] += 1
        self.window[shard].append(x)
        del self.window[shard][:-DETECTOR_WINDOW]
        self.suspicion[shard] = (
            (1.0 - DETECTOR_ALPHA) * self.suspicion[shard]
            + DETECTOR_ALPHA * phi
        )

    def observed_p95_ns(self, shard):
        window = self.window[shard]
        if len(window) < DETECTOR_MIN_SAMPLES:
            return None
        return float(np.percentile(window, 95.0))

    def fleet_p95_ns(self):
        values = [
            p95
            for s in range(len(self.substrates))
            if (p95 := self.observed_p95_ns(s)) is not None
        ]
        return float(np.median(values)) if values else None

    def is_slow(self, shard, x):
        baseline = self.baseline(shard)
        return baseline is not None and x > READMIT_SLACK * baseline[0]


#: Two crossbar shards, two HBM-PIM shards and one shard alone on its
#: substrate (scored against its own window).
FLEET = ["crossbar", "hbm_pim", "crossbar", "hbm_pim", "solo", "crossbar"]


@pytest.mark.parametrize("seed", range(6))
def test_stream_matches_numpy_reference(seed):
    rng = np.random.default_rng(seed)
    detector = LatencyOutlierDetector(len(FLEET), FLEET)
    reference = _NumpyReference(FLEET)
    base = {"crossbar": 2_000.0, "hbm_pim": 5_000.0, "solo": 9_000.0}
    slow = int(rng.integers(0, len(FLEET)))
    for step in range(900):
        shard = int(rng.integers(0, len(FLEET)))
        roll = rng.random()
        if roll < 0.3:
            x = float(rng.choice(TIED))  # ties, and outliers both ways
        else:
            x = base[FLEET[shard]] * float(rng.lognormal(0.0, 0.3))
            if shard == slow and step > 300:
                x *= 8.0  # a gray failure that sets in mid-stream
        detector.observe(shard, x)
        reference.observe(shard, x)
        probe = float(rng.choice([x, 1.0, 1e9, base[FLEET[shard]] * 1.6]))
        for s in range(len(FLEET)):
            assert bits(detector.observed_p95_ns(s)) == bits(
                reference.observed_p95_ns(s)
            )
            assert bits(detector.ewma(s)) == bits(
                reference.ewma[s] if reference.count[s] else None
            )
            assert bits(detector.suspicion(s)) == bits(reference.suspicion[s])
            assert detector.is_slow(s, probe) == reference.is_slow(s, probe)
        assert bits(detector.fleet_p95_ns()) == bits(reference.fleet_p95_ns())
    # the stream overflowed every window and reached the suspicion path
    assert min(reference.count) > DETECTOR_WINDOW
    assert max(reference.suspicion) > 0.0


def test_defended_dispatch_makes_no_numpy_order_statistic(monkeypatch):
    """Past the sample floor, gray-defended waves call no NumPy quantile."""
    data = np.random.default_rng(42).random((512, 32))
    queries = np.random.default_rng(7).normal(size=(60, 32))
    plan = FaultPlan(
        (
            FaultEvent(
                t_ns=0.0, kind="slow_shard", target="shard0",
                duration_ns=1.5e7, params={"factor": 12.0},
            ),
        ),
        seed=3,
    )
    manager = ShardManager(
        data, n_shards=4, replication=2, fault_plan=plan, seed=0,
        recovery=RecoveryPolicy(
            outlier_ejection=True, adaptive_hedge=True, hedge_budget=0.5
        ),
    )
    detector = manager.health.detector
    t = 0.0
    for q in queries:
        _, timing = manager.knn_batch(np.atleast_2d(q), 10, now_ns=t)
        t += timing.service_ns + 1e5
        if all(
            detector.samples(s) >= DETECTOR_MIN_SAMPLES for s in range(4)
        ):
            break
    assert detector.fleet_p95_ns() is not None

    def forbidden(*args, **kwargs):
        raise AssertionError("NumPy order statistic on the per-wave path")

    monkeypatch.setattr(np, "percentile", forbidden)
    monkeypatch.setattr(np, "median", forbidden)
    before = [detector.samples(s) for s in range(4)]
    for q in queries[:20]:
        _, timing = manager.knn_batch(np.atleast_2d(q), 10, now_ns=t)
        t += timing.service_ns + 1e5
    assert [detector.samples(s) for s in range(4)] != before

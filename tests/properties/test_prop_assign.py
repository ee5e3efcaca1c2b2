"""Property-based tests: the certified nearest-center sweep.

:func:`repro.kernels.assign_sweep` takes the per-row loop's decisions
from Theorem 3's window around each LB_PIM-ED bound and scores only the
pairs whose decision the window leaves open. These properties pin the
window itself on adversarial data, the fallback when an exact score
leaves its window, the sweep's answers at the benchmark's own shape
against :class:`~repro.oracle.LoopShardManager`, and its peak memory.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.bounds.pim import theorem1_lower_bound
from repro.data.catalog import make_dataset
from repro.kernels import assign_sweep, assign_window, exact_sq_distances
from repro.mining.kmeans import initial_centers
from repro.oracle import LoopShardManager
from repro.serving import ShardManager
from repro.similarity.quantization import Quantizer, theorem3_error_bound

#: values that sit on the quantizer's floor or ceiling
_EDGES = np.array([0.0, 1.0, 2.0**-52, 1.0 - 2.0**-53, 0.5, 1.0 / 3.0])


def _operands(rows, centers, alpha):
    """``(phi, phi_c, dots)`` as a shard and its wave compute them."""
    quantizer = Quantizer(alpha, assume_normalized=True).fit(rows)
    xv, cv = quantizer.quantize(rows), quantizer.quantize(centers)
    phi = (xv.scaled**2).sum(axis=1) - 2.0 * xv.integers.sum(axis=1)
    phi_c = (cv.scaled**2).sum(axis=1) - 2.0 * cv.integers.sum(axis=1)
    return phi, phi_c, cv.integers @ xv.integers.T


def _loop_assign(lb, floats, c_norm):
    """The per-row loop the sweep replaces, on the same bounds."""
    n = lb.shape[1]
    best_c, best_d = np.zeros(n, dtype=np.int64), np.full(n, np.inf)
    refined = 0
    for j in range(n):
        for c in range(lb.shape[0]):
            if lb[c, j] > best_d[j]:
                continue
            d = float(exact_sq_distances(floats[j], c_norm[c])[0])
            refined += 1
            if d < best_d[j]:
                best_d[j], best_c[j] = d, c
    return best_c, best_d, refined


@st.composite
def window_cases(draw):
    dims = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=25))
    n_centers = draw(st.integers(min_value=1, max_value=8))
    alpha = draw(
        st.sampled_from([0.5, 1.0, 3.0, 8.0, 255.0, 1e3, 1e6, 2.0**24])
    )
    kind = draw(st.sampled_from(["edges", "grid", "uniform", "tight"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    if kind == "tight":
        # scaled values just below an integer: floor loses almost a
        # whole unit, so the bound sits on the score and only rounding
        # separates them
        shape = (n + n_centers, dims)
        grid = rng.integers(1, max(int(alpha), 1) + 1, size=shape)
        values = grid * (1.0 - 2.0 ** -draw(st.integers(30, 52)))
        values = np.clip(values / alpha, 0.0, 1.0)
        rows, centers = values[:n], values[n:]
    elif kind == "edges":
        rows = rng.choice(_EDGES, size=(n, dims))
        centers = rng.choice(_EDGES, size=(n_centers, dims))
    elif kind == "grid":
        rows = rng.integers(0, 3, size=(n, dims)) / 2.0
        centers = rng.integers(0, 3, size=(n_centers, dims)) / 2.0
    else:
        rows, centers = rng.random((n, dims)), rng.random((n_centers, dims))
    # duplicate rows, and centers sitting on rows
    rows = rows[rng.integers(0, n, size=n)]
    on_row = rng.random(n_centers) < 0.5
    centers[on_row] = rows[rng.integers(0, n, size=int(on_row.sum()))]
    return rows, centers, alpha


class TestAssignWindow:
    @given(window_cases())
    @example((np.ones((2, 40)), np.zeros((1, 40)), 2.0**24))  # farthest
    @example((np.ones((2, 40)), np.ones((1, 40)), 3.0))  # on a row
    @example((np.full((1, 7), 1.0 / 3.0), np.zeros((1, 7)), 0.5))
    @settings(max_examples=200, deadline=None)
    def test_every_pair_lies_in_its_window(self, case):
        rows, centers, alpha = case
        dims = rows.shape[1]
        phi, phi_c, dots = _operands(rows, centers, alpha)
        lb = theorem1_lower_bound(
            phi[np.newaxis, :], phi_c[:, np.newaxis], dots, dims, alpha
        )
        exact = np.stack([exact_sq_distances(rows, c) for c in centers])
        below, above = assign_window(dims, alpha)
        assert np.isfinite(above)
        assert np.all(exact >= lb - below)
        assert np.all(exact <= lb + above)

    def test_window_is_theorem3s_at_the_benchmark_shape(self):
        below, above = assign_window(420, 1e6)
        eps = theorem3_error_bound(420, 1e6)
        assert 0.0 < below < 1e-9 and eps < above < eps + 1e-9

    def test_wrapping_dots_open_the_whole_line(self):
        # d * alpha**2 past the accumulator: the dots may wrap
        assert assign_window(2, 2.0**31) == (np.inf, np.inf)
        assert assign_window(420, 1e6, accumulator_bits=32) == (
            np.inf, np.inf,
        )
        assert np.isfinite(assign_window(420, 1e6, accumulator_bits=64)[1])


class TestCertifiedSweep:
    def test_a_score_outside_its_window_redoes_the_sweep(self, monkeypatch):
        rng = np.random.default_rng(4)
        rows, centers = rng.random((40, 8)), rng.random((6, 8))
        phi, phi_c, dots = _operands(rows, centers, 1e6)
        # a silently wrong dot product: the last center's bound of row 0
        # clamps to 0, so its window claims a win the exact score refutes
        dots[-1, 0] += int(np.ceil((phi[0] + phi_c[-1]) / 2.0)) + 1
        lb = theorem1_lower_bound(
            phi[np.newaxis, :], phi_c[:, np.newaxis], dots, 8, 1e6
        )
        assert lb[-1, 0] == 0.0
        windows = []
        sweep = kernels._certified_sweep

        def recording(lb, floats, c_norm, rows, below, above):
            windows.append((below, above))
            return sweep(lb, floats, c_norm, rows, below, above)

        monkeypatch.setattr(kernels, "_certified_sweep", recording)
        got = assign_sweep(phi, rows, dots, centers, phi_c, 8, 1e6)
        assert windows == [assign_window(8, 1e6), (np.inf, np.inf)]
        want = _loop_assign(lb, rows, centers)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]

    def test_benchmark_shape_matches_loop_oracle(self):
        # pimbench's assign-mix shape: the benchmark's own assign oracle
        # runs this kernel, so the loop oracle checks it here
        data = make_dataset("MSD", n=3000, seed=0)
        centers = initial_centers(data, 48, 0)
        fused, loop = (
            cls(data, n_shards=4) for cls in (ShardManager, LoopShardManager)
        )
        af, tf = fused.assign(centers)
        ar, tr = loop.assign(centers)
        assert np.array_equal(af.assignments, ar.assignments)
        assert af.distances.tobytes() == ar.distances.tobytes()
        assert (af.refined, af.pruned) == (ar.refined, ar.pruned)
        assert tf.service_ns == tr.service_ns

    def test_sweep_holds_one_shard_gather(self):
        # the scored rows are gathered one center at a time: beside the
        # (C, n) bounds the sweep never holds more than one shard-sized
        # gather, whatever the window
        n, dims, n_centers = 750, 420, 48
        rng = np.random.default_rng(0)
        rows, centers = rng.random((n, dims)), rng.random((n_centers, dims))
        peaks = []
        for alpha in (1e6, 8.0):
            phi, phi_c, dots = _operands(rows, centers, alpha)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assign_sweep(phi, rows, dots, centers, phi_c, dims, alpha)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        gather_bytes, bound_bytes = n * dims * 8, n_centers * n * 8
        for peak in peaks:
            assert peak <= gather_bytes + 4 * bound_bytes + (64 << 10), peak

"""Property-based tests: fused kernels equal the loop oracles bit for bit.

The fused whole-array kernels (vectorised bit-slicing, one-contraction
crossbar waves, exact BLAS array waves, block-scored serving
refinement) must be *bit-identical* — values, counts and simulated
timings — to the sequential loop implementations they replaced, which
live on as the :mod:`repro.oracle` classes. Integer paths are exact by
mod-2**64 ring algebra; float paths share one canonical scoring kernel
(:func:`repro.kernels.exact_sq_distances`) whose per-row values
are batch-independent. These properties are the contract that lets the
simulator run orders of magnitude faster without moving a single bit.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.integrity import append_checksum_row
from repro.faults.plan import FaultEvent, FaultPlan
from repro.hardware import bitslice
from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.crossbar import Crossbar
from repro.hardware.noise import NoiseModel, NoisyPIMArray
from repro.hardware.pim_array import PIMArray
from repro.oracle import (
    LoopPIMArray,
    LoopShardManager,
    _CanonicalHeap,
    crossbar_dot_loop,
    reconstruct_reference,
    shift_add_partials_reference,
    slice_operands_reference,
)
from repro.serving import ShardManager
from repro.kernels import (
    _canonical_prefix,
    assign_window,
    canonical_topk,
    exact_sq_distances,
    refine_topk,
)
from repro.serving.sharding import _SHARD_CPU_MEMO_SIZE
from repro.similarity.quantization import Quantizer


# ----------------------------------------------------------------------
# bitslice helpers: vectorised vs loop oracle
# ----------------------------------------------------------------------
class TestBitsliceFusion:
    @given(
        st.integers(min_value=1, max_value=63),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_slice_operands_matches_reference(self, bits, h, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**bits, size=(5, 7), dtype=np.int64)
        fused = bitslice.slice_operands(values, bits, h)
        loop = slice_operands_reference(values, bits, h)
        assert fused.dtype == loop.dtype
        assert np.array_equal(fused, loop)

    @given(
        st.integers(min_value=1, max_value=63),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruct_matches_reference(self, bits, h, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**bits, size=11, dtype=np.int64)
        slices = bitslice.slice_operands(values, bits, h)
        fused = bitslice.reconstruct(slices, h)
        loop = reconstruct_reference(slices, h)
        assert np.array_equal(fused, loop)
        assert np.array_equal(fused.astype(np.int64), values)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_add_matches_reference_with_wrap(
        self, n_op, n_in, h, g, seed
    ):
        # partials large enough that high slices shift into (and past)
        # the sign bit: the wrap-around must match the sequential loop
        rng = np.random.default_rng(seed)
        partials = rng.integers(
            -(2**62), 2**62, size=(n_op, n_in, 3, 4), dtype=np.int64
        )
        fused = bitslice.shift_add_partials(partials, h, g)
        loop = shift_add_partials_reference(partials, h, g)
        assert fused.dtype == loop.dtype == np.int64
        assert fused.shape == loop.shape
        assert np.array_equal(fused, loop)


# ----------------------------------------------------------------------
# crossbar wave: fused contraction vs per-input-slice loop
# ----------------------------------------------------------------------
@st.composite
def crossbar_cases(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cell_bits = draw(st.integers(min_value=1, max_value=4))
    dac_bits = draw(st.integers(min_value=1, max_value=4))
    operand_bits = draw(st.integers(min_value=1, max_value=12))
    slices = -(-operand_bits // cell_bits)
    cols = draw(st.integers(min_value=slices, max_value=4 * slices))
    n_vectors = draw(st.integers(min_value=1, max_value=cols // slices))
    dims = draw(st.integers(min_value=1, max_value=rows))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2**operand_bits, size=(n_vectors, dims))
    query = rng.integers(0, 2**operand_bits, size=dims)
    config = CrossbarConfig(
        rows=rows, cols=cols, cell_bits=cell_bits, dac_bits=dac_bits
    )
    return config, matrix, query, operand_bits


class TestCrossbarFusion:
    @given(crossbar_cases())
    @settings(max_examples=60, deadline=None)
    def test_fused_wave_matches_loop_oracle(self, case):
        config, matrix, query, bits = case
        xbar = Crossbar(config)
        xbar.program(matrix, operand_bits=bits)
        fused = xbar.dot_product(query, input_bits=bits)
        loop = crossbar_dot_loop(xbar, query, input_bits=bits)
        assert np.array_equal(fused.values, loop.values)
        assert fused.cycles == loop.cycles
        assert fused.adc_conversions == loop.adc_conversions


# ----------------------------------------------------------------------
# PIM array: BLAS wave vs cell-level crossbar loop
# ----------------------------------------------------------------------
@st.composite
def array_cases(draw):
    """A random small platform plus a matrix spanning >= 1 crossbar."""
    rows = draw(st.integers(min_value=2, max_value=10))
    cell_bits = draw(st.integers(min_value=1, max_value=3))
    dac_bits = draw(st.integers(min_value=1, max_value=3))
    # up to 32 bits: wide rows leave the fast path's single float64 dgemm
    operand_bits = draw(st.integers(min_value=1, max_value=32))
    slices = -(-operand_bits // cell_bits)
    cols = draw(st.integers(min_value=slices, max_value=6 * slices))
    hardware = HardwareConfig(
        pim=PIMArrayConfig(
            crossbar=CrossbarConfig(
                rows=rows, cols=cols, cell_bits=cell_bits, dac_bits=dac_bits
            ),
            capacity_bytes=1 << 22,
            operand_bits=operand_bits,
            accumulator_bits=draw(st.sampled_from([32, 64])),
        )
    )
    dims = draw(st.integers(min_value=1, max_value=3 * rows))
    n_vectors = draw(st.integers(min_value=1, max_value=20))
    batch = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2**operand_bits, size=(n_vectors, dims))
    if draw(st.booleans()):
        matrix = append_checksum_row(matrix, operand_bits)
    queries = rng.integers(0, 2**operand_bits, size=(batch, dims))
    return hardware, matrix, queries


def _pair(hardware, matrix):
    fast = PIMArray(hardware)
    loop = LoopPIMArray(hardware)
    for array in (fast, loop):
        array.program_matrix("m", matrix)
    return fast, loop


class TestArrayFusion:
    @given(array_cases())
    @settings(max_examples=40, deadline=None)
    def test_query_paths_bit_identical(self, case):
        hardware, matrix, queries = case
        fast, loop = _pair(hardware, matrix)
        got, want = (a.query("m", queries[0]) for a in (fast, loop))
        assert np.array_equal(got.values, want.values)
        assert got.timing.total_ns == want.timing.total_ns

    @given(array_cases())
    @settings(max_examples=30, deadline=None)
    def test_batch_paths_bit_identical(self, case):
        hardware, matrix, queries = case
        fast, loop = _pair(hardware, matrix)
        many = [a.query_many("m", queries) for a in (fast, loop)]
        batch = [a.query_batch("m", queries) for a in (fast, loop)]
        assert np.array_equal(many[0].values, many[1].values)
        assert np.array_equal(batch[0].values, batch[1].values)
        assert np.array_equal(batch[0].values, many[0].values)
        assert batch[0].timing.total_ns == batch[1].timing.total_ns
        # identical simulated time accounting on both paths
        assert fast.stats.pim_time_ns == loop.stats.pim_time_ns
        assert fast.stats.batch_saved_ns == loop.stats.batch_saved_ns

    @given(array_cases())
    @settings(max_examples=20, deadline=None)
    def test_narrow_input_bits_bit_identical(self, case):
        hardware, matrix, queries = case
        bits = max(1, hardware.pim.operand_bits // 2)
        narrow = queries[0] % (1 << bits)
        fast, loop = _pair(hardware, matrix)
        got, want = (
            a.query("m", narrow, input_bits=bits) for a in (fast, loop)
        )
        assert np.array_equal(got.values, want.values)
        assert got.timing.total_ns == want.timing.total_ns

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_hamming_binary_path_bit_identical(self, n_codes, dims, seed):
        # the Hamming distance path stores binary codes and their
        # complement: operand_bits=1, 32-bit accumulator
        hardware = HardwareConfig(
            pim=PIMArrayConfig(
                crossbar=CrossbarConfig(
                    rows=32, cols=32, cell_bits=2, dac_bits=1
                ),
                capacity_bytes=1 << 22,
                operand_bits=1,
                accumulator_bits=32,
            )
        )
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2, size=(n_codes, dims))
        query = rng.integers(0, 2, size=dims)
        fast, loop = _pair(hardware, codes)
        complement = 1 - codes
        for array in (fast, loop):
            array.program_matrix("c", complement)
        for name in ("m", "c"):
            got, want = (a.query(name, query) for a in (fast, loop))
            assert np.array_equal(got.values, want.values)
            assert got.timing.total_ns == want.timing.total_ns


# ----------------------------------------------------------------------
# fault and noise hooks survive fusion
# ----------------------------------------------------------------------
class TestFusionUnderFaultsAndNoise:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_wave_corruption_identical_across_paths(self, seed, plan_seed):
        from repro.faults.injectors import FaultyPIMArray

        hardware = HardwareConfig(
            pim=PIMArrayConfig(
                crossbar=CrossbarConfig(
                    rows=8, cols=8, cell_bits=2, dac_bits=2
                ),
                capacity_bytes=1 << 20,
                operand_bits=8,
                accumulator_bits=64,
            )
        )
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(9, 12))
        query = rng.integers(0, 256, size=12)
        plan = FaultPlan(
            [FaultEvent(t_ns=0.0, kind="wave_corrupt", target="array")],
            seed=plan_seed,
        )
        waves = []
        for inner in (PIMArray(hardware), LoopPIMArray(hardware)):
            FaultyPIMArray(inner, plan, "array")
            inner.program_matrix("m", matrix)
            waves.append(inner.query("m", query))
        # the hook corrupts whatever the pipeline produced; since
        # both pipelines produce identical bits and the fault RNG is
        # derived from the plan seed, the corrupted waves match too
        assert np.array_equal(waves[0].values, waves[1].values)
        assert waves[0].timing.total_ns == waves[1].timing.total_ns

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_noisy_waves_deterministic_per_seed(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(10, 16))
        query = rng.integers(0, 256, size=16)
        values = []
        for _ in range(2):
            array = NoisyPIMArray(
                noise=NoiseModel(cell_sigma=0.02, adc_step=1.0, seed=seed)
            )
            array.program_matrix("m", matrix)
            values.append(array.query("m", query).values)
        assert np.array_equal(values[0], values[1])


# ----------------------------------------------------------------------
# serving scatter/gather: fused block kernels vs per-candidate loops
# ----------------------------------------------------------------------
_CPU_MANAGER = []


def _cpu_manager() -> ShardManager:
    """One small manager shared across examples (its memo persists)."""
    if not _CPU_MANAGER:
        data = np.random.default_rng(0).random((32, 6))
        _CPU_MANAGER.append(ShardManager(data, n_shards=2))
    return _CPU_MANAGER[0]


@st.composite
def serving_cases(draw):
    # up to ~400 rows so a shard holds more than the fused scan's first
    # canonical prefix (about 4k rows); a coarse quantizer loosens the
    # bounds so the scan outruns that prefix and grows it; grid data
    # makes rows, bounds and scores tie at prefix boundaries
    n = draw(st.integers(min_value=8, max_value=400))
    dims = draw(st.integers(min_value=2, max_value=16))
    n_shards = draw(st.integers(min_value=1, max_value=4))
    batch = draw(st.integers(min_value=1, max_value=3))
    ks = draw(
        st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=batch,
            max_size=batch,
        )
    )
    approximate = draw(
        st.lists(st.booleans(), min_size=batch, max_size=batch)
    )
    placement = draw(st.sampled_from(["range", "hash"]))
    alpha = draw(st.sampled_from([None, 4.0, 8.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        data = rng.integers(0, 3, size=(n, dims)).astype(np.float64)
        queries = rng.integers(0, 3, size=(batch, dims)).astype(np.float64)
    else:
        data = rng.random((n, dims))
        queries = rng.random((batch, dims))
    return data, queries, n_shards, ks, approximate, placement, alpha


def _growth_case():
    """Loose bounds (coarse quantizer): each query refines hundreds of
    rows, so the fused scan must grow its canonical prefix repeatedly."""
    rng = np.random.default_rng(1)
    data = rng.random((400, 16))
    queries = rng.random((3, 16))
    approximate = [False, False, False]
    return data, queries, 1, [1, 3, 10], approximate, "range", 8.0


def _replicated_case():
    """120 rows on 4 range shards with two replicas per chunk, for the
    replicated-assign examples."""
    rng = np.random.default_rng(0)
    data = rng.random((120, 6))
    centers = rng.random((5, 6))
    return data, centers, 4, [1] * 5, [False] * 5, "range", None


def _assign_case(seed, alpha, grid):
    """150 rows and 9 centers on 3 range shards; ``grid`` data (values
    in {0, 0.5, 1}) makes distances tie."""
    rng = np.random.default_rng(seed)
    if grid:
        data = rng.integers(0, 3, size=(150, 8)).astype(np.float64)
        centers = rng.integers(0, 3, size=(9, 8)).astype(np.float64)
    else:
        data, centers = rng.random((150, 8)), rng.random((9, 8))
    return data, centers, 3, [1] * 9, [False] * 9, "range", alpha


#: alpha = 8: Theorem 3's window is wider than any distance, so every
#: refined pair is ambiguous and scored exactly
_ASSIGN_COARSE = _assign_case(0, 8.0, grid=False)
#: grid data: rows tie between centers, so the lowest index must win
_ASSIGN_TIES = _assign_case(1, None, grid=True)
#: alpha = 2**32 - 1: dot products can wrap int64, so the bounds bound
#: nothing and the window is the whole line
_ASSIGN_GUARD = _assign_case(2, float(2**32 - 1), grid=True)


def _refine_case(seed, k, size, subset, ties, n_stages=0):
    """One query's refine inputs: ``(floats, sel, gidx, lb, q_norm,
    stages)``. Bounds are the exact scores minus random slack (none up
    to loose), floored to a coarse grid so bounds tie; grid data makes
    scores tie too. Each finer stage is such a bound of its own."""
    rng = np.random.default_rng(seed)
    n_local = {
        "empty": 0,
        "at_most_k": int(rng.integers(1, k + 1)),
        "k_plus_1": k + 1,
        "large": int(rng.integers(k + 2, 300)),
    }[size]
    n_rows = n_local + (int(rng.integers(0, 20)) if subset else 0)
    dims = 6
    if ties:
        floats = rng.integers(0, 3, size=(n_rows, dims)) / 2.0
        q_norm = rng.integers(0, 3, size=dims) / 2.0
    else:
        floats = rng.random((n_rows, dims))
        q_norm = rng.random(dims)
    sel = rng.permutation(n_rows)[:n_local] if subset else None
    gidx = rng.permutation(4 * n_rows + 1)[:n_local].astype(np.int64)
    exact = exact_sq_distances(floats if sel is None else floats[sel], q_norm)

    def bound():
        slack = rng.random(n_local) * rng.choice([0.0, 0.05, 0.5, 2.0])
        return np.maximum(np.floor((exact - slack) * 8.0) / 8.0, 0.0)

    lb = bound()
    return floats, sel, gidx, lb, q_norm, [bound() for _ in range(n_stages)]


def _refine_loop(floats, sel, gidx, lb, q_norm, stages, k, sign):
    """The per-candidate walk the refine kernel replaces, in the
    problem's own direction: ``sign`` -1 turns every score into a
    similarity and every bound into an upper bound, which prune below
    the threshold. Returns ``([(score, gidx), ...], refined,
    stage_evals, stopped)``, scores best first."""
    rows = floats if sel is None else floats[sel]
    lb = sign * lb
    stages = [sign * stage for stage in stages]

    def prunes(value, threshold):
        return value > threshold if sign > 0 else value < threshold

    best = []  # (sign * score, gidx): the canonical k best
    refined, evals, stopped = 0, [0] * len(stages), False
    for j in np.lexsort((gidx, sign * lb)):
        full = len(best) == k
        threshold = sign * best[-1][0] if full else None
        if full and prunes(lb[j], threshold):
            stopped = True
            break  # sorted bounds: the rest prune too
        skipped = False
        for s, stage in enumerate(stages):
            evals[s] += 1
            if full and prunes(stage[j], threshold):
                skipped = True
                break
        if skipped:
            continue
        score = sign * float(exact_sq_distances(rows[j], q_norm)[0])
        best = sorted(best + [(sign * score, int(gidx[j]))])[:k]
        refined += 1
    return [(sign * v, g) for v, g in best], refined, evals, stopped


def _check_refine_kernel(case, k, sign=1.0):
    """Assert the kernel equals the loop; returns the loop's refined."""
    floats, sel, gidx, lb, q_norm, stages = case
    rows = floats if sel is None else floats[sel]

    # the problem's own values (similarities and upper bounds when sign
    # is -1), handed over sign-adjusted as FilteredKNN hands them
    def native_scores(at):
        return sign * exact_sq_distances(rows[at], q_norm)

    native_stages = [sign * stage for stage in stages]
    scores, top, exact, stage_evals, stopped = refine_topk(
        lambda at: sign * native_scores(at),
        sign * (sign * lb),
        gidx,
        k,
        [lambda at, v=v: sign * v[at] for v in native_stages],
    )
    best, refined, evals, loop_stopped = _refine_loop(*case, k, sign)
    assert exact == refined
    assert stage_evals == evals
    assert stopped == loop_stopped
    assert list(zip((sign * scores).tolist(), top.tolist())) == best
    return refined


_REFINE_SIZES = ["empty", "at_most_k", "k_plus_1", "large"]


def _boundary_case(seed):
    """Tight bounds on small grid data, one shard, one exact query."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    dims = int(rng.integers(2, 6))
    ks = [int(rng.integers(1, 8))]
    data = rng.integers(0, 3, size=(n, dims)).astype(np.float64)
    queries = rng.integers(0, 3, size=(1, dims)).astype(np.float64)
    return data, queries, 1, ks, [False], "range", None


#: the (k+1)-th bound equals the k-th best score: the strict ``>`` must
#: refine that row rather than stop at it
_BOUND_EQUALS_KTH = _boundary_case(3)
#: more than k+1 rows share the (k+1)-th bound, so the canonical prefix
#: holds more rows than the fast path scores
_BOUNDARY_TIES = _boundary_case(18)


def _managers(case, **kwargs):
    """The fused manager and its loop oracle."""
    data, _, n_shards, _, _, placement, alpha = case
    return tuple(
        cls(
            data,
            n_shards=n_shards,
            placement=placement,
            quantizer=None if alpha is None else Quantizer(alpha),
            **kwargs,
        )
        for cls in (ShardManager, LoopShardManager)
    )


class TestServingFusion:
    @given(serving_cases())
    @example(_growth_case())
    @example(_BOUND_EQUALS_KTH)
    @example(_BOUNDARY_TIES)
    @settings(max_examples=20, deadline=None)
    def test_knn_batch_matches_reference_loops(self, case):
        _, queries, _, ks, approximate, _, _ = case
        fused, loop = _managers(case)
        af, tf = fused.knn_batch(queries, ks, approximate)
        ar, tr = loop.knn_batch(queries, ks, approximate)
        for x, y in zip(af, ar):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)
            assert x.refined == y.refined
            assert x.pruned == y.pruned
            assert x.approximate == y.approximate
        assert tf.service_ns == tr.service_ns
        assert tf.per_shard_cpu_ns == tr.per_shard_cpu_ns
        assert tf.merge_cpu_ns == tr.merge_cpu_ns

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=15),
        st.sampled_from(_REFINE_SIZES),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_refine_kernel_matches_loop(
        self, seed, k, size, subset, ties, n_stages, sign
    ):
        """Coarse keys, 0-2 finer stages, lower or upper bounds."""
        case = _refine_case(seed, k, size, subset, ties, n_stages)
        _check_refine_kernel(case, k, sign)

    def test_refine_kernel_takes_both_paths(self):
        # the fast path stops right after the first k rows; the general
        # path binary-searches a later stop (or scores every row)
        paths = {"fast": 0, "general": 0}
        for seed in range(120):
            k = 1 + seed % 15
            size = _REFINE_SIZES[2 + seed % 2]  # n_local > k
            case = _refine_case(seed, k, size, seed % 3 == 0, seed % 5 < 3)
            refined = _check_refine_kernel(case, k)
            paths["fast" if refined == k else "general"] += 1
        assert paths["fast"] > 0 and paths["general"] > 0, paths

    def test_boundary_examples_reach_their_edge(self):
        seen = []

        class Recording(ShardManager):
            def _refine_scan(self, shard, sel, gidx, lb, q_norm, k):
                scores = exact_sq_distances(shard.floats, q_norm)
                seen.append((lb, gidx, scores, k))
                return super()._refine_scan(shard, sel, gidx, lb, q_norm, k)

        for case in (_BOUND_EQUALS_KTH, _BOUNDARY_TIES):
            data, queries, _, ks, approximate, _, _ = case
            seen.clear()
            Recording(data, n_shards=1).knn_batch(queries, ks, approximate)
            ((lb, gidx, scores, k),) = seen
            order = np.lexsort((gidx, lb))
            bound = lb[order[k]]
            if case is _BOUND_EQUALS_KTH:
                assert bound == np.sort(scores[order[:k]])[k - 1]
            else:
                assert bound > 0 and np.count_nonzero(lb == bound) > k + 1

    @given(serving_cases())
    @example(_ASSIGN_COARSE)
    @example(_ASSIGN_TIES)
    @example(_ASSIGN_GUARD)
    @settings(max_examples=15, deadline=None)
    def test_assign_matches_reference_loops(self, case):
        centers = case[1]
        fused, loop = _managers(case)
        bf, tf = fused.assign(centers)
        br, tr = loop.assign(centers)
        assert np.array_equal(bf.assignments, br.assignments)
        assert np.array_equal(bf.distances, br.distances)
        assert bf.refined == br.refined
        assert bf.pruned == br.pruned
        assert tf.service_ns == tr.service_ns

    @given(
        serving_cases(),
        st.integers(min_value=3, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0.0, 5e4, 1.5e5]),
    )
    @example(_replicated_case(), 4, 1, 5e4)
    @settings(max_examples=15, deadline=None)
    def test_replicated_assign_matches_reference_loops(
        self, case, n_shards, victim, crash_ns
    ):
        # two replicas per chunk: before the crash each shard serves
        # only its own chunk (a row subset, ``sel``), after it a
        # survivor serves the victim's chunk too
        centers = case[1]
        case = (case[0], centers, n_shards, *case[3:])
        plan = FaultPlan(
            [
                FaultEvent(
                    t_ns=crash_ns,
                    kind="shard_crash",
                    target=f"shard{victim % n_shards}",
                )
            ]
        )
        fused, loop = _managers(case, replication=2, fault_plan=plan)
        for now_ns in (0.0, 1e5, 2e5):
            bf, tf = fused.assign(centers, now_ns=now_ns)
            br, tr = loop.assign(centers, now_ns=now_ns)
            assert np.array_equal(bf.assignments, br.assignments)
            assert np.array_equal(
                bf.distances.view(np.int64), br.distances.view(np.int64)
            )
            assert bf.refined == br.refined
            assert bf.pruned == br.pruned
            assert tf.service_ns == tr.service_ns

    def test_assign_examples_reach_their_edge(self):
        def distances(case):
            data, centers = case[:2]
            quantizer = ShardManager(data, n_shards=3).quantizer
            c_norm = quantizer.normalize(centers)
            return np.stack(
                [exact_sq_distances(c_norm, x)
                 for x in quantizer.normalize(data)]
            )

        # the coarse window is wider than every distance: no update is
        # ever certain, so every refined pair is scored
        dims = _ASSIGN_COARSE[0].shape[1]
        assert distances(_ASSIGN_COARSE).max() < assign_window(dims, 8.0)[1]
        d = distances(_ASSIGN_TIES)
        assert (np.sum(d == d.min(axis=1, keepdims=True), axis=1) > 1).any()
        assert assign_window(dims, _ASSIGN_GUARD[-1]) == (np.inf, np.inf)

    def test_replicated_assign_serves_chunk_subsets(self):
        # the example above reaches both branches of the assist's
        # ``sel``: a shard serving one of its chunks, and one serving all
        seen = []

        class Recording(ShardManager):
            def _assign_rows(self, shard, sel, *args):
                seen.append(sel is None)
                return super()._assign_rows(shard, sel, *args)

        data, centers = _replicated_case()[:2]
        plan = FaultPlan(
            [FaultEvent(t_ns=5e4, kind="shard_crash", target="shard1")]
        )
        manager = Recording(data, n_shards=4, replication=2, fault_plan=plan)
        for now_ns in (0.0, 1e5, 2e5):
            manager.assign(centers, now_ns=now_ns)
        assert False in seen and True in seen

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=8),
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
        st.sampled_from([np.float64, np.float32]),
        st.integers(min_value=0, max_value=2**31),
    )
    @example(1, 3, [0], np.float64, 0)  # one row
    @example(5, 3, [], np.float64, 0)  # no positions
    @example(5, 3, [2, 2, 0, 2], np.float64, 0)  # repeated positions
    @settings(max_examples=80, deadline=None)
    def test_positions_score_like_gathered_rows(
        self, n, dims, picks, dtype, seed
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.random((n, dims)).astype(dtype)
        query = rng.random(dims)
        at = np.array([p % n for p in picks], dtype=np.int64)
        before = matrix.copy()
        got = exact_sq_distances(matrix, query, at)
        want = exact_sq_distances(matrix[at], query)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert matrix.tobytes() == before.tobytes()

    @staticmethod
    def _storage_digest(manager):
        digest = hashlib.sha256()
        for shard in manager.shards:
            digest.update(shard.floats.tobytes())
            digest.update(shard.phi.tobytes())
        return digest.hexdigest()

    def test_serving_never_writes_shard_storage(self):
        # an in-place subtract on a view of a shard's rows would corrupt
        # every later answer: the stored bytes must never change
        rng = np.random.default_rng(3)
        data = rng.random((160, 8))
        queries = rng.random((4, 8))
        faulted = FaultPlan(
            [
                FaultEvent(t_ns=4e4, kind="shard_crash", target="shard2"),
                FaultEvent(
                    t_ns=0.0,
                    kind="wave_corrupt",
                    target="shard0",
                    duration_ns=1e9,
                    params={"probability": 0.5},
                ),
            ],
            seed=1,
        )
        # every shard down: each chunk is recomputed host-side
        down = FaultPlan(
            [
                FaultEvent(t_ns=0.0, kind="shard_crash", target=f"shard{s}")
                for s in range(4)
            ]
        )
        for kwargs in (
            {},
            {"replication": 2, "fault_plan": faulted},
            {"fault_plan": down},
        ):
            manager = ShardManager(data, n_shards=4, **kwargs)
            before = self._storage_digest(manager)
            for now_ns in (0.0, 1e5):
                manager.knn_batch(queries, [1, 3, 5, 10], now_ns=now_ns)
                manager.assign(queries, now_ns=now_ns)
                assert self._storage_digest(manager) == before

    @given(serving_cases())
    @settings(max_examples=10, deadline=None)
    def test_degraded_chunks_match_reference_loops(self, case):
        # crash every shard permanently: every chunk degrades to the
        # host-side recompute, exercising the fused degrade kernels
        _, queries, n_shards, ks, _, _, _ = case
        plan = FaultPlan(
            [
                FaultEvent(
                    t_ns=0.0, kind="shard_crash", target=f"shard{s}"
                )
                for s in range(n_shards)
            ]
        )
        managers = _managers(case, fault_plan=plan)
        af, tf = managers[0].knn_batch(queries, ks)
        ar, tr = managers[1].knn_batch(queries, ks)
        for x, y in zip(af, ar):
            assert x.degraded and y.degraded
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)
            assert x.refined == y.refined
        assert tf.service_ns == tr.service_ns
        bf, _ = managers[0].assign(queries)
        br, _ = managers[1].assign(queries)
        assert np.array_equal(bf.assignments, br.assignments)
        assert np.array_equal(bf.distances, br.distances)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=400),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_prefix_is_exact_lexsort_prefix(
        self, n, m, ties, seed
    ):
        rng = np.random.default_rng(seed)
        lb = (
            rng.integers(0, 4, size=n).astype(np.float64)
            if ties else rng.random(n)
        )
        gidx = rng.permutation(3 * n)[:n].astype(np.int64)
        out = _canonical_prefix(lb, gidx, m)
        assert out.size >= min(m, n)
        assert np.array_equal(out, np.lexsort((gidx, lb))[: out.size])

    @given(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=90
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_prefix_is_exact_for_every_m(self, values, seed):
        # a four-value alphabet: the m-th bound ties across the head's
        # boundary for most m, and inside the head for all of them
        lb = np.array(values, dtype=np.float64)
        n = lb.size
        gidx = np.random.default_rng(seed).permutation(3 * n)[:n]
        want = np.lexsort((gidx, lb))
        for m in range(1, n + 2):
            out = _canonical_prefix(lb, gidx, m)
            assert out.size >= min(m, n)
            assert np.array_equal(out, want[: out.size])

    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=60),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    # the k-th smallest value ties across the partition boundary
    @example([0.5, 0.0, 0.5, 1.0, 0.5, 0.0, 0.5], 3, 0)
    @example([0.5, 0.0, 0.5, 1.0, 0.5, 0.0, 0.5], 5, 1)
    def test_canonical_topk_equals_lexsort_and_heap(self, values, k, seed):
        # a three-value alphabet makes ties the common case
        values = np.array(values, dtype=np.float64)
        n = values.size
        gidx = np.random.default_rng(seed).permutation(3 * n)[:n]
        want = np.lexsort((gidx, values))[:k]
        assert np.array_equal(_canonical_prefix(values, gidx, k)[:k], want)
        expected = [(float(values[j]), int(gidx[j])) for j in want]
        heap = _CanonicalHeap(k)
        for v, g in zip(values.tolist(), gidx.tolist()):
            heap.offer(v, g)
        assert heap.sorted_items() == expected
        scores, top = canonical_topk(values, gidx, k)
        assert list(zip(scores.tolist(), top.tolist())) == expected

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoised_shard_cpu_ns_equals_model(
        self, n_local, queries, refined
    ):
        manager = _cpu_manager()
        model = manager._shard_cpu_model_ns(n_local, queries, refined)
        assert manager._shard_cpu_ns(n_local, queries, refined) == model
        # a second call is served from the memo
        assert manager._shard_cpu_ns(n_local, queries, refined) == model

    def test_shard_cpu_memo_stays_bounded(self):
        manager = ShardManager(np.random.default_rng(0).random((16, 4)))
        for refined in range(_SHARD_CPU_MEMO_SIZE + 10):
            ns = manager._shard_cpu_ns(100, 2, refined)
            assert len(manager._shard_cpu_memo) <= _SHARD_CPU_MEMO_SIZE
            assert ns == manager._shard_cpu_model_ns(100, 2, refined)

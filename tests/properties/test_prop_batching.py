"""Property-based tests: batched execution is exact.

The batched engine's contract is the paper's core claim restated for
multi-query waves: batching changes *when* waves fire and what setup
they amortize, never *what* they compute. Under random datasets,
measures and batch sizes:

* on both substrates, :meth:`~repro.hardware.pim_array.Substrate.query_batch`
  and ``query_many`` return bit-identical values to a sequential
  ``query`` loop and book the same logical waves, stats, per-matrix
  state and buffer traffic (a batch differing only by its saving);
* every PIM kNN variant's ``query_batch`` reproduces the sequential
  ``query`` loop exactly (indices, score ordering, wave counts);
* the :class:`BatchScheduler` delivers the same values regardless of
  how submissions interleave or which flush trigger fires;
* a batch of B is never slower than B single waves (and strictly
  faster for B >= 2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import BatchScheduler
from repro.hardware.controller import PIMController
from repro.hardware.timing import PIPELINE_DRAIN_CYCLES, batch_wave_timing
from repro.mining.knn.hamming import PIMHammingKNN, binary_pim_platform
from repro.mining.knn.pim import make_pim_variant


@st.composite
def dataset_and_queries(draw):
    """Random [0,1] data plus a small multi-query workload."""
    n = draw(st.integers(min_value=3, max_value=40))
    dims = draw(st.sampled_from([8, 16, 24, 32]))
    n_queries = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    data = rng.random((n, dims))
    queries = rng.random((n_queries, dims))
    return data, queries


SUBSTRATES = ["crossbar", "hbm_pim"]


def _programmed_pair(data, substrate="crossbar"):
    """Two controllers with the same integer matrix programmed."""
    matrix = np.floor(data * 255).astype(np.int64)
    seq = PIMController(substrate=substrate)
    bat = PIMController(substrate=substrate)
    seq.pim.program_matrix("d", matrix)
    bat.pim.program_matrix("d", matrix)
    return matrix, seq, bat


class TestArrayLevelEquivalence:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @given(dataset_and_queries())
    @settings(max_examples=25, deadline=None)
    def test_query_batch_matches_sequential_queries(self, substrate, case):
        data, queries = case
        matrix, seq, bat = _programmed_pair(data, substrate)
        ints = np.floor(queries * 255).astype(np.int64)

        sequential = np.vstack([seq.pim.query("d", q).values for q in ints])
        batch = bat.pim.query_batch("d", ints)

        assert np.array_equal(sequential, batch.values)
        assert batch.values.dtype == sequential.dtype

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @given(dataset_and_queries())
    @settings(max_examples=25, deadline=None)
    def test_query_batch_books_same_logical_waves(self, substrate, case):
        data, queries = case
        matrix, seq, bat = _programmed_pair(data, substrate)
        ints = np.floor(queries * 255).astype(np.int64)

        for q in ints:
            seq.pim.query("d", q)
        bat.pim.query_batch("d", ints)

        assert bat.pim.stats.waves == seq.pim.stats.waves
        assert (
            bat.pim.stats.results_produced == seq.pim.stats.results_produced
        )
        assert bat.pim.stats.batches == 1
        assert bat.pim.stats.batched_queries == len(ints)

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @given(dataset_and_queries())
    @settings(max_examples=25, deadline=None)
    def test_batch_never_slower_than_sequential(self, substrate, case):
        data, queries = case
        matrix, seq, bat = _programmed_pair(data, substrate)
        ints = np.floor(queries * 255).astype(np.int64)

        for q in ints:
            seq.pim.query("d", q)
        bat.pim.query_batch("d", ints)

        seq_ns = seq.pim.stats.pim_time_ns
        bat_ns = bat.pim.stats.pim_time_ns
        if len(ints) == 1:
            assert bat_ns == seq_ns
        else:
            assert bat_ns < seq_ns
        assert np.isclose(
            bat.pim.stats.batch_saved_ns, seq_ns - bat_ns, atol=1e-6
        )

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @pytest.mark.parametrize("style", ["query_many", "query_batch"])
    @given(dataset_and_queries())
    @settings(max_examples=15, deadline=None)
    def test_style_books_like_a_query_loop(self, style, substrate, case):
        """Values, every PIMStats field, the matrix state and the buffer
        bytes of one dispatch equal a ``query`` loop's; a batch differs
        only by its saving and by opening each bank's rows once."""
        data, queries = case
        matrix, seq, other = _programmed_pair(data, substrate)
        ints = np.floor(queries * 255).astype(np.int64)
        n, batch = len(ints), style == "query_batch"

        loop = np.vstack([seq.pim.query("d", q).values for q in ints])
        result = getattr(other.pim, style)("d", ints)

        assert np.array_equal(result.values, loop)
        want, got = seq.pim.stats, other.pim.stats
        for name in (
            "waves", "programming_time_ns", "crossbars_used",
            "results_produced", "remaps", "matrices", "backend",
        ):
            assert getattr(got, name) == getattr(want, name), name
        assert got.pim_time_ns + got.batch_saved_ns == pytest.approx(
            want.pim_time_ns, rel=1e-12
        )
        assert (got.batches, got.batched_queries) == (
            (1, n) if batch else (0, 0)
        )
        if not batch:
            assert got.batch_saved_ns == 0.0
        extra = dict(got.extra)
        if batch and "row_activations" in extra:
            extra["row_activations"] *= n
        assert extra == want.extra
        state = got.per_matrix["d"]
        assert state.waves == want.per_matrix["d"].waves
        assert (state.batches, state.batched_queries) == (
            got.batches, got.batched_queries,
        )
        assert state.pim_time_ns == got.pim_time_ns
        assert (
            other.pim.buffer.total_bytes_written,
            other.pim.buffer.total_bytes_read,
        ) == (seq.pim.buffer.total_bytes_written, seq.pim.buffer.total_bytes_read)


class TestKNNVariantEquivalence:
    """query_batch == sequential query loop for every PIM kNN variant."""

    def _check(self, variant, data, queries, k, measure="euclidean"):
        n, dims = data.shape
        seq_algo = make_pim_variant(
            variant, dims, n, measure=measure, controller=PIMController()
        )
        bat_algo = make_pim_variant(
            variant, dims, n, measure=measure, controller=PIMController()
        )
        seq_algo.fit(data)
        bat_algo.fit(data)

        sequential = [seq_algo.query(q, k) for q in queries]
        batched = bat_algo.query_batch(queries, k)

        assert len(batched) == len(sequential)
        for rs, rb in zip(sequential, batched):
            assert np.array_equal(rb.indices, rs.indices)
            assert np.array_equal(rb.scores, rs.scores)
            assert rb.exact_computations == rs.exact_computations
        assert (
            bat_algo.controller.pim.stats.waves
            == seq_algo.controller.pim.stats.waves
        )

    @given(
        dataset_and_queries(),
        st.sampled_from(["euclidean", "cosine", "pearson"]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_standard_pim(self, case, measure, k):
        data, queries = case
        self._check("Standard-PIM", data, queries, k, measure=measure)

    @given(dataset_and_queries(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_ost_pim(self, case, k):
        data, queries = case
        self._check("OST-PIM", data, queries, k)

    @given(dataset_and_queries(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_sm_pim(self, case, k):
        data, queries = case
        self._check("SM-PIM", data, queries, k)

    @given(dataset_and_queries(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_fnn_pim(self, case, k):
        data, queries = case
        self._check("FNN-PIM", data, queries, k)

    @given(
        st.integers(min_value=4, max_value=24),
        st.sampled_from([16, 32, 64]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_hamming_pim(self, n, dims, n_queries, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=(n, dims), dtype=np.int64)
        queries = rng.integers(0, 2, size=(n_queries, dims), dtype=np.int64)
        k = min(3, n)

        seq_algo = PIMHammingKNN(PIMController(binary_pim_platform()))
        bat_algo = PIMHammingKNN(PIMController(binary_pim_platform()))
        seq_algo.fit(data)
        bat_algo.fit(data)

        sequential = [seq_algo.query(q, k) for q in queries]
        batched = bat_algo.query_batch(queries, k)

        for rs, rb in zip(sequential, batched):
            assert np.array_equal(rb.indices, rs.indices)
            assert np.array_equal(rb.scores, rs.scores)
        assert (
            bat_algo.controller.pim.stats.waves
            == seq_algo.controller.pim.stats.waves
        )


class TestSchedulerEquivalence:
    @given(
        dataset_and_queries(),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_scheduler_values_match_direct_dispatch(self, case, max_batch):
        data, queries = case
        matrix, direct, batched = _programmed_pair(data)
        ints = np.floor(queries * 255).astype(np.int64)

        scheduler = BatchScheduler(batched, max_batch=max_batch)
        tickets = [scheduler.submit("d", q) for q in ints]
        scheduler.flush()

        for q, ticket in zip(ints, tickets):
            assert ticket.done
            assert np.array_equal(ticket.values, direct.pim.query("d", q).values)
        assert batched.pim.stats.waves == len(ints)

    @given(dataset_and_queries())
    @settings(max_examples=15, deadline=None)
    def test_demand_flush_matches_direct_dispatch(self, case):
        data, queries = case
        matrix, direct, batched = _programmed_pair(data)
        ints = np.floor(queries * 255).astype(np.int64)

        scheduler = BatchScheduler(batched, max_batch=64)
        tickets = [scheduler.submit("d", q) for q in ints]
        # Reading any ticket's values forces its group to flush.
        for q, ticket in zip(ints, tickets):
            assert np.array_equal(ticket.values, direct.pim.query("d", q).values)
        assert scheduler.stats.queries_flushed == len(ints)


class TestTimingModelProperties:
    @given(
        st.integers(min_value=1, max_value=12),
        dataset_and_queries(),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_timing_vs_b_single_waves(self, b, case):
        data, _ = case
        controller = PIMController()
        matrix = np.floor(data * 255).astype(np.int64)
        layout = controller.pim.program_matrix("d", matrix)
        pim = controller.pim

        single = batch_wave_timing(layout, pim.config, pim.hardware, 1)
        batch = batch_wave_timing(
            layout, pim.config, pim.hardware, n_queries=b
        )
        assert single.total_cycles == (
            single.per_query_cycles
            + layout.gather_levels - 1
            + PIPELINE_DRAIN_CYCLES
        )
        if b == 1:
            assert batch == single
        else:
            assert batch.total_ns < b * single.total_ns
            assert batch.amortized_ns_per_query < single.total_ns

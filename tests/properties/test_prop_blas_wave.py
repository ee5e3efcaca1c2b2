"""Property-based tests: the exact float64-BLAS wave equals int64 arithmetic.

:class:`repro.hardware.bitslice.ExactMatrix` runs every default-path wave
on ``dgemm``. Non-negative integer operands keep every partial sum at or
below the final dot product, so a row whose ``max(query) * row_sum`` is
at most ``2**53`` is exact in float64 whatever order BLAS sums in; wider
rows are recomputed with the int64 matmul, which wraps mod 2**64. These
properties pin the result to the int64 matmul — checksum rows, wrap past
2**64, the int64 fallback and batch composition included — bound the
transposed build to one full-size copy, and pin the banked substrate's
fast path to its instruction-stream oracle. The
crossbar substrate's fast path is pinned to its cell-level oracles by
the fusion suite.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.integrity import append_checksum_row
from repro.hardware import bitslice
from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.oracle import LoopHBMPIMArray
from repro.substrate.hbm_pim import HBMPIMArray


def int64_oracle(queries, matrix, accumulator_bits):
    """The pre-BLAS fast path: one int64 matmul, then truncation."""
    return bitslice.truncate_result(
        queries.astype(np.int64) @ np.asarray(matrix).astype(np.int64).T,
        accumulator_bits,
    )


def blas_wave(queries, matrix, accumulator_bits):
    raw = bitslice.ExactMatrix(matrix).dot(queries, int(queries.max()))
    return bitslice.truncate_result(raw, accumulator_bits)


@st.composite
def wave_cases(draw):
    operand_bits = draw(st.integers(min_value=1, max_value=32))
    accumulator_bits = draw(st.sampled_from([32, 64]))
    n_vectors = draw(st.integers(min_value=1, max_value=12))
    dims = draw(st.integers(min_value=1, max_value=24))
    batch = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    high = 1 << operand_bits
    matrix = rng.integers(0, high, size=(n_vectors, dims), dtype=np.int64)
    if draw(st.booleans()):
        matrix = append_checksum_row(matrix, operand_bits)
    queries = rng.integers(0, high, size=(batch, dims), dtype=np.int64)
    return matrix, queries, operand_bits, accumulator_bits


class TestExactMatrix:
    @given(wave_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_int64_matmul(self, case):
        matrix, queries, _, acc = case
        want = int64_oracle(queries, matrix, acc)
        got = blas_wave(queries, matrix, acc)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @given(
        st.integers(min_value=28, max_value=32),
        st.integers(min_value=32, max_value=64),
        st.sampled_from([32, 64]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_checksum_row_takes_int64_path(self, bits, dims, acc, seed):
        # narrow data rows share one dgemm; the wide rows (one large data
        # row and the checksum row) are recomputed with the int64 matmul
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 9, size=(7, dims), dtype=np.int64)
        # the other rows add < 2**12, so the column sums never wrap and
        # the checksum row stays as wide as this row
        data[0] = (1 << bits) - (1 << 12)
        matrix = append_checksum_row(data, bits)
        queries = rng.integers(0, 1 << bits, size=(3, dims), dtype=np.int64)
        queries[0, 0] = (1 << bits) - 1
        wave = bitslice.ExactMatrix(matrix)
        peak = int(queries.max())
        assert wave.row_sum_max * peak > bitslice.FLOAT64_EXACT_MAX
        assert int(wave.row_sums.min()) * peak <= bitslice.FLOAT64_EXACT_MAX
        assert np.array_equal(
            bitslice.truncate_result(wave.dot(queries, peak), acc),
            int64_oracle(queries, matrix, acc),
        )

    @given(
        st.integers(min_value=31, max_value=32),
        st.integers(min_value=8, max_value=40),
        st.sampled_from([32, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_dot_past_2_64_wraps_like_int64(self, bits, dims, acc):
        # every row is wide, so the whole wave runs on the int64 matmul
        top = (1 << bits) - 1
        matrix = np.full((3, dims), top, dtype=np.int64)
        queries = np.full((2, dims), top, dtype=np.int64)
        true_dot = dims * top * top
        assert true_dot >= 1 << 64
        got = blas_wave(queries, matrix, acc)
        assert np.array_equal(got, int64_oracle(queries, matrix, acc))
        wrapped = true_dot % (1 << 64)
        want = wrapped % (1 << acc) if acc < 64 else wrapped
        assert int(got.view(np.uint64)[0, 0]) == want

    @given(
        st.integers(min_value=54, max_value=63),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_wide_operands_keep_int64_storage(self, bits, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(1 << 53, 1 << bits, size=(4, 5), dtype=np.int64)
        queries = rng.integers(0, 1 << bits, size=(2, 5), dtype=np.int64)
        wave = bitslice.ExactMatrix(matrix)
        assert wave.row_sums is None and wave.values.dtype == np.int64
        assert np.array_equal(
            wave.dot(queries, int(queries.max())), queries @ matrix.T
        )

    @given(wave_cases())
    @settings(max_examples=60, deadline=None)
    def test_row_in_batch_equals_row_alone(self, case):
        # a lone query has a smaller max, so fewer of its rows may be wide
        matrix, queries = case[:2]
        wave = bitslice.ExactMatrix(matrix)
        batch = wave.dot(queries, int(queries.max()))
        for i, query in enumerate(queries):
            alone = wave.dot(query[np.newaxis, :], int(query.max()))
            assert np.array_equal(batch[i], alone[0])

    @given(wave_cases())
    @settings(max_examples=40, deadline=None)
    def test_to_int64_round_trips(self, case):
        matrix = case[0]
        back = bitslice.ExactMatrix(matrix).to_int64()
        assert back.dtype == np.int64 and back.flags.c_contiguous
        assert np.array_equal(back, matrix)

    def test_build_holds_one_copy(self):
        # the (dims, n) float64 copy is built block by block from the
        # source: casting first and then transposing would hold a second
        # full-size buffer at once
        n, dims = 2000, 500
        matrix = np.random.default_rng(0).integers(
            0, 256, size=(n, dims), dtype=np.int64
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            wave = bitslice.ExactMatrix(matrix)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert wave.values.shape == (dims, n)
        assert wave.values.flags.c_contiguous
        copy_bytes, row_sum_bytes = n * dims * 8, n * 8
        assert peak <= copy_bytes + row_sum_bytes + (64 << 10), peak


# ----------------------------------------------------------------------
# banked substrate fast path vs its instruction-stream oracle
# ----------------------------------------------------------------------
def _platform(operand_bits, accumulator_bits):
    return HardwareConfig(
        pim=PIMArrayConfig(
            crossbar=CrossbarConfig(
                rows=8, cols=64, cell_bits=2, dac_bits=2,
                read_latency_ns=10.0,
            ),
            capacity_bytes=1 << 20,
            operand_bits=operand_bits,
            accumulator_bits=accumulator_bits,
        )
    )


class TestHBMFastPath:
    @pytest.mark.parametrize("acc", [32, 64])
    def test_wrapping_dot_agrees_with_instruction_stream(self, acc):
        # 2**29 * 2**30 per element: each 8-element burst's MAC stays
        # below 2**63, but the accumulator passes it on the second burst
        # and the total wraps mod 2**64; the oracle wraps silently
        platform = _platform(32, acc)
        matrix = np.full((3, 24), 1 << 29, dtype=np.int64)
        queries = np.full((2, 24), 1 << 30, dtype=np.int64)
        fast = HBMPIMArray(platform)
        oracle = LoopHBMPIMArray(platform)
        fast.program_matrix("m", matrix)
        oracle.program_matrix("m", matrix)
        got = fast.query_batch("m", queries).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = oracle.query_batch("m", queries).values
        assert np.array_equal(got, want)
        wrapped = (24 << 59) % (1 << 64) % (1 << acc)
        assert (got.view(np.uint64) == wrapped).all()

    @given(wave_cases())
    @settings(max_examples=40, deadline=None)
    def test_hbm_pim_matches_instruction_stream_oracle(self, case):
        matrix, queries, bits, acc = case
        platform = _platform(bits, acc)
        fast = HBMPIMArray(platform)
        oracle = LoopHBMPIMArray(platform)
        fast.program_matrix("m", matrix)
        oracle.program_matrix("m", matrix)
        got = fast.query_batch("m", queries)
        want = oracle.query_batch("m", queries)
        assert np.array_equal(got.values, want.values)
        assert got.timing == want.timing
        assert np.array_equal(
            fast.query("m", queries[0]).values, want.values[0]
        )
        assert np.array_equal(
            fast.query_many("m", queries).values, want.values
        )

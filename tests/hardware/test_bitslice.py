"""Unit tests for operand bit-slicing (Fig. 2 semantics)."""

import numpy as np
import pytest

from repro.errors import OperandError
from repro.hardware import bitslice


class TestCheckNonNegativeIntegers:
    def test_accepts_valid_operands(self):
        # the largest value comes back for the exact wave kernel
        assert bitslice.check_non_negative_integers(np.array([0, 5, 63]), 6) == 63

    def test_rejects_floats(self):
        with pytest.raises(OperandError, match="integer dtype"):
            bitslice.check_non_negative_integers(np.array([1.5]), 6)

    def test_rejects_negative(self):
        with pytest.raises(OperandError, match="non-negative"):
            bitslice.check_non_negative_integers(np.array([-1]), 6)

    def test_rejects_too_wide(self):
        with pytest.raises(OperandError, match="exceeds 6-bit"):
            bitslice.check_non_negative_integers(np.array([64]), 6)

    def test_empty_array_passes(self):
        empty = np.array([], dtype=np.int64)
        assert bitslice.check_non_negative_integers(empty, 6) == 0


class TestNumSlices:
    def test_exact_division(self):
        assert bitslice.num_slices(6, 2) == 3

    def test_rounds_up(self):
        assert bitslice.num_slices(7, 2) == 4

    def test_one_bit_operand(self):
        assert bitslice.num_slices(1, 2) == 1

    def test_rejects_zero_width(self):
        with pytest.raises(OperandError):
            bitslice.num_slices(0, 2)


class TestSliceReconstructRoundTrip:
    def test_paper_example(self):
        # the paper's Fig. 2: 25 = 0b011001 on 2-bit cells -> [01, 10, 01]
        slices = bitslice.slice_operands(np.array([25]), 6, 2)
        assert slices.tolist() == [[1, 2, 1]]

    def test_round_trip_matrix(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**12, size=(5, 7))
        slices = bitslice.slice_operands(values, 12, 3)
        back = bitslice.reconstruct(slices, 3)
        assert np.array_equal(back, values)

    def test_slice_shape(self):
        slices = bitslice.slice_operands(np.zeros((4, 3), dtype=np.int64), 8, 2)
        assert slices.shape == (4, 3, 4)


class TestShiftAddPartials:
    def test_combines_dot_product_exactly(self):
        rng = np.random.default_rng(1)
        p = rng.integers(0, 64, size=10)
        q = rng.integers(0, 64, size=10)
        p_slices = bitslice.slice_operands(p, 6, 2)
        q_slices = bitslice.slice_operands(q, 6, 2)
        partials = np.array(
            [
                [
                    int(p_slices[:, j].astype(np.int64) @ q_slices[:, k])
                    for k in range(3)
                ]
                for j in range(3)
            ]
        )
        combined = bitslice.shift_add_partials(partials, 2, 2)
        assert int(combined) == int(p @ q)

    def test_requires_two_axes(self):
        with pytest.raises(OperandError):
            bitslice.shift_add_partials(np.array([1, 2, 3]), 2, 2)


class TestTruncateResult:
    def test_wide_accumulator_is_identity(self):
        values = np.array([2**40, 17])
        assert np.array_equal(
            bitslice.truncate_result(values, 64), values
        )

    def test_truncates_to_32_bits(self):
        values = np.array([2**32 + 5])
        assert bitslice.truncate_result(values, 32).tolist() == [5]

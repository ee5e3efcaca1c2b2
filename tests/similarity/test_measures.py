"""Unit tests for the Table 2 similarity measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OperandError
from repro.similarity import measures


class TestEuclidean:
    def test_is_squared(self):
        assert measures.euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_identity_is_zero(self, rng):
        v = rng.random(16)
        assert measures.euclidean(v, v) == pytest.approx(0.0)

    def test_batch_matches_scalar(self, rng):
        data = rng.random((20, 8))
        q = rng.random(8)
        batch = measures.euclidean_batch(data, q)
        for i in range(20):
            assert batch[i] == pytest.approx(measures.euclidean(data[i], q))

    def test_shape_mismatch(self):
        with pytest.raises(OperandError):
            measures.euclidean(np.zeros(3), np.zeros(4))


class TestCosine:
    def test_parallel_vectors(self):
        assert measures.cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert measures.cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_returns_zero(self):
        assert measures.cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_batch_matches_scalar(self, rng):
        data = rng.random((15, 6))
        q = rng.random(6)
        batch = measures.cosine_batch(data, q)
        for i in range(15):
            assert batch[i] == pytest.approx(measures.cosine(data[i], q))


class TestPearson:
    def test_perfect_linear_correlation(self):
        p = np.array([1.0, 2.0, 3.0, 4.0])
        assert measures.pearson(p, 2.0 * p + 5.0) == pytest.approx(1.0)

    def test_anti_correlation(self):
        p = np.array([1.0, 2.0, 3.0])
        assert measures.pearson(p, -p) == pytest.approx(-1.0)

    def test_constant_vector_returns_zero(self):
        assert measures.pearson(np.full(5, 2.0), np.arange(5.0)) == 0.0

    def test_matches_numpy_corrcoef(self, rng):
        p, q = rng.random(32), rng.random(32)
        expected = np.corrcoef(p, q)[0, 1]
        assert measures.pearson(p, q) == pytest.approx(expected)

    def test_batch_matches_scalar(self, rng):
        data = rng.random((10, 12))
        q = rng.random(12)
        batch = measures.pearson_batch(data, q)
        for i in range(10):
            assert batch[i] == pytest.approx(measures.pearson(data[i], q))


class TestHamming:
    def test_known_distance(self):
        p = np.array([0, 1, 1, 0])
        q = np.array([1, 1, 0, 0])
        assert measures.hamming(p, q) == 2

    def test_rejects_non_binary(self):
        with pytest.raises(OperandError):
            measures.hamming(np.array([0, 2]), np.array([0, 1]))

    def test_rejects_float_codes(self):
        with pytest.raises(OperandError):
            measures.hamming(np.array([0.0, 1.0]), np.array([0, 1]))

    def test_batch_matches_scalar(self, rng):
        codes = rng.integers(0, 2, size=(10, 64))
        q = rng.integers(0, 2, size=64)
        batch = measures.hamming_batch(codes, q)
        for i in range(10):
            assert batch[i] == measures.hamming(codes[i], q)


class TestDispatch:
    def test_compute_by_name(self, rng):
        p, q = rng.random(8), rng.random(8)
        assert measures.compute("euclidean", p, q) == pytest.approx(
            measures.euclidean(p, q)
        )

    def test_compute_batch_by_name(self, rng):
        data, q = rng.random((5, 8)), rng.random(8)
        assert np.allclose(
            measures.compute_batch("cosine", data, q),
            measures.cosine_batch(data, q),
        )

    def test_unknown_measure(self):
        with pytest.raises(OperandError, match="unknown measure"):
            measures.compute("manhattan", np.zeros(2), np.zeros(2))

    def test_similarity_direction(self):
        assert measures.is_similarity("cosine")
        assert measures.is_similarity("pearson")
        assert not measures.is_similarity("euclidean")
        assert not measures.is_similarity("hamming")
        with pytest.raises(OperandError):
            measures.is_similarity("manhattan")


@settings(max_examples=80, deadline=None)
@given(
    measure=st.sampled_from(measures.MEASURES),
    n=st.integers(min_value=1, max_value=300),
    dims=st.integers(min_value=1, max_value=96),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_batch_scores_do_not_depend_on_the_rows_beside_them(
    measure, n, dims, seed
):
    """A row scores the same bits alone, in a block or in the whole
    array — what block scoring in the filter-and-refine walk needs."""
    rng = np.random.default_rng(seed)
    if measure == "hamming":
        data = rng.integers(0, 2, (n, dims))
        q = rng.integers(0, 2, dims)
    else:
        data = rng.random((n, dims))
        data[rng.random(n) < 0.1] = 0.0  # zero rows score 0
        q = rng.random(dims)
    block = rng.permutation(n)[: rng.integers(1, n + 1)]
    whole = measures.compute_batch(measure, data, q)[block]
    blocked = measures.compute_batch(measure, data[block], q)
    single = [
        measures.compute_batch(measure, data[i : i + 1], q)[0] for i in block
    ]
    assert np.array_equal(whole, blocked)
    assert np.array_equal(blocked, np.array(single))

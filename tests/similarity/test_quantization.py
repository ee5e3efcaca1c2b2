"""Unit tests for quantization (Eqs. 5-6) and the Theorem 3 error bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.errors import ConfigurationError, OperandError
from repro.similarity.quantization import (
    DEFAULT_ALPHA,
    Quantizer,
    required_operand_bits,
    theorem3_error_bound,
)


class TestTheorem3:
    def test_formula(self):
        assert theorem3_error_bound(420, 1e6) == pytest.approx(
            4 * 420 / 1e6 + 2 * 420 / 1e12
        )

    def test_error_shrinks_with_alpha(self):
        assert theorem3_error_bound(100, 1e6) < theorem3_error_bound(100, 1e3)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            theorem3_error_bound(0, 1e6)


class TestRequiredOperandBits:
    def test_paper_alpha_fits_32_bits(self):
        assert required_operand_bits(DEFAULT_ALPHA) <= 32

    def test_small_alpha(self):
        assert required_operand_bits(255) == 8


class TestQuantizer:
    def test_must_fit_before_use(self):
        with pytest.raises(OperandError):
            Quantizer().quantize(np.ones((2, 2)))

    def test_fit_quantize_range(self, rng):
        data = rng.random((50, 8)) * 10 - 5  # raw, outside [0,1]
        qv = Quantizer(alpha=1000).fit_quantize(data)
        assert qv.integers.min() >= 0
        assert qv.integers.max() <= 1000
        assert np.all(qv.integers <= qv.scaled + 1e-12)

    def test_floor_relationship(self, rng):
        data = rng.random((20, 4))
        qv = Quantizer(alpha=997, assume_normalized=True).fit_quantize(data)
        assert np.array_equal(qv.integers, np.floor(qv.scaled).astype(np.int64))

    def test_constant_dimension_handled(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        qv = Quantizer(alpha=100).fit_quantize(data)
        assert np.all(qv.integers[:, 0] == 0)

    def test_assume_normalized_is_identity_scaling(self, rng):
        data = rng.random((30, 6))
        quantizer = Quantizer(alpha=1000, assume_normalized=True).fit(data)
        assert np.allclose(quantizer.scale(data), data * 1000)

    def test_assume_normalized_rejects_out_of_range(self):
        with pytest.raises(OperandError):
            Quantizer(assume_normalized=True).fit(np.array([[2.0]]))

    def test_query_clipping(self, rng):
        data = rng.random((30, 4))
        quantizer = Quantizer(alpha=100, assume_normalized=True).fit(data)
        wild_query = np.array([-1.0, 0.5, 2.0, 0.0])
        normed = quantizer.normalize(wild_query)
        assert normed.min() >= 0.0 and normed.max() <= 1.0

    def test_error_bound_passthrough(self):
        quantizer = Quantizer(alpha=1e6)
        assert quantizer.error_bound(100) == theorem3_error_bound(100, 1e6)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            Quantizer(alpha=0)

    def test_operand_bits_property(self):
        assert Quantizer(alpha=255).operand_bits == 8

    def test_for_operand_bits_maximises_alpha(self):
        quantizer = Quantizer.for_operand_bits(8)
        assert quantizer.alpha == 255.0
        assert quantizer.operand_bits == 8

    def test_for_operand_bits_tighter_with_more_bits(self):
        narrow = Quantizer.for_operand_bits(8)
        wide = Quantizer.for_operand_bits(20)
        assert wide.error_bound(64) < narrow.error_bound(64)

    def test_for_operand_bits_validation(self):
        with pytest.raises(ConfigurationError):
            Quantizer.for_operand_bits(0)

    def test_quantization_error_within_theorem3(self, rng):
        # empirical check: ED(p,q) - LB via quantized terms <= bound
        from repro.similarity.measures import euclidean

        alpha, dims = 100.0, 16
        quantizer = Quantizer(alpha=alpha, assume_normalized=True)
        data = rng.random((40, dims))
        quantizer.fit(data)
        bound = quantizer.error_bound(dims)
        qv = quantizer.quantize(data)
        phi = (qv.scaled**2).sum(axis=1) - 2.0 * qv.integers.sum(axis=1)
        for i in range(0, 40, 7):
            for j in range(1, 40, 11):
                dot = float(qv.integers[i] @ qv.integers[j])
                lb = (phi[i] + phi[j] - 2 * dot - 2 * dims) / alpha**2
                ed = euclidean(data[i], data[j])
                assert lb <= ed + 1e-9
                assert ed - lb <= bound + 1e-9

    def test_phi_of_a_row_alone_has_the_batch_bits(self, rng):
        # the bounds compute Phi(p) over the dataset and Phi(q) one query
        # at a time; both must be the same reduction, bit for bit
        vectors = rng.random((5, 300))
        quantizer = Quantizer(assume_normalized=True).fit(vectors)
        qv = quantizer.quantize(vectors)
        for i in range(5):
            row = quantizer.quantize(vectors[i])
            assert row.phi.tobytes() == qv.phi[i].tobytes()
            expected = (row.scaled**2).sum() - 2.0 * row.integers.sum()
            assert row.phi.tobytes() == expected.tobytes()


class TestNormalizedShortcut:
    """``assume_normalized`` clips directly, with the general map's bytes."""

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, max_side=12),
            elements=st.floats(
                allow_nan=False, allow_infinity=True, width=64
            ),
        )
    )
    def test_bytes_match_the_general_formula(self, vectors):
        quantizer = Quantizer(assume_normalized=True)
        quantizer.fit(np.zeros((1, vectors.shape[-1])))
        general = np.clip(
            (vectors - quantizer._min) / quantizer._range, 0.0, 1.0
        )
        fast = quantizer.normalize(vectors)
        assert fast.shape == general.shape
        assert fast.tobytes() == general.tobytes()

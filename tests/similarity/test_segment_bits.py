"""``summarize`` returns NumPy's own ``mean``/``std`` bits.

The one-pass summary (std derived from the mean just computed, short
segments summed column by column) must equal ``shaped.mean(axis=2)`` and
``shaped.std(axis=2)`` byte for byte, for every segment length, for one
vector or a batch, on unit-range data and on data scaled by the
quantizer's alpha. The returned arrays never alias the input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.similarity.segments import equal_segment_counts, summarize

ALPHA = 1e6


def assert_numpy_bits(vectors: np.ndarray, n_segments: int) -> None:
    batch = np.atleast_2d(vectors)
    n, dims = batch.shape
    shaped = batch.reshape(n, n_segments, dims // n_segments)
    want_means, want_stds = shaped.mean(axis=2), shaped.std(axis=2)
    if vectors.ndim == 1:
        want_means, want_stds = want_means[0], want_stds[0]
    got = summarize(vectors, n_segments)
    for have, want in ((got.means, want_means), (got.stds, want_stds)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes(), (dims, n_segments)
        assert not np.shares_memory(have, vectors)
    assert got.segment_length == dims // n_segments


@pytest.mark.parametrize("dims", [90, 420, 960])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    single=st.booleans(),
    scaled=st.booleans(),
)
def test_every_divisor_matches_numpy(dims, seed, n, single, scaled):
    rng = np.random.default_rng(seed)
    vectors = rng.random(dims) if single else rng.random((n, dims))
    if scaled:
        vectors = vectors * ALPHA
    for n_segments in equal_segment_counts(dims):
        assert_numpy_bits(vectors, n_segments)


@st.composite
def segment_batches(draw):
    length = draw(st.integers(1, 16))
    n_segments = draw(st.integers(1, 8))
    single = draw(st.booleans())
    shape = (
        (length * n_segments,)
        if single
        else (draw(st.integers(1, 5)), length * n_segments)
    )
    vectors = draw(
        hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
    )
    return vectors, n_segments


@settings(max_examples=200, deadline=None)
@given(batch=segment_batches(), scaled=st.booleans())
def test_random_shapes_match_numpy(batch, scaled):
    vectors, n_segments = batch
    if scaled:
        vectors = vectors * ALPHA
    assert_numpy_bits(vectors, n_segments)

"""Segment statistics used by FNN-style dimensionality reduction.

LB_FNN (Hwang et al., Table 3) partitions a ``d``-dimensional vector into
``d'`` equal-length segments and summarises each by its mean and standard
deviation. These helpers compute the summaries in batch form and expose
the segmentation bookkeeping (segment count candidates must divide ``d``
so segments have equal length ``l = d / d'``).

Bit contract: :func:`summarize` returns exactly the bits of
``shaped.mean(axis=2)`` and ``shaped.std(axis=2)`` on the
``(n, d', l)`` view, in one pass per statistic. The std is derived from
the mean just computed, as NumPy's own ``_var`` does; segments shorter
than :data:`PAIRWISE_MIN` are summed by sequential column adds starting
from ``+0.0`` (NumPy's order for short reductions), longer ones by
``np.add.reduce`` (pairwise). The returned arrays never alias the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, OperandError

#: Shortest segment NumPy sums pairwise; shorter ones it adds in order.
PAIRWISE_MIN = 8


def equal_segment_counts(dims: int) -> list[int]:
    """All segment counts ``d'`` that split ``dims`` into equal parts."""
    if dims <= 0:
        raise ConfigurationError("dims must be positive")
    return [s for s in range(1, dims + 1) if dims % s == 0]


def fnn_segment_ladder(dims: int, ratios: tuple[int, ...] = (64, 16, 4)) -> list[int]:
    """The paper's FNN bound ladder: ``d/64, d/16, d/4`` segment counts.

    Ratios that do not divide ``dims`` (or would give zero segments) are
    replaced by the closest valid divisor, preserving the monotone
    coarse-to-fine ordering; duplicates are dropped.
    """
    divisors = equal_segment_counts(dims)
    ladder: list[int] = []
    for ratio in ratios:
        target = max(1, dims // ratio)
        nearest = min(divisors, key=lambda s: (abs(s - target), s))
        if nearest not in ladder:
            ladder.append(nearest)
    return sorted(ladder)


@dataclass(frozen=True)
class SegmentSummary:
    """Per-segment means and standard deviations of a batch of vectors.

    Attributes
    ----------
    means, stds:
        ``(n_vectors, n_segments)`` arrays.
    segment_length:
        ``l = d / d'``.
    """

    means: np.ndarray
    stds: np.ndarray
    segment_length: int

    @property
    def n_segments(self) -> int:
        """Number of segments ``d'``."""
        return self.means.shape[-1]


def summarize(vectors: np.ndarray, n_segments: int) -> SegmentSummary:
    """Mean/std per equal-length segment for one vector or a batch.

    Parameters
    ----------
    vectors:
        ``(dims,)`` or ``(n, dims)`` float array; ``dims`` must be a
        multiple of ``n_segments``.
    n_segments:
        Segment count ``d'``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    single = vectors.ndim == 1
    if single:
        vectors = vectors[None, :]
    if vectors.ndim != 2:
        raise OperandError("summarize() expects a vector or a 2-D batch")
    n, dims = vectors.shape
    if n_segments <= 0 or dims % n_segments != 0:
        raise ConfigurationError(
            f"{n_segments} segments do not evenly divide {dims} dimensions"
        )
    length = dims // n_segments
    if length == 1:
        # + 0.0 copies the input and maps -0.0 to +0.0, as a sum does
        means, stds = vectors + 0.0, np.zeros_like(vectors)
    else:
        shaped = vectors.reshape(n, n_segments, length)
        means = _segment_sums(shaped)
        means /= length
        deviations = shaped - means[:, :, None]
        np.multiply(deviations, deviations, out=deviations)
        stds = _segment_sums(deviations)
        stds /= length
        np.sqrt(stds, out=stds)
    if single:
        means, stds = means[0], stds[0]
    return SegmentSummary(means=means, stds=stds, segment_length=length)


def _segment_sums(shaped: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``shaped`` in NumPy's own order.

    ``np.add.reduce`` pays one inner-loop call per segment, which
    dominates for short segments; adding whole columns in sequence gives
    the same bits there at array speed.
    """
    length = shaped.shape[2]
    if length >= PAIRWISE_MIN:
        return np.add.reduce(shaped, axis=2)
    total = shaped[:, :, 0] + 0.0
    for j in range(1, length):
        total += shaped[:, :, j]
    return total

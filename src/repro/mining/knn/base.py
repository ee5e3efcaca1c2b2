"""Shared machinery of the kNN classification algorithms.

Every algorithm follows the filtering-and-refinement paradigm of Section
II-C: candidates are screened by one or more bounds against the current
k-th best distance, and only survivors pay the exact similarity
computation. Implementations differ in which bounds they stack; the
*result set is always exact* (identical to a linear scan), which tests
enforce.

Execution-time accounting: every algorithm records its events in a fresh
:class:`~repro.cost.counters.PerfCounters` per query; the caller converts
them to simulated time with :class:`~repro.cost.model.CostModel` and adds
the PIM wave time of the algorithm's controller (if any), mirroring the
paper's NVSim + Quartz summation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.cost.counters import OTHER, PerfCounters
from repro.errors import ConfigurationError, OperandError
from repro.kernels import canonical_topk
from repro.similarity import measures

#: Bytes one stored coordinate occupies on the modelled machines
#: (the paper's baselines stream 32-bit values).
OPERAND_BYTES = 4

@dataclass
class KNNResult:
    """Outcome of one kNN query.

    Attributes
    ----------
    indices:
        The k nearest (most similar) object indices, best first.
    scores:
        Their distances (ED/HD) or similarities (CS/PCC).
    counters:
        Host-side events recorded during the query.
    pim_time_ns:
        Simulated PIM wave time consumed by the query (0 for baselines).
    exact_computations:
        How many full-dimensional exact evaluations were needed.
    """

    indices: np.ndarray
    scores: np.ndarray
    counters: PerfCounters
    pim_time_ns: float = 0.0
    exact_computations: int = 0
    stage_evaluations: dict[str, int] = field(default_factory=dict)


class KNNAlgorithm(abc.ABC):
    """Base of every kNN implementation.

    Parameters
    ----------
    measure:
        One of ``euclidean``, ``cosine``, ``pearson``, ``hamming``.
    """

    #: Display name, e.g. ``"FNN-PIM"``.
    name: str = "knn"
    #: Cost buckets that PIM could absorb (the set F of Eq. 2).
    offloadable_functions: tuple[str, ...] = ()

    def __init__(self, measure: str = "euclidean") -> None:
        if measure not in measures.MEASURES:
            raise ConfigurationError(
                f"unknown measure {measure!r}; one of {measures.MEASURES}"
            )
        self.measure = measure
        self.minimize = not measures.is_similarity(measure)
        self._data: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The fitted dataset."""
        if self._data is None:
            raise OperandError(f"{self.name} must be fitted before querying")
        return self._data

    @property
    def n_objects(self) -> int:
        """Dataset cardinality."""
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        """Dataset dimensionality."""
        return self.data.shape[1]

    def fit(self, data: np.ndarray) -> "KNNAlgorithm":
        """Offline stage: store the dataset and build summaries."""
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] == 0:
            raise OperandError("fit() expects a non-empty 2-D dataset")
        self._data = data
        self._prepare(data)
        return self

    def _prepare(self, data: np.ndarray) -> None:
        """Hook for subclasses to build bounds/summaries."""

    @abc.abstractmethod
    def query(self, q: np.ndarray, k: int) -> KNNResult:
        """Online stage: the k nearest/most-similar objects to ``q``.

        ``k < 1`` raises :class:`~repro.errors.ConfigurationError`.
        """

    def query_batch(self, queries: np.ndarray, k: int) -> list[KNNResult]:
        """kNN of every row of ``queries``, results in row order.

        The base implementation is a plain loop; PIM-backed subclasses
        override it to ship the whole batch as one amortized wave per
        bound. Results are identical to calling :meth:`query` per row
        either way — batching changes timing, never answers.
        """
        queries = np.atleast_2d(np.asarray(queries))
        return [self.query(q, k) for q in queries]

    # ------------------------------------------------------------------
    # shared cost-charging helpers
    # ------------------------------------------------------------------
    def charge_exact(self, counters: PerfCounters, n: int) -> None:
        """Cost of ``n`` exact measure evaluations over the full vectors."""
        d = self.dims
        # hamming runs on bit-packed codes: one xor+popcount word pair
        # covers 64 dimensions, so its arithmetic is ~d/16, not O(d)
        flops_per = {"euclidean": 3.0 * d, "cosine": 4.0 * d,
                     "pearson": 6.0 * d, "hamming": d / 16.0}[self.measure]
        long_ops = 0.0 if self.measure in ("euclidean", "hamming") else 2.0
        bytes_per = (
            d / 8.0 if self.measure == "hamming" else d * OPERAND_BYTES
        )
        counters.record(
            self.measure,
            calls=n,
            flops=flops_per * n,
            bytes_from_memory=bytes_per * n,
            long_ops=long_ops * n,
            branches=float(n),
        )

    def charge_heap(self, counters: PerfCounters, n: int) -> None:
        """Cost of offering ``n`` candidates to the result heap."""
        counters.record(OTHER, flops=2.0 * n, branches=2.0 * n)

    def exact_scores(self, q: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Exact measure values for selected objects."""
        return measures.compute_batch(self.measure, self.data[indices], q)

    def _finalize(
        self,
        indices: np.ndarray,
        scores: np.ndarray,
        counters: PerfCounters,
        pim_time_ns: float = 0.0,
        exact_computations: int = 0,
        stage_evaluations: dict[str, int] | None = None,
    ) -> KNNResult:
        return KNNResult(
            indices=np.asarray(indices, dtype=np.int64),
            scores=np.asarray(scores, dtype=np.float64),
            counters=counters,
            pim_time_ns=pim_time_ns,
            exact_computations=exact_computations,
            stage_evaluations=dict(stage_evaluations or {}),
        )

    def _topk(self, scores: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
        """``(indices, scores)`` of the best ``k`` of all ``scores``: the
        canonical top-k of the sign-adjusted scores (ties go to the
        lowest index)."""
        sign = 1.0 if self.minimize else -1.0
        best, top = canonical_topk(sign * scores, np.arange(scores.size), k)
        return top, sign * best


def validate_query(q: np.ndarray, dims: int, k: int) -> np.ndarray:
    """Check a query vector's shape and its neighbour count ``k >= 1``."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1 (got {k})")
    q = np.asarray(q)
    if q.ndim != 1 or q.shape[0] != dims:
        raise OperandError(f"query must be a vector of length {dims}")
    return q

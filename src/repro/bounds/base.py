"""Bound protocol shared by CPU (Table 3) and PIM (Theorem 1/2) bounds.

A *bound* filters candidates before an exact similarity computation:

* a **lower** bound on a distance prunes object ``p`` when
  ``LB(p, q) > threshold`` (it cannot beat the current k-th distance);
* an **upper** bound on a similarity prunes when ``UB(p, q) < threshold``.

Bounds are prepared offline against a dataset (``prepare``) and queried
online (``evaluate``). Each bound also knows its per-object cost profile
— transfer bits, flops, branch count — which is what the cost model and
the Eq. 13 execution-plan optimizer consume. :meth:`Bound.charge` records
those events on a :class:`~repro.cost.counters.PerfCounters` under the
bound's name, keeping cost accounting next to the semantics it describes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.cost.counters import PerfCounters
from repro.errors import ProgrammingError

#: Bound direction constants.
LOWER = "lower"
UPPER = "upper"


class Bound(abc.ABC):
    """One filtering bound over a prepared dataset."""

    #: Display / cost-bucket name, e.g. ``"LB_FNN_105"``.
    name: str
    #: :data:`LOWER` (distance LBs) or :data:`UPPER` (similarity UBs).
    kind: str

    def __init__(self, name: str, kind: str) -> None:
        if kind not in (LOWER, UPPER):
            raise ValueError(f"kind must be {LOWER!r} or {UPPER!r}")
        self.name = name
        self.kind = kind
        self._n_objects: int | None = None
        #: The array the last :meth:`prepare` summarised, for bounds that
        #: record it (the segment-summary and PIM bounds). A cascade
        #: sharing a prepared bound skips preparing it again on this very
        #: array (identity, not content).
        self.prepared_on: np.ndarray | None = None
        self._query_key: bytes | None = None
        self._query_value: object = None

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare(self, data: np.ndarray) -> None:
        """Offline stage: pre-compute summaries of ``data``."""

    @abc.abstractmethod
    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Bound values of ``query`` against the prepared objects.

        Parameters
        ----------
        query:
            The online vector, in the same space as the prepared data.
        indices:
            Restrict evaluation to these object indices (a cascade's
            surviving candidates); ``None`` means all objects.
        """

    def _per_query(self, query: np.ndarray, compute):
        """``compute(query)``, kept until a different query arrives.

        A cascade evaluates a bound once per visited block of one query,
        so the query's summary is computed once, not once per block.
        """
        query = np.asarray(query, dtype=np.float64)
        key = query.tobytes()
        if key != self._query_key:
            self._query_value = compute(query)
            self._query_key = key
        return self._query_value

    @property
    def n_objects(self) -> int:
        """Number of prepared objects."""
        if self._n_objects is None:
            raise ProgrammingError(f"bound {self.name} is not prepared")
        return self._n_objects

    # ------------------------------------------------------------------
    # cost profile
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def per_object_transfer_bits(self) -> float:
        """Memory->CPU bits one evaluation moves (Eq. 13's Tcost(B))."""

    @property
    @abc.abstractmethod
    def per_object_flops(self) -> float:
        """Arithmetic operations one evaluation costs on the host."""

    @property
    def per_object_long_ops(self) -> float:
        """Long-latency host ops (sqrt/div) per evaluation."""
        return 0.0

    def charge(self, counters: PerfCounters, n_evaluated: int) -> None:
        """Record the host-side cost of evaluating ``n_evaluated`` objects."""
        counters.record(
            self.name,
            calls=n_evaluated,
            flops=self.per_object_flops * n_evaluated,
            bytes_from_memory=self.per_object_transfer_bits / 8.0 * n_evaluated,
            long_ops=self.per_object_long_ops * n_evaluated,
            branches=float(n_evaluated),
        )

    def charge_query_setup(self, counters: PerfCounters, dims: int) -> None:
        """Record the once-per-query preparation (e.g. computing Phi(q))."""
        counters.record(
            self.name,
            flops=3.0 * dims,
            bytes_cached=8.0 * dims,
        )

    # ------------------------------------------------------------------
    # pruning semantics
    # ------------------------------------------------------------------
    def prunes(self, values: np.ndarray, threshold: float) -> np.ndarray:
        """Boolean mask of objects this bound eliminates at ``threshold``."""
        values = np.asarray(values)
        if self.kind == LOWER:
            return values > threshold
        return values < threshold

    def survivors(
        self,
        values: np.ndarray,
        threshold: float,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Indices that survive the filter.

        ``values`` must align with ``indices`` (or with all objects when
        ``indices`` is None).
        """
        keep = ~self.prunes(values, threshold)
        if indices is None:
            return np.nonzero(keep)[0]
        return np.asarray(indices)[keep]

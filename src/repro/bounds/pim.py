"""PIM-aware bound functions (paper Section V-B, Theorems 1-2).

These bounds do the O(d) part of their work on the PIM array: the
quantized integer dataset is programmed onto crossbars at the offline
stage, and one online *wave* yields the dot-product term for every object
at once. The host only combines three scalars per object (Fig. 8), so
the per-object memory->CPU transfer collapses from ``d*b`` to ``3*b``
bits — the source of the paper's speedups.

Correctness contracts (verified by property tests):

* :class:`PIMEuclideanBound` — Theorem 1: ``LB_PIM-ED(p,q) <= ED(p,q)``;
* :class:`PIMFNNBound` — Theorem 2: ``LB_PIM-FNN(p,q) <= LB_FNN(p,q)``
  (hence also ``<= ED``);
* :class:`PIMCosineBound` / :class:`PIMPearsonBound` — upper bounds of
  CS/PCC via the floor inequality on the dot product;
* :class:`PIMHammingDistance` — *exact* (binary vectors need no bound).

Every bound shares one :class:`~repro.hardware.controller.PIMController`
so crossbar capacity and wave times accumulate on a single simulated
device.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import LOWER, UPPER, Bound
from repro.cost.transfer import pim_bound_transfer
from repro.errors import OperandError
from repro.hardware.controller import PIMController
from repro.similarity.quantization import Quantizer
from repro.similarity.segments import summarize


def theorem1_lower_bound(
    phi, phi_q, dots, dims: int, alpha: float
) -> np.ndarray:
    """Theorem 1's clamped bound from its three per-object scalars.

    ``max(0, (Phi(p) + Phi(q) - 2 floor(p).floor(q) - 2d) / alpha^2)``;
    ``phi``, ``phi_q`` and ``dots`` broadcast against each other. Every
    caller (the bounds here, the serving scan, assist and their loop
    oracles) goes through this one expression, so one fixed operation
    order gives the same bits for one pair or a whole batch.
    """
    lb = (phi + phi_q - 2.0 * dots - 2.0 * dims) / alpha**2
    return np.maximum(lb, 0.0, out=lb)


class _PIMBoundBase(Bound):
    """Shared machinery: quantizer, controller, wave caching.

    One wave computes dot products for *all* programmed objects; when a
    cascade later asks for a subset, the cached wave results are sliced
    instead of re-firing the array.
    """

    _instances = 0

    def __init__(
        self,
        name: str,
        kind: str,
        controller: PIMController,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(name=name, kind=kind)
        self.controller = controller
        self.quantizer = (
            quantizer
            if quantizer is not None
            else Quantizer(assume_normalized=True)
        )
        _PIMBoundBase._instances += 1
        self._matrix_name = f"{name}#{_PIMBoundBase._instances}"
        self._last_key: bytes | None = None
        self._last_values: np.ndarray | None = None
        self._batch_cache: dict[bytes, np.ndarray] = {}

    def _already_prepared(self, data: np.ndarray) -> bool:
        """Idempotence guard: skip re-programming for the same dataset.

        The plan optimizer re-fits algorithms that share an existing
        programmed bound; re-programming would wear the crossbars (and
        the array rejects duplicate matrix names). The same array, or an
        equal one, is skipped; preparing a bound on *different* data is
        an error — build a new bound instead.
        """
        held = self.prepared_on
        if held is None:
            self.prepared_on = data
            return False
        if data is held or (
            data.shape == held.shape and np.array_equal(data, held)
        ):
            return True
        raise OperandError(
            f"{self.name} is already programmed with a different dataset; "
            "create a fresh bound (re-programming wears the crossbars)"
        )

    @property
    def alpha(self) -> float:
        """Quantization scaling factor."""
        return self.quantizer.alpha

    @property
    def operand_bits(self) -> int:
        """Operand width used for transfer accounting."""
        return self.controller.pim.config.operand_bits

    def _compensated(self, values: np.ndarray) -> np.ndarray:
        """Raw wave readings -> safe dot-product upper bounds under noise."""
        values = values.astype(np.float64)
        noise = getattr(self.controller, "noise", None)
        if noise is not None and not noise.is_ideal:
            from repro.hardware.noise import compensate_dot_upper

            values = compensate_dot_upper(values, noise)
        return values

    def _wave(self, query_ints: np.ndarray) -> np.ndarray:
        """Fire (or reuse) the wave for this exact query.

        Results primed by :meth:`prime_queries` are served from the
        batch cache without touching the array again. On a noisy
        controller the reading is compensated to a guaranteed *upper*
        bound of the true dot product. That keeps every derived bound
        valid in its own direction: the ED-family lower bounds use
        ``-2*dot`` (a larger dot only loosens them downward) and the
        CS/PCC upper bounds use ``+dot`` (a larger dot only loosens them
        upward). Noise costs tightness, never correctness.
        """
        key = query_ints.tobytes()
        cached = self._batch_cache.get(key)
        if cached is not None:
            return cached
        if key != self._last_key or self._last_values is None:
            result = self.controller.dot_products(
                self._matrix_name, query_ints
            )
            self._last_key = key
            self._last_values = self._compensated(result.values)
        return self._last_values

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        """The integer input vector this bound dispatches for ``query``.

        Must match what :meth:`evaluate` computes internally byte for
        byte, so primed batch results are found in the cache.
        """
        raise NotImplementedError

    def prime_queries(self, queries: np.ndarray) -> int:
        """Fire ONE batched wave covering every query's dot products.

        Subsequent :meth:`evaluate` calls on any of these queries (for
        any object subset) hit the cache instead of dispatching their
        own wave, so a workload of B queries pays one pipeline setup.
        Returns the number of queries dispatched (after intra-batch
        dedup). Priming replaces any previously primed batch.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        ints = np.stack([self._query_ints(q) for q in queries])
        # duplicate query vectors would waste wave slots; keep first
        keys: list[bytes] = []
        rows: list[np.ndarray] = []
        seen: set[bytes] = set()
        for row in ints:
            key = row.tobytes()
            if key in seen:
                continue
            seen.add(key)
            keys.append(key)
            rows.append(row)
        result = self.controller.dot_products_batch(
            self._matrix_name, np.stack(rows)
        )
        values = self._compensated(result.values)
        self._batch_cache = {
            key: values[i] for i, key in enumerate(keys)
        }
        return len(rows)

    @property
    def per_object_transfer_bits(self) -> float:
        return pim_bound_transfer(self.operand_bits).bits_per_object

    @property
    def per_object_flops(self) -> float:
        return 7.0  # G: two adds, one fma, one scale, plus the compare


class PIMEuclideanBound(_PIMBoundBase):
    """LB_PIM-ED (Theorem 1): quantized lower bound of squared ED.

    ``LB = max(0, (Phi(p) + Phi(q) - 2 floor(p).floor(q) - 2d) / alpha^2)``
    with ``Phi(p) = sum p_bar_i^2 - 2 sum floor(p_bar_i)``.

    The clamp at zero is valid (squared ED is non-negative) and tightens
    the bound for near-identical pairs.
    """

    def __init__(
        self, controller: PIMController, quantizer: Quantizer | None = None
    ) -> None:
        super().__init__(
            name="LB_PIM-ED", kind=LOWER, controller=controller,
            quantizer=quantizer,
        )
        self._phi: np.ndarray | None = None
        self._dims: int | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("prepare() expects a (vectors x dims) matrix")
        if self._already_prepared(data):
            self._n_objects = data.shape[0]
            return
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        qv = self.quantizer.quantize(data)
        self._phi = (qv.scaled**2).sum(axis=1) - 2.0 * qv.integers.sum(axis=1)
        self._dims = data.shape[1]
        side_bytes = self._phi.nbytes
        self.controller.program(self._matrix_name, qv.integers, side_bytes)
        self._n_objects = data.shape[0]

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        return self.quantizer.quantize(query).integers

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._phi is None or self._dims is None:
            raise OperandError(f"{self.name} is not prepared")
        qq = self.quantizer.quantize(np.asarray(query, dtype=np.float64))
        phi_q = float((qq.scaled**2).sum() - 2.0 * qq.integers.sum())
        dots = self._wave(qq.integers)
        phi = self._phi if indices is None else self._phi[indices]
        d = dots if indices is None else dots[indices]
        return theorem1_lower_bound(phi, phi_q, d, self._dims, self.alpha)

    def evaluate_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Bounds for several queries at once, shape ``(N, n_queries)``.

        The queries ship as one batched wave (one pipeline setup plus
        per-query increments); used by the k-means assign step, which
        needs LB_PIM-ED of every point to every center each iteration.
        """
        if self._phi is None or self._dims is None:
            raise OperandError(f"{self.name} is not prepared")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        qq = self.quantizer.quantize(queries)
        phi_q = (qq.scaled**2).sum(axis=1) - 2.0 * qq.integers.sum(axis=1)
        result = self.controller.dot_products_batch(
            self._matrix_name, qq.integers
        )
        values = self._compensated(result.values)
        dots = values.T  # (N, n_queries)
        return theorem1_lower_bound(
            self._phi[:, None], phi_q[None, :], dots, self._dims, self.alpha
        )


class PIMFNNBound(_PIMBoundBase):
    """LB_PIM-FNN (Theorem 2): quantized lower bound of LB_FNN.

    Segment means and standard deviations of the *scaled* vectors are
    floored and programmed as one concatenated ``2 d'``-dimensional
    matrix, so a single wave delivers
    ``floor(mu_p).floor(mu_q) + floor(sigma_p).floor(sigma_q)``:

    ``LB = max(0, l/alpha^2 * (Phi(p) + Phi(q) - 2 dot - 4 d'))``.
    """

    def __init__(
        self,
        n_segments: int,
        controller: PIMController,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(
            name=f"LB_PIM-FNN_{n_segments}",
            kind=LOWER,
            controller=controller,
            quantizer=quantizer,
        )
        self.n_segments = n_segments
        self._phi: np.ndarray | None = None
        self._segment_length: int | None = None

    def _summaries(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Scaled segment means/stds: (means, stds, segment_length)."""
        scaled = self.quantizer.scale(vectors)
        summary = summarize(scaled, self.n_segments)
        return (
            np.atleast_2d(summary.means),
            np.atleast_2d(summary.stds),
            summary.segment_length,
        )

    def prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("prepare() expects a (vectors x dims) matrix")
        if self._already_prepared(data):
            self._n_objects = data.shape[0]
            return
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        means, stds, length = self._summaries(data)
        n, k = means.shape
        floors = np.zeros((n, 2 * k), dtype=np.int64)
        floors[:, :k] = np.floor(means)
        phi = (means**2).sum(axis=1)
        # length-1 segments have all-zero stds: their floors are the zero
        # block already and their squares would add exactly +0.0
        if length > 1:
            floors[:, k:] = np.floor(stds)
            phi += (stds**2).sum(axis=1)
        self._phi = phi - 2.0 * floors.sum(axis=1)
        self._segment_length = length
        self.controller.program(self._matrix_name, floors, self._phi.nbytes)
        self._n_objects = data.shape[0]

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        return self._query_terms(query)[0]

    def _query_terms(self, query: np.ndarray) -> tuple[np.ndarray, float]:
        """The query's floored summary and ``Phi(q)``."""
        means, stds, _ = self._summaries(query)
        q_floors = np.floor(np.concatenate([means[0], stds[0]])).astype(
            np.int64
        )
        phi_q = float(
            (means**2).sum() + (stds**2).sum() - 2.0 * q_floors.sum()
        )
        return q_floors, phi_q

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._phi is None or self._segment_length is None:
            raise OperandError(f"{self.name} is not prepared")
        q_floors, phi_q = self._per_query(query, self._query_terms)
        dots = self._wave(q_floors)
        phi = self._phi if indices is None else self._phi[indices]
        d = dots if indices is None else dots[indices]
        lb = (
            self._segment_length
            / self.alpha**2
            * (phi + phi_q - 2.0 * d - 4.0 * self.n_segments)
        )
        return np.maximum(lb, 0.0)


class PIMSMBound(_PIMBoundBase):
    """PIM-aware bound of LB_SM: quantized segment-means lower bound.

    Identical derivation to Theorem 2 restricted to the mean terms:
    ``LB = max(0, l/alpha^2 * (Phi(p) + Phi(q) - 2 dot - 2 d'))`` with
    ``Phi(p) = sum mu_bar^2 - 2 sum floor(mu_bar)``. Lower-bounds LB_SM
    and therefore the squared ED.
    """

    def __init__(
        self,
        n_segments: int,
        controller: PIMController,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(
            name=f"LB_PIM-SM_{n_segments}",
            kind=LOWER,
            controller=controller,
            quantizer=quantizer,
        )
        self.n_segments = n_segments
        self._phi: np.ndarray | None = None
        self._segment_length: int | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("prepare() expects a (vectors x dims) matrix")
        if self._already_prepared(data):
            self._n_objects = data.shape[0]
            return
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        means = np.atleast_2d(
            summarize(self.quantizer.scale(data), self.n_segments).means
        )
        floors = np.floor(means).astype(np.int64)
        self._phi = (means**2).sum(axis=1) - 2.0 * floors.sum(axis=1)
        self._segment_length = data.shape[1] // self.n_segments
        self.controller.program(self._matrix_name, floors, self._phi.nbytes)
        self._n_objects = data.shape[0]

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        return self._query_terms(query)[0]

    def _query_terms(self, query: np.ndarray) -> tuple[np.ndarray, float]:
        """The query's floored segment means and ``Phi(q)``."""
        means = summarize(self.quantizer.scale(query), self.n_segments).means
        q_floors = np.floor(means).astype(np.int64)
        return q_floors, float((means**2).sum() - 2.0 * q_floors.sum())

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._phi is None or self._segment_length is None:
            raise OperandError(f"{self.name} is not prepared")
        q_floors, phi_q = self._per_query(query, self._query_terms)
        dots = self._wave(q_floors)
        phi = self._phi if indices is None else self._phi[indices]
        d = dots if indices is None else dots[indices]
        lb = (
            self._segment_length
            / self.alpha**2
            * (phi + phi_q - 2.0 * d - 2.0 * self.n_segments)
        )
        return np.maximum(lb, 0.0)


class PIMOSTBound(_PIMBoundBase):
    """PIM-aware bound of LB_OST.

    The head term (exact squared ED over the first ``d0`` dimensions) is
    replaced by its Theorem 1 quantized lower bound computed on PIM; the
    tail term reuses the pre-computed tail norms with one extra scalar of
    transfer: ``LB = LB_PIM-ED(head) + (|p_tail| - |q_tail|)^2``.
    """

    def __init__(
        self,
        head_dims: int,
        controller: PIMController,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(
            name=f"LB_PIM-OST_{head_dims}",
            kind=LOWER,
            controller=controller,
            quantizer=quantizer,
        )
        self.head_dims = head_dims
        self._phi: np.ndarray | None = None
        self._tail_norms: np.ndarray | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("prepare() expects a (vectors x dims) matrix")
        if self._already_prepared(data):
            self._n_objects = data.shape[0]
            return
        if data.shape[1] <= self.head_dims:
            raise OperandError("head_dims must be below the data dims")
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        scaled = self.quantizer.scale(data)
        head = scaled[:, : self.head_dims]
        floors = np.floor(head).astype(np.int64)
        self._phi = (head**2).sum(axis=1) - 2.0 * floors.sum(axis=1)
        normed = self.quantizer.normalize(data)
        self._tail_norms = np.linalg.norm(normed[:, self.head_dims :], axis=1)
        side = self._phi.nbytes + self._tail_norms.nbytes
        self.controller.program(self._matrix_name, floors, side)
        self._n_objects = data.shape[0]

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        head = self.quantizer.scale(query)[: self.head_dims]
        return np.floor(head).astype(np.int64)

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._phi is None or self._tail_norms is None:
            raise OperandError(f"{self.name} is not prepared")
        query = np.asarray(query, dtype=np.float64)
        scaled = self.quantizer.scale(query)
        head = scaled[: self.head_dims]
        q_floors = np.floor(head).astype(np.int64)
        phi_q = float((head**2).sum() - 2.0 * q_floors.sum())
        q_tail = float(
            np.linalg.norm(self.quantizer.normalize(query)[self.head_dims :])
        )
        dots = self._wave(q_floors)
        phi = self._phi if indices is None else self._phi[indices]
        tails = (
            self._tail_norms if indices is None else self._tail_norms[indices]
        )
        d = dots if indices is None else dots[indices]
        head_lb = np.maximum(
            (phi + phi_q - 2.0 * d - 2.0 * self.head_dims) / self.alpha**2,
            0.0,
        )
        return head_lb + (tails - q_tail) ** 2

    @property
    def per_object_transfer_bits(self) -> float:
        # Phi, dot result and the tail norm
        return pim_bound_transfer(self.operand_bits).bits_per_object + float(
            self.operand_bits
        )


class PIMCosineBound(_PIMBoundBase):
    """Quantized upper bound of cosine similarity.

    ``p.q <= (dot + sum floor(p_bar) + sum floor(q_bar) + d) / alpha^2``
    by the floor inequality; dividing by the exact norms (pre-computed
    offline / once per query) upper-bounds CS. Clamped to 1.
    """

    def __init__(
        self, controller: PIMController, quantizer: Quantizer | None = None
    ) -> None:
        super().__init__(
            name="UB_PIM-CS", kind=UPPER, controller=controller,
            quantizer=quantizer,
        )
        self._floor_sums: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._dims: int | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("prepare() expects a (vectors x dims) matrix")
        if self._already_prepared(data):
            self._n_objects = data.shape[0]
            return
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        qv = self.quantizer.quantize(data)
        self._floor_sums = qv.integers.sum(axis=1).astype(np.float64)
        self._norms = np.linalg.norm(self.quantizer.normalize(data), axis=1)
        self._dims = data.shape[1]
        side = self._floor_sums.nbytes + self._norms.nbytes
        self.controller.program(self._matrix_name, qv.integers, side)
        self._n_objects = data.shape[0]

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        return self.quantizer.quantize(query).integers

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._floor_sums is None or self._norms is None or self._dims is None:
            raise OperandError(f"{self.name} is not prepared")
        query = np.asarray(query, dtype=np.float64)
        qq = self.quantizer.quantize(query)
        q_floor_sum = float(qq.integers.sum())
        q_norm = float(np.linalg.norm(self.quantizer.normalize(query)))
        dots = self._wave(qq.integers)
        sums = self._floor_sums if indices is None else self._floor_sums[indices]
        norms = self._norms if indices is None else self._norms[indices]
        d = dots if indices is None else dots[indices]
        dot_ub = (d + sums + q_floor_sum + self._dims) / self.alpha**2
        denom = norms * q_norm
        ub = np.ones_like(dot_ub)
        nonzero = denom > 0
        ub[nonzero] = dot_ub[nonzero] / denom[nonzero]
        return np.minimum(ub, 1.0)

    @property
    def per_object_long_ops(self) -> float:
        return 1.0  # the division by the norm product


class PIMPearsonBound(_PIMBoundBase):
    """Quantized upper bound of the Pearson correlation coefficient.

    Using the Table 4 form ``PCC = (d p.q - S_p S_q) / (Phi_a(p) Phi_a(q))``
    with non-negative data, an upper bound on ``p.q`` upper-bounds the
    numerator; the denominator terms are exact and pre-computed. Objects
    with zero variance get UB = 1 (never pruned). Clamped to [-1, 1].
    """

    def __init__(
        self, controller: PIMController, quantizer: Quantizer | None = None
    ) -> None:
        super().__init__(
            name="UB_PIM-PCC", kind=UPPER, controller=controller,
            quantizer=quantizer,
        )
        self._floor_sums: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._phi_a: np.ndarray | None = None
        self._dims: int | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("prepare() expects a (vectors x dims) matrix")
        if self._already_prepared(data):
            self._n_objects = data.shape[0]
            return
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        normed = self.quantizer.normalize(data)
        qv = self.quantizer.quantize(data)
        d = data.shape[1]
        self._floor_sums = qv.integers.sum(axis=1).astype(np.float64)
        self._sums = normed.sum(axis=1)
        phi_a_sq = d * (normed**2).sum(axis=1) - self._sums**2
        self._phi_a = np.sqrt(np.maximum(phi_a_sq, 0.0))
        self._dims = d
        side = (
            self._floor_sums.nbytes + self._sums.nbytes + self._phi_a.nbytes
        )
        self.controller.program(self._matrix_name, qv.integers, side)
        self._n_objects = data.shape[0]

    def _query_ints(self, query: np.ndarray) -> np.ndarray:
        return self.quantizer.quantize(query).integers

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if (
            self._floor_sums is None
            or self._sums is None
            or self._phi_a is None
            or self._dims is None
        ):
            raise OperandError(f"{self.name} is not prepared")
        query = np.asarray(query, dtype=np.float64)
        q_norm = self.quantizer.normalize(query)
        qq = self.quantizer.quantize(query)
        d = float(self._dims)
        q_floor_sum = float(qq.integers.sum())
        q_sum = float(q_norm.sum())
        q_phi_a = float(
            np.sqrt(max(d * float(q_norm @ q_norm) - q_sum**2, 0.0))
        )
        dots = self._wave(qq.integers)
        f_sums = (
            self._floor_sums if indices is None else self._floor_sums[indices]
        )
        sums = self._sums if indices is None else self._sums[indices]
        phi_a = self._phi_a if indices is None else self._phi_a[indices]
        dvals = dots if indices is None else dots[indices]
        dot_ub = (dvals + f_sums + q_floor_sum + d) / self.alpha**2
        numerator_ub = d * dot_ub - sums * q_sum
        denom = phi_a * q_phi_a
        ub = np.ones_like(numerator_ub)
        nonzero = denom > 0
        ub[nonzero] = numerator_ub[nonzero] / denom[nonzero]
        return np.clip(ub, -1.0, 1.0)

    @property
    def per_object_transfer_bits(self) -> float:
        # Phi_a, S_p, floor-sum and the dot result: one extra operand
        return pim_bound_transfer(self.operand_bits).bits_per_object + float(
            self.operand_bits
        )

    @property
    def per_object_long_ops(self) -> float:
        return 1.0


class PIMHammingDistance(Bound):
    """Exact Hamming distance on PIM (Table 4 decomposition).

    ``HD(p, q) = d - p.q - p~.q~`` needs two dot products; the code
    matrix and its bit complement are programmed separately and each
    query fires two waves, moving ``2 * 32`` result bits per object —
    which is why the paper finds PIM unattractive for short codes.

    Registered as a ``lower`` bound that *equals* the distance, so the
    standard pruning machinery applies (pruning with an exact value keeps
    results exact trivially).
    """

    _instances = 0

    def __init__(self, controller: PIMController) -> None:
        super().__init__(name="HD_PIM", kind=LOWER)
        self.controller = controller
        PIMHammingDistance._instances += 1
        self._code_name = f"HD#{PIMHammingDistance._instances}"
        self._comp_name = f"HDc#{PIMHammingDistance._instances}"
        self._dims: int | None = None
        self._last_key: bytes | None = None
        self._last_values: np.ndarray | None = None
        self._batch_cache: dict[bytes, np.ndarray] = {}

    @property
    def result_bits(self) -> int:
        """Width of one PIM result for binary codes (paper: 32)."""
        return min(32, self.controller.pim.config.accumulator_bits)

    def prepare(self, data: np.ndarray) -> None:
        codes = np.asarray(data)
        if codes.ndim != 2:
            raise OperandError("prepare() expects a (codes x bits) matrix")
        if not np.issubdtype(codes.dtype, np.integer):
            raise OperandError("binary codes must be integers")
        if codes.size and (int(codes.min()) < 0 or int(codes.max()) > 1):
            raise OperandError("binary codes may only contain 0 and 1")
        codes = codes.astype(np.int64)
        self.controller.program(self._code_name, codes)
        self.controller.program(self._comp_name, 1 - codes)
        self._dims = codes.shape[1]
        self._n_objects = codes.shape[0]

    def prime_queries(self, queries: np.ndarray) -> int:
        """Two batched waves (codes + complement) covering every query."""
        if self._dims is None:
            raise OperandError(f"{self.name} is not prepared")
        queries = np.atleast_2d(np.asarray(queries)).astype(np.int64)
        dots = self.controller.dot_products_batch(
            self._code_name, queries
        ).values
        comps = self.controller.dot_products_batch(
            self._comp_name, 1 - queries
        ).values
        distances = (self._dims - dots - comps).astype(np.float64)
        self._batch_cache = {
            row.tobytes(): distances[i] for i, row in enumerate(queries)
        }
        return queries.shape[0]

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._dims is None:
            raise OperandError(f"{self.name} is not prepared")
        query = np.asarray(query).astype(np.int64)
        key = query.tobytes()
        cached = self._batch_cache.get(key)
        if cached is not None:
            values = cached
        elif key == self._last_key and self._last_values is not None:
            values = self._last_values
        else:
            dot = self.controller.dot_products(self._code_name, query).values
            comp = self.controller.dot_products(
                self._comp_name, 1 - query
            ).values
            values = (self._dims - dot - comp).astype(np.float64)
            self._last_values = values
            self._last_key = key
        return values if indices is None else values[indices]

    @property
    def per_object_transfer_bits(self) -> float:
        return float(2 * self.result_bits)

    @property
    def per_object_flops(self) -> float:
        return 3.0

"""PIM-aware bound functions (paper Section V-B, Theorems 1-2).

These bounds do the O(d) part of their work on the PIM array: the
quantized integer dataset is programmed onto crossbars at the offline
stage, and one online *wave* yields the dot-product term for every object
at once. The host only combines three scalars per object (Fig. 8), so
the per-object memory->CPU transfer collapses from ``d*b`` to ``3*b``
bits — the source of the paper's speedups.

Every quantized bound has Table 4's shape ``F(p,q) = G(Phi(p), Phi(q),
p.q)`` and states it once, as three hooks of :class:`_PIMBoundBase`
(``_encode``, ``_query_terms`` and ``_combine``); the base owns
preparing, programming, waves and their caches.

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

import abc

import numpy as np

from repro.bounds.base import LOWER, UPPER, Bound, as_matrix, take_rows
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


def _dot_upper(dots, floor_sums, q_floor_sum, dims: int, alpha: float):
    """The floor inequality's upper bound of ``p.q`` (CS and PCC).

    ``p.q <= (floor(p).floor(q) + sum floor(p) + sum floor(q) + d)
    / alpha^2``.
    """
    return (dots + floor_sums + q_floor_sum + dims) / alpha**2


def _ratio_or_one(numerator: np.ndarray, denominator: np.ndarray):
    """``numerator / denominator``, 1 (never pruned) where it is not > 0."""
    out = np.ones_like(numerator)
    nonzero = denominator > 0
    out[nonzero] = numerator[nonzero] / denominator[nonzero]
    return out


class _PIMBoundBase(Bound):
    """One Table 4 bound ``F(p,q) = G(Phi(p), Phi(q), p.q)`` on PIM.

    A subclass states its bound in three hooks:

    * :meth:`_encode` — the dataset's integer matrix (programmed on the
      crossbars) and its per-object side arrays (``Phi(p)``, norms, ...;
      stored in the memory array, and charged there by their bytes);
    * :meth:`_query_terms` — one query's integer wave input and its
      scalars (``Phi(q)``, ...), computed once per query;
    * :meth:`_combine` — the host's ``G`` over the dot products, the
      side arrays and the query scalars, in that order.

    This base owns the rest. One wave computes dot products for *all*
    programmed objects; when a cascade later asks for a subset, the
    cached wave results and side arrays are sliced instead of re-firing
    the array.
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
        self._dims: int | None = None
        #: the side arrays :meth:`_encode` returned, row-aligned
        self._side: tuple[np.ndarray, ...] | None = None
        self._last_key: bytes | None = None
        self._last_values: np.ndarray | None = None
        self._batch_cache: dict[bytes, np.ndarray] = {}

    # ------------------------------------------------------------------
    # the bound's own terms
    # ------------------------------------------------------------------
    def _validate(self, data: np.ndarray) -> None:
        """Reject a dataset the bound cannot encode (before any fit)."""

    @abc.abstractmethod
    def _encode(
        self, data: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """``(integer matrix, per-object side arrays)`` of ``data``."""

    @abc.abstractmethod
    def _query_terms(self, query: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``(integer wave input, query scalars)`` of one ``query``."""

    @abc.abstractmethod
    def _combine(self, dots: np.ndarray, *terms) -> np.ndarray:
        """``G(dots, *side arrays, *query scalars)``: the bound values."""

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
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
            return False
        if data is held or (
            data.shape == held.shape and np.array_equal(data, held)
        ):
            return True
        raise OperandError(
            f"{self.name} is already programmed with a different dataset; "
            "create a fresh bound (re-programming wears the crossbars)"
        )

    def prepare(self, data: np.ndarray) -> None:
        data = as_matrix(data)
        if not self._already_prepared(data):
            self._validate(data)
            if not self.quantizer.is_fitted:
                self.quantizer.fit(data)
            ints, side = self._encode(data)
            self.controller.program(
                self._matrix_name, ints, sum(a.nbytes for a in side)
            )
            self._dims = data.shape[1]
            self._side = side
            self.prepared_on = data
        self._n_objects = data.shape[0]

    def _prepared_side(self) -> tuple[np.ndarray, ...]:
        if self._side is None:
            raise OperandError(f"{self.name} is not prepared")
        return self._side

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        side = self._prepared_side()
        ints, scalars = self._per_query(query, self._query_terms)
        dots = self._wave(ints)
        rows = (take_rows(values, indices) for values in (dots, *side))
        return self._combine(*rows, *scalars)

    @property
    def alpha(self) -> float:
        """Quantization scaling factor."""
        return self.quantizer.alpha

    @property
    def operand_bits(self) -> int:
        """Operand width used for transfer accounting."""
        return self.controller.pim.config.operand_bits

    # ------------------------------------------------------------------
    # waves
    # ------------------------------------------------------------------
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

    def _batch_wave(self, query_ints: np.ndarray) -> np.ndarray:
        """One batched wave, shape ``(n_queries, n_objects)``."""
        result = self.controller.dot_products_batch(
            self._matrix_name, query_ints
        )
        return self._compensated(result.values)

    def prime_queries(self, queries: np.ndarray) -> int:
        """Fire ONE batched wave covering every query's dot products.

        Subsequent :meth:`evaluate` calls on any of these queries (for
        any object subset) hit the cache instead of dispatching their
        own wave, so a workload of B queries pays one pipeline setup.
        Returns the number of queries dispatched (after intra-batch
        dedup). Priming replaces any previously primed batch.
        """
        self._prepared_side()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        # duplicate query vectors would waste wave slots; keep first
        unique: dict[bytes, np.ndarray] = {}
        for query in queries:
            ints = self._query_terms(query)[0]
            unique.setdefault(ints.tobytes(), ints)
        values = self._batch_wave(np.stack(list(unique.values())))
        self._batch_cache = dict(zip(unique, values))
        return len(unique)

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

    def _encode(self, data):
        qv = self.quantizer.quantize(data)
        return qv.integers, (qv.phi,)

    def _query_terms(self, query):
        qq = self.quantizer.quantize(query)
        return qq.integers, (float(qq.phi),)

    def _combine(self, dots, phi, phi_q):
        return theorem1_lower_bound(phi, phi_q, dots, self._dims, self.alpha)

    def evaluate_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Bounds for several queries at once, shape ``(N, n_queries)``.

        The queries ship as one batched wave (one pipeline setup plus
        per-query increments); used by the k-means assign step, which
        needs LB_PIM-ED of every point to every center each iteration.
        """
        (phi,) = self._prepared_side()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        qq = self.quantizer.quantize(queries)
        dots = self._batch_wave(qq.integers).T  # (N, n_queries)
        return self._combine(dots, phi[:, None], qq.phi[None, :])


class _PIMSegmentBound(_PIMBoundBase):
    """Theorem 2's shape over floored segment summaries of the scaled data.

    ``LB = max(0, l/alpha^2 * (Phi(p) + Phi(q) - 2 dot - c d'))`` with
    ``c`` = :attr:`_floor_terms`.
    """

    #: ``c`` above: 2 per floored summary (mean, std) of a segment
    _floor_terms: float

    def __init__(
        self,
        prefix: str,
        n_segments: int,
        controller: PIMController,
        quantizer: Quantizer | None,
    ) -> None:
        super().__init__(
            name=f"{prefix}_{n_segments}",
            kind=LOWER,
            controller=controller,
            quantizer=quantizer,
        )
        self.n_segments = n_segments

    def _summaries(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Scaled segment means/stds: (means, stds, segment_length)."""
        scaled = self.quantizer.scale(vectors)
        summary = summarize(scaled, self.n_segments)
        return (
            np.atleast_2d(summary.means),
            np.atleast_2d(summary.stds),
            summary.segment_length,
        )

    def _combine(self, dots, phi, phi_q):
        lb = (
            self._dims // self.n_segments
            / self.alpha**2
            * (phi + phi_q - 2.0 * dots - self._floor_terms * self.n_segments)
        )
        return np.maximum(lb, 0.0)


class PIMFNNBound(_PIMSegmentBound):
    """LB_PIM-FNN (Theorem 2): quantized lower bound of LB_FNN.

    Segment means and standard deviations of the *scaled* vectors are
    floored and programmed as one concatenated ``2 d'``-dimensional
    matrix, so a single wave delivers
    ``floor(mu_p).floor(mu_q) + floor(sigma_p).floor(sigma_q)``:

    ``LB = max(0, l/alpha^2 * (Phi(p) + Phi(q) - 2 dot - 4 d'))``.
    """

    _floor_terms = 4.0

    def __init__(
        self,
        n_segments: int,
        controller: PIMController,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__("LB_PIM-FNN", n_segments, controller, quantizer)

    def _encode(self, data):
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
        return floors, (phi - 2.0 * floors.sum(axis=1),)

    def _query_terms(self, query):
        """The query's floored summary and ``Phi(q)``."""
        means, stds, _ = self._summaries(query)
        q_floors = np.floor(np.concatenate([means[0], stds[0]])).astype(
            np.int64
        )
        phi_q = float(
            (means**2).sum() + (stds**2).sum() - 2.0 * q_floors.sum()
        )
        return q_floors, (phi_q,)


class PIMSMBound(_PIMSegmentBound):
    """PIM-aware bound of LB_SM: quantized segment-means lower bound.

    Identical derivation to Theorem 2 restricted to the mean terms:
    ``LB = max(0, l/alpha^2 * (Phi(p) + Phi(q) - 2 dot - 2 d'))`` with
    ``Phi(p) = sum mu_bar^2 - 2 sum floor(mu_bar)``. Lower-bounds LB_SM
    and therefore the squared ED.
    """

    _floor_terms = 2.0

    def __init__(
        self,
        n_segments: int,
        controller: PIMController,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__("LB_PIM-SM", n_segments, controller, quantizer)

    def _encode(self, data):
        means = self._summaries(data)[0]
        floors = np.floor(means).astype(np.int64)
        return floors, ((means**2).sum(axis=1) - 2.0 * floors.sum(axis=1),)

    def _query_terms(self, query):
        """The query's floored segment means and ``Phi(q)``."""
        means = self._summaries(query)[0][0]
        q_floors = np.floor(means).astype(np.int64)
        return q_floors, (float((means**2).sum() - 2.0 * q_floors.sum()),)


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

    def _validate(self, data):
        if data.shape[1] <= self.head_dims:
            raise OperandError("head_dims must be below the data dims")

    def _encode(self, data):
        head = self.quantizer.scale(data)[:, : self.head_dims]
        floors = np.floor(head).astype(np.int64)
        phi = (head**2).sum(axis=1) - 2.0 * floors.sum(axis=1)
        normed = self.quantizer.normalize(data)
        tails = np.linalg.norm(normed[:, self.head_dims :], axis=1)
        return floors, (phi, tails)

    def _query_terms(self, query):
        head = self.quantizer.scale(query)[: self.head_dims]
        q_floors = np.floor(head).astype(np.int64)
        phi_q = float((head**2).sum() - 2.0 * q_floors.sum())
        q_tail = float(
            np.linalg.norm(self.quantizer.normalize(query)[self.head_dims :])
        )
        return q_floors, (phi_q, q_tail)

    def _combine(self, dots, phi, tails, phi_q, q_tail):
        head_lb = theorem1_lower_bound(
            phi, phi_q, dots, self.head_dims, self.alpha
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

    def _encode(self, data):
        qv = self.quantizer.quantize(data)
        floor_sums = qv.integers.sum(axis=1).astype(np.float64)
        norms = np.linalg.norm(self.quantizer.normalize(data), axis=1)
        return qv.integers, (floor_sums, norms)

    def _query_terms(self, query):
        qq = self.quantizer.quantize(query)
        q_norm = float(np.linalg.norm(self.quantizer.normalize(query)))
        return qq.integers, (float(qq.integers.sum()), q_norm)

    def _combine(self, dots, floor_sums, norms, q_floor_sum, q_norm):
        dot_ub = _dot_upper(
            dots, floor_sums, q_floor_sum, self._dims, self.alpha
        )
        return np.minimum(_ratio_or_one(dot_ub, norms * q_norm), 1.0)

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

    def _encode(self, data):
        normed = self.quantizer.normalize(data)
        qv = self.quantizer.quantize(data)
        floor_sums = qv.integers.sum(axis=1).astype(np.float64)
        sums = normed.sum(axis=1)
        phi_a_sq = data.shape[1] * (normed**2).sum(axis=1) - sums**2
        phi_a = np.sqrt(np.maximum(phi_a_sq, 0.0))
        return qv.integers, (floor_sums, sums, phi_a)

    def _query_terms(self, query):
        normed = self.quantizer.normalize(query)
        qq = self.quantizer.quantize(query)
        q_sum = float(normed.sum())
        q_phi_a = float(
            np.sqrt(max(self._dims * float(normed @ normed) - q_sum**2, 0.0))
        )
        return qq.integers, (float(qq.integers.sum()), q_sum, q_phi_a)

    def _combine(
        self, dots, floor_sums, sums, phi_a, q_floor_sum, q_sum, q_phi_a
    ):
        dot_ub = _dot_upper(
            dots, floor_sums, q_floor_sum, self._dims, self.alpha
        )
        numerator_ub = self._dims * dot_ub - sums * q_sum
        return np.clip(
            _ratio_or_one(numerator_ub, phi_a * q_phi_a), -1.0, 1.0
        )

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

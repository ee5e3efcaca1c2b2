"""Maximum inner-product search (MIPS), the reduction the paper uses
for CS/PCC (Section II-C: "the computation can be reduced to the
maximum dot-product search problem").

* :class:`StandardMIPS` — LEMP-style baseline: objects sorted by norm;
  the running best inner product prunes whole suffixes because
  ``p.q <= |p| |q|`` (Cauchy-Schwarz), and UB_part screens survivors;
* :class:`PIMMIPS` — the quantized floor inequalities give *two-sided*
  bounds on every inner product from a single PIM wave:
  ``dot/alpha^2 <= p.q <= (dot + S_p + S_q + d)/alpha^2``;
  candidates whose upper bound cannot beat the best lower bound are
  dropped without touching their coordinates.

Both return the exact top-t inner products, asserted by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.ed import PartitionUpperBound
from repro.cost.counters import OTHER, PerfCounters
from repro.errors import ConfigurationError, OperandError
from repro.hardware.controller import PIMController
from repro.kernels import canonical_topk
from repro.mining.knn.base import OPERAND_BYTES
from repro.similarity.quantization import Quantizer


@dataclass
class MIPSResult:
    """Top-t inner products, best first."""

    indices: np.ndarray
    products: np.ndarray
    counters: PerfCounters
    pim_time_ns: float = 0.0
    exact_computations: int = 0


def _dots(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Inner products of ``rows`` with ``q``, each row reduced on its
    own, so a product's bits do not depend on which rows share the call
    (those of a BLAS ``gemv`` do)."""
    return np.einsum("ij,j->i", np.atleast_2d(rows), q)


class _BaseMIPS:
    name = "mips"

    def __init__(self, top: int = 10) -> None:
        if top <= 0:
            raise ConfigurationError("top must be positive")
        self.top = top
        self._data: np.ndarray | None = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise OperandError(f"{self.name} is not fitted")
        return self._data

    def fit(self, data: np.ndarray) -> "_BaseMIPS":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < self.top:
            raise OperandError("fit() needs a 2-D dataset with >= top rows")
        self._data = data
        self._prepare(data)
        return self

    def _prepare(self, data: np.ndarray) -> None:
        """Hook for subclasses."""

    def _charge_dot(self, counters: PerfCounters, n: int) -> None:
        d = self.data.shape[1]
        counters.record(
            "dot",
            calls=n,
            flops=2.0 * d * n,
            bytes_from_memory=d * OPERAND_BYTES * n,
            branches=float(n),
        )

    def _finalize(
        self,
        indices: list[int],
        products: list[float],
        counters: PerfCounters,
        pim_time_ns: float,
        exact: int,
    ) -> MIPSResult:
        # the canonical top-t of the negated products: ties go to the
        # lowest index, whichever order scored them
        negated, top = canonical_topk(
            -np.array(products, dtype=np.float64),
            np.array(indices, dtype=np.int64),
            self.top,
        )
        return MIPSResult(
            indices=top,
            products=-negated,
            counters=counters,
            pim_time_ns=pim_time_ns,
            exact_computations=exact,
        )


class StandardMIPS(_BaseMIPS):
    """Norm-sorted scan with Cauchy-Schwarz suffix pruning + UB_part."""

    name = "LEMP"
    offloadable_functions = ("dot", "UB_part")

    def __init__(self, top: int = 10, head_dims: int | None = None) -> None:
        super().__init__(top)
        self.head_dims = head_dims
        self._norm_order: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._ub: PartitionUpperBound | None = None

    def _prepare(self, data: np.ndarray) -> None:
        self._norms = np.linalg.norm(data, axis=1)
        self._norm_order = np.argsort(-self._norms)
        head = (
            self.head_dims
            if self.head_dims is not None
            else max(1, data.shape[1] // 4)
        )
        self._ub = PartitionUpperBound(
            head_dims=head, normalize=False
        )
        self._ub.prepare(data)

    def query(self, q: np.ndarray) -> MIPSResult:
        """Exact top-t inner products with ``q``."""
        data = self.data
        counters = PerfCounters()
        q = np.asarray(q, dtype=np.float64)
        q_norm = float(np.linalg.norm(q))
        kept_idx: list[int] = []
        kept_val: list[float] = []
        threshold = -np.inf
        exact = 0
        for i in self._norm_order:
            i = int(i)
            cs_cap = self._norms[i] * q_norm
            counters.record(OTHER, flops=1.0, branches=1.0)
            if len(kept_val) >= self.top and cs_cap <= threshold:
                break  # norm-sorted: every later cap is smaller
            ub = float(self._ub.evaluate(q, np.array([i]))[0])
            self._ub.charge(counters, 1)
            if len(kept_val) >= self.top and ub <= threshold:
                continue
            value = float(_dots(data[i], q)[0])
            exact += 1
            kept_idx.append(i)
            kept_val.append(value)
            if len(kept_val) >= self.top:
                threshold = float(np.sort(kept_val)[-self.top])
        self._charge_dot(counters, exact)
        return self._finalize(kept_idx, kept_val, counters, 0.0, exact)


class PIMMIPS(_BaseMIPS):
    """MIPS with two-sided quantized bounds from one PIM wave."""

    name = "LEMP-PIM"
    offloadable_functions = ("dot", "LB/UB_PIM-dot")

    def __init__(
        self,
        top: int = 10,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
    ) -> None:
        super().__init__(top)
        self.controller = (
            controller if controller is not None else PIMController()
        )
        self.quantizer = (
            quantizer
            if quantizer is not None
            else Quantizer(assume_normalized=True)
        )
        self._floor_sums: np.ndarray | None = None
        self._matrix_name = f"MIPS#{id(self)}"

    def _prepare(self, data: np.ndarray) -> None:
        if not self.quantizer.is_fitted:
            self.quantizer.fit(data)
        qv = self.quantizer.quantize(data)
        self._floor_sums = qv.integers.sum(axis=1).astype(np.float64)
        self.controller.program(
            self._matrix_name, qv.integers, self._floor_sums.nbytes
        )

    def query(self, q: np.ndarray) -> MIPSResult:
        """Exact top-t inner products using PIM dot bounds."""
        data = self.data
        n, d = data.shape
        counters = PerfCounters()
        pim_before = self.controller.pim.stats.pim_time_ns
        qq = self.quantizer.quantize(np.asarray(q, dtype=np.float64))
        dots = self.controller.dot_products(
            self._matrix_name, qq.integers
        ).values.astype(np.float64)
        alpha_sq = self.quantizer.alpha**2
        lower = dots / alpha_sq
        upper = (dots + self._floor_sums + qq.integers.sum() + d) / alpha_sq
        counters.record(
            "LB/UB_PIM-dot",
            calls=n,
            flops=6.0 * n,
            bytes_from_memory=3 * OPERAND_BYTES * n,
            branches=float(n),
        )

        # the top-t by guaranteed lower bound set the admission threshold
        threshold = float(np.sort(lower)[-self.top])
        candidates = np.nonzero(upper >= threshold)[0]
        values = _dots(data[candidates], np.asarray(q, dtype=np.float64))
        exact = int(candidates.size)
        self._charge_dot(counters, exact)
        pim_after = self.controller.pim.stats.pim_time_ns
        return self._finalize(
            [int(i) for i in candidates],
            [float(v) for v in values],
            counters,
            pim_after - pim_before,
            exact,
        )

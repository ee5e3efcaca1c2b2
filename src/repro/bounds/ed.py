"""CPU bound functions of paper Table 3 (the baselines' filters).

* :class:`OSTBound` — LB_OST (Liaw et al.): exact head distance over the
  first ``d0`` dimensions plus the squared difference of tail norms.
* :class:`SMBound` — LB_SM (Yi & Faloutsos): segmented-mean distance.
* :class:`FNNBound` — LB_FNN (Hwang et al.): segmented mean *and*
  standard deviation distance; the FNN algorithm stacks several of these
  at increasing resolution (``d/64, d/16, d/4`` segments).
* :class:`PartitionUpperBound` — UB_part (LEMP): upper bound on a dot
  product, used for cosine-similarity kNN.

All are lower bounds of the squared ED (upper bound of CS for UB_part);
property tests verify the inequalities on random data.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import LOWER, UPPER, Bound
from repro.errors import ConfigurationError, OperandError
from repro.similarity.segments import summarize


def _as_matrix(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise OperandError("prepare() expects a (vectors x dims) matrix")
    return data


class OSTBound(Bound):
    """LB_OST: head-exact, tail-norm lower bound of squared ED.

    ``LB_OST(p, q) = sum_{i<=d0} (p_i - q_i)^2
    + (sqrt(sum_{i>d0} p_i^2) - sqrt(sum_{i>d0} q_i^2))^2``

    Parameters
    ----------
    head_dims:
        The split point ``d0``.
    operand_bits:
        Width used for transfer accounting (floats move 32-bit values in
        the paper's C++ baselines).
    """

    def __init__(self, head_dims: int, operand_bits: int = 32) -> None:
        super().__init__(name=f"LB_OST_{head_dims}", kind=LOWER)
        if head_dims <= 0:
            raise ConfigurationError("head_dims must be positive")
        self.head_dims = head_dims
        self.operand_bits = operand_bits
        self._heads: np.ndarray | None = None
        self._tail_norms: np.ndarray | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = _as_matrix(data)
        if data.shape[1] < self.head_dims:
            raise ConfigurationError(
                f"head_dims {self.head_dims} exceeds data dims {data.shape[1]}"
            )
        self._heads = data[:, : self.head_dims].copy()
        self._tail_norms = np.linalg.norm(data[:, self.head_dims :], axis=1)
        self._n_objects = data.shape[0]

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._heads is None or self._tail_norms is None:
            raise OperandError(f"{self.name} is not prepared")
        query = np.asarray(query, dtype=np.float64)
        q_head = query[: self.head_dims]
        q_tail_norm = float(np.linalg.norm(query[self.head_dims :]))
        heads = self._heads if indices is None else self._heads[indices]
        tails = (
            self._tail_norms if indices is None else self._tail_norms[indices]
        )
        diff = heads - q_head
        head_part = np.einsum("ij,ij->i", diff, diff)
        tail_part = (tails - q_tail_norm) ** 2
        return head_part + tail_part

    @property
    def per_object_transfer_bits(self) -> float:
        return float((self.head_dims + 1) * self.operand_bits)

    @property
    def per_object_flops(self) -> float:
        return 3.0 * self.head_dims + 3.0


class SMBound(Bound):
    """LB_SM: segmented-means lower bound of squared ED.

    ``LB_SM(p, q) = l * sum_i (mu(p_i) - mu(q_i))^2``
    """

    def __init__(self, n_segments: int, operand_bits: int = 32) -> None:
        super().__init__(name=f"LB_SM_{n_segments}", kind=LOWER)
        if n_segments <= 0:
            raise ConfigurationError("n_segments must be positive")
        self.n_segments = n_segments
        self.operand_bits = operand_bits
        self._means: np.ndarray | None = None
        self._segment_length: int | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = _as_matrix(data)
        summary = summarize(data, self.n_segments)
        self._means = summary.means
        self._segment_length = summary.segment_length
        self._n_objects = data.shape[0]
        self.prepared_on = data

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if self._means is None or self._segment_length is None:
            raise OperandError(f"{self.name} is not prepared")
        q_means = self._per_query(
            query, lambda q: summarize(q, self.n_segments).means
        )
        means = self._means if indices is None else self._means[indices]
        diff = means - q_means
        return self._segment_length * np.einsum("ij,ij->i", diff, diff)

    @property
    def per_object_transfer_bits(self) -> float:
        return float(self.n_segments * self.operand_bits)

    @property
    def per_object_flops(self) -> float:
        return 3.0 * self.n_segments + 1.0


class FNNBound(Bound):
    """LB_FNN: segment mean + std lower bound of squared ED.

    ``LB_FNN(p, q) = l * sum_i ((mu_p,i - mu_q,i)^2 + (sigma_p,i - sigma_q,i)^2)``
    """

    def __init__(self, n_segments: int, operand_bits: int = 32) -> None:
        super().__init__(name=f"LB_FNN_{n_segments}", kind=LOWER)
        if n_segments <= 0:
            raise ConfigurationError("n_segments must be positive")
        self.n_segments = n_segments
        self.operand_bits = operand_bits
        self._means: np.ndarray | None = None
        self._stds: np.ndarray | None = None
        self._segment_length: int | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = _as_matrix(data)
        summary = summarize(data, self.n_segments)
        self._means = summary.means
        self._stds = summary.stds
        self._segment_length = summary.segment_length
        self._n_objects = data.shape[0]
        self.prepared_on = data

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if (
            self._means is None
            or self._stds is None
            or self._segment_length is None
        ):
            raise OperandError(f"{self.name} is not prepared")
        q_summary = self._per_query(
            query, lambda q: summarize(q, self.n_segments)
        )
        means = self._means if indices is None else self._means[indices]
        stds = self._stds if indices is None else self._stds[indices]
        mu_diff = means - q_summary.means
        sd_diff = stds - q_summary.stds
        return self._segment_length * (
            np.einsum("ij,ij->i", mu_diff, mu_diff)
            + np.einsum("ij,ij->i", sd_diff, sd_diff)
        )

    @property
    def per_object_transfer_bits(self) -> float:
        # means and stds are both fetched per object
        return float(2 * self.n_segments * self.operand_bits)

    @property
    def per_object_flops(self) -> float:
        return 6.0 * self.n_segments + 1.0


class PartitionUpperBound(Bound):
    """UB_part (LEMP): upper bound of the dot product / cosine similarity.

    ``UB_part(p, q) = sum_{i<=d0} p_i q_i
    + sqrt(sum_{i>d0} p_i^2) * sqrt(sum_{i>d0} q_i^2)``

    holds by Cauchy-Schwarz on the tail. With ``normalize=True`` the
    bound is divided by ``|p| |q|``, upper-bounding cosine similarity.
    """

    def __init__(
        self, head_dims: int, operand_bits: int = 32, normalize: bool = True
    ) -> None:
        super().__init__(name=f"UB_part_{head_dims}", kind=UPPER)
        if head_dims <= 0:
            raise ConfigurationError("head_dims must be positive")
        self.head_dims = head_dims
        self.operand_bits = operand_bits
        self.normalize = normalize
        self._heads: np.ndarray | None = None
        self._tail_norms: np.ndarray | None = None
        self._full_norms: np.ndarray | None = None

    def prepare(self, data: np.ndarray) -> None:
        data = _as_matrix(data)
        if data.shape[1] < self.head_dims:
            raise ConfigurationError(
                f"head_dims {self.head_dims} exceeds data dims {data.shape[1]}"
            )
        self._heads = data[:, : self.head_dims].copy()
        self._tail_norms = np.linalg.norm(data[:, self.head_dims :], axis=1)
        self._full_norms = np.linalg.norm(data, axis=1)
        self._n_objects = data.shape[0]

    def evaluate(
        self, query: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        if (
            self._heads is None
            or self._tail_norms is None
            or self._full_norms is None
        ):
            raise OperandError(f"{self.name} is not prepared")
        query = np.asarray(query, dtype=np.float64)
        q_head = query[: self.head_dims]
        q_tail_norm = float(np.linalg.norm(query[self.head_dims :]))
        heads = self._heads if indices is None else self._heads[indices]
        tails = (
            self._tail_norms if indices is None else self._tail_norms[indices]
        )
        dot_ub = heads @ q_head + tails * q_tail_norm
        if not self.normalize:
            return dot_ub
        norms = (
            self._full_norms if indices is None else self._full_norms[indices]
        )
        q_norm = float(np.linalg.norm(query))
        denom = norms * q_norm
        out = np.zeros_like(dot_ub)
        nonzero = denom > 0
        out[nonzero] = dot_ub[nonzero] / denom[nonzero]
        return out

    @property
    def per_object_transfer_bits(self) -> float:
        return float((self.head_dims + 2) * self.operand_bits)

    @property
    def per_object_flops(self) -> float:
        return 2.0 * self.head_dims + 4.0

    @property
    def per_object_long_ops(self) -> float:
        return 1.0 if self.normalize else 0.0

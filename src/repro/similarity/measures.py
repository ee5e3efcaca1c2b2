"""Similarity measures of paper Table 2: ED, CS, PCC, HD.

Conventions (matching the paper):

* ``euclidean`` is the **squared** Euclidean distance — the paper's
  ``ED(p, q) = sum_i (p_i - q_i)^2`` carries no square root, and every
  bound in Table 3 bounds this squared form.
* ``cosine`` and ``pearson`` are *similarities* (higher = closer), so
  kNN under them maximises; their PIM-aware bounds are upper bounds.
* ``hamming`` operates on 0/1 integer vectors.

Every measure comes in a scalar form (one pair) and a batch form (one
query against a matrix); batch forms are what the mining algorithms use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperandError

#: Canonical measure names accepted throughout the library.
MEASURES = ("euclidean", "cosine", "pearson", "hamming")

#: Measures for which larger values mean more similar.
SIMILARITY_MEASURES = frozenset({"cosine", "pearson"})


def _check_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise OperandError(
            f"expected two vectors of equal length, got {p.shape} vs {q.shape}"
        )
    return p, q


def euclidean(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Euclidean distance (paper Table 2, no square root)."""
    p, q = _check_pair(p, q)
    diff = p - q
    return float(diff @ diff)


def euclidean_batch(data: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of ``q`` to every row of ``data``."""
    data = np.asarray(data, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    diff = data - q
    return np.einsum("ij,ij->i", diff, diff)


def cosine(p: np.ndarray, q: np.ndarray) -> float:
    """Cosine similarity ``p.q / (|p| |q|)``.

    Zero vectors yield similarity 0 rather than NaN.
    """
    p, q = _check_pair(p, q)
    denom = float(np.linalg.norm(p) * np.linalg.norm(q))
    if denom == 0.0:
        return 0.0
    return float(p @ q) / denom


def cosine_batch(data: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``q`` to every row of ``data``.

    einsum reduces each row on its own (BLAS ``data @ q`` blocks across
    rows), so a row scores the same bits alone, in a block or in all.
    """
    data = np.asarray(data, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", data, data)) * np.linalg.norm(q)
    dots = np.einsum("ij,j->i", data, q)
    out = np.zeros(data.shape[0], dtype=np.float64)
    nonzero = norms > 0
    out[nonzero] = dots[nonzero] / norms[nonzero]
    return out


def pearson(p: np.ndarray, q: np.ndarray) -> float:
    """Pearson correlation coefficient.

    Constant vectors (zero standard deviation) yield 0 rather than NaN.
    """
    p, q = _check_pair(p, q)
    pc = p - p.mean()
    qc = q - q.mean()
    denom = float(np.linalg.norm(pc) * np.linalg.norm(qc))
    if denom == 0.0:
        return 0.0
    return float(pc @ qc) / denom


def pearson_batch(data: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pearson correlation of ``q`` with every row of ``data``: the
    cosine similarity of the mean-centred vectors."""
    data = np.asarray(data, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return cosine_batch(data - data.mean(axis=1, keepdims=True), q - q.mean())


def hamming(p: np.ndarray, q: np.ndarray) -> int:
    """Hamming distance between two 0/1 integer vectors."""
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape != q.shape or p.ndim != 1:
        raise OperandError("expected two binary vectors of equal length")
    _check_binary(p)
    _check_binary(q)
    return int(np.count_nonzero(p != q))


def hamming_batch(codes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamming distance of ``q`` to every row of binary matrix ``codes``."""
    codes = np.asarray(codes)
    q = np.asarray(q)
    _check_binary(codes)
    _check_binary(q)
    return np.count_nonzero(codes != q, axis=1)


def _check_binary(values: np.ndarray) -> None:
    if not np.issubdtype(values.dtype, np.integer):
        raise OperandError("binary vectors must have an integer dtype")
    if values.size and (int(values.min()) < 0 or int(values.max()) > 1):
        raise OperandError("binary vectors may only contain 0 and 1")


def compute(measure: str, p: np.ndarray, q: np.ndarray) -> float:
    """Dispatch to a measure by name."""
    try:
        fn = _SCALAR[measure]
    except KeyError:
        raise OperandError(
            f"unknown measure {measure!r}; expected one of {MEASURES}"
        ) from None
    return float(fn(p, q))


def compute_batch(measure: str, data: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Dispatch to a batch measure by name."""
    try:
        fn = _BATCH[measure]
    except KeyError:
        raise OperandError(
            f"unknown measure {measure!r}; expected one of {MEASURES}"
        ) from None
    return fn(data, q)


def is_similarity(measure: str) -> bool:
    """True when larger values mean more similar (CS, PCC)."""
    if measure not in MEASURES:
        raise OperandError(
            f"unknown measure {measure!r}; expected one of {MEASURES}"
        )
    return measure in SIMILARITY_MEASURES


_SCALAR = {
    "euclidean": euclidean,
    "cosine": cosine,
    "pearson": pearson,
    "hamming": hamming,
}
_BATCH = {
    "euclidean": euclidean_batch,
    "cosine": cosine_batch,
    "pearson": pearson_batch,
    "hamming": hamming_batch,
}

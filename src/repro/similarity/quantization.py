"""Quantization of floating-point vectors to PIM operands (Section V-B).

ReRAM crossbars only accept non-negative integers. The paper's recipe
(Eqs. 5-6): min-max normalise the dataset to ``[0, 1]``, scale by a
factor ``alpha`` (default 1e6) and truncate to the integer part. The
induced looseness of the PIM-aware bounds is bounded by Theorem 3:

``ED - LB_PIM-ED <= 4d/alpha + 2d/alpha**2``.

:class:`Quantizer` owns the normalisation statistics so queries arriving
at the online stage are mapped with the *dataset's* ranges (values are
clipped into them, exactly as normalising a new query against fixed
min/max would).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, OperandError

#: The paper's default scaling factor.
DEFAULT_ALPHA = 10**6


def theorem3_error_bound(dims: int, alpha: float) -> float:
    """Upper bound on ``ED - LB_PIM-ED`` (Theorem 3)."""
    if dims <= 0 or alpha <= 0:
        raise ConfigurationError("dims and alpha must be positive")
    return 4.0 * dims / alpha + 2.0 * dims / alpha**2


def required_operand_bits(alpha: float) -> int:
    """Bits needed to store a quantized value (max value is ``alpha``)."""
    return int(np.ceil(np.log2(float(alpha) + 1.0)))


@dataclass(frozen=True)
class QuantizedVector:
    """A quantized vector and its scaled floating-point original.

    Attributes
    ----------
    scaled:
        ``p_bar = p * alpha`` (normalised then scaled), float64.
    integers:
        ``floor(p_bar)`` — the crossbar operands.
    """

    scaled: np.ndarray
    integers: np.ndarray


class Quantizer:
    """Min-max normalisation + alpha scaling + floor truncation.

    Parameters
    ----------
    alpha:
        Scaling factor; larger alpha = tighter bounds (Theorem 3) but
        wider operands.

    The quantizer must be :meth:`fit` on the dataset before use; queries
    are transformed with the stored ranges and clipped into ``[0, 1]``.
    """

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, assume_normalized: bool = False
    ) -> None:
        if alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        self.alpha = float(alpha)
        self.assume_normalized = assume_normalized
        self._min: np.ndarray | None = None
        self._range: np.ndarray | None = None

    @classmethod
    def for_operand_bits(
        cls, operand_bits: int, assume_normalized: bool = False
    ) -> "Quantizer":
        """The tightest quantizer whose values fit ``operand_bits``.

        Theorem 3 says larger alpha is strictly tighter, so the best
        alpha for a device is the largest one the operand width can
        hold: ``alpha = 2**bits - 1``.
        """
        if operand_bits < 1:
            raise ConfigurationError("operand_bits must be >= 1")
        return cls(
            alpha=float((1 << operand_bits) - 1),
            assume_normalized=assume_normalized,
        )

    @property
    def is_fitted(self) -> bool:
        """Whether dataset statistics have been learned."""
        return self._min is not None

    @property
    def operand_bits(self) -> int:
        """Bits needed per quantized operand."""
        return required_operand_bits(self.alpha)

    def fit(self, data: np.ndarray) -> "Quantizer":
        """Learn per-dimension min/max from the dataset.

        Constant dimensions get range 1 so they normalise to 0 without
        dividing by zero.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise OperandError("fit() expects a 2-D (vectors x dims) array")
        if self.assume_normalized:
            if data.size and (data.min() < 0.0 or data.max() > 1.0):
                raise OperandError(
                    "assume_normalized quantizer given data outside [0, 1]"
                )
            dims = data.shape[1]
            self._min = np.zeros(dims)
            self._range = np.ones(dims)
            return self
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        rng = hi - lo
        rng[rng == 0] = 1.0
        self._min = lo
        self._range = rng
        return self

    def normalize(self, vectors: np.ndarray) -> np.ndarray:
        """Map raw values into ``[0, 1]`` with the fitted ranges."""
        if self._min is None or self._range is None:
            raise OperandError("quantizer must be fitted before use")
        vectors = np.asarray(vectors, dtype=np.float64)
        if self.assume_normalized:
            # min 0 and range 1 make the map below the identity, bit for bit
            return np.clip(vectors, 0.0, 1.0)
        normed = (vectors - self._min) / self._range
        return np.clip(normed, 0.0, 1.0)

    def scale(self, vectors: np.ndarray) -> np.ndarray:
        """``p_bar = normalize(p) * alpha`` (Eq. 5)."""
        return self.normalize(vectors) * self.alpha

    def quantize(self, vectors: np.ndarray) -> QuantizedVector:
        """Full pipeline: normalise, scale, floor (Eqs. 5-6)."""
        scaled = self.scale(vectors)
        integers = np.floor(scaled).astype(np.int64)
        return QuantizedVector(scaled=scaled, integers=integers)

    def fit_quantize(self, data: np.ndarray) -> QuantizedVector:
        """Convenience: :meth:`fit` then :meth:`quantize` the dataset."""
        return self.fit(data).quantize(data)

    def export_state(self) -> dict:
        """The fitted statistics, for checkpointing.

        Returns ``alpha``, ``assume_normalized`` and — when fitted —
        the per-dimension ``min``/``range`` arrays. A quantizer rebuilt
        with :meth:`from_state` maps every vector bit-identically, so
        a restored service quantizes queries exactly as the original.
        """
        state = {
            "alpha": self.alpha,
            "assume_normalized": bool(self.assume_normalized),
            "fitted": self.is_fitted,
        }
        if self.is_fitted:
            state["min"] = np.array(self._min, dtype=np.float64)
            state["range"] = np.array(self._range, dtype=np.float64)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "Quantizer":
        """Rebuild a quantizer from :meth:`export_state` output."""
        q = cls(
            alpha=float(state["alpha"]),
            assume_normalized=bool(state["assume_normalized"]),
        )
        if state.get("fitted"):
            q._min = np.asarray(state["min"], dtype=np.float64)
            q._range = np.asarray(state["range"], dtype=np.float64)
        return q

    def error_bound(self, dims: int) -> float:
        """Theorem 3 bound for this quantizer's alpha."""
        return theorem3_error_bound(dims, self.alpha)

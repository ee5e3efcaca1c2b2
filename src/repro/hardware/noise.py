"""Analog non-ideality model for ReRAM crossbars.

The paper's Section II-A argues *against* computing similarity values
directly in analog PIM: GraphR-style fixed-point approximation "may
compromise the accuracy of results in data mining tasks (e.g., kNN
classification)"; the paper instead computes *bounds* on PIM and
refines survivors exactly on the host. This module makes that argument
quantitative:

* :class:`NoiseModel` — bounded multiplicative cell/read noise (each
  analog product is off by a factor in ``[1-e, 1+e]`` with
  ``e <= 3*cell_sigma``) plus ADC quantization with a known step;
* :class:`NoisyPIMArray` — a drop-in PIM array whose waves return
  perturbed dot products, with the *worst-case* error bounds exposed;
* :func:`compensate_dot_upper` / :func:`compensate_dot_lower` — recover
  safe bounds on the true dot product from a noisy reading, so bound
  functions stay correct under noise (at some tightness cost).

The noise-accuracy bench contrasts (a) trusting noisy analog values as
distances — accuracy degrades — with (b) the paper's bound-and-refine
under the same noise with compensation — results stay exact.

Composability with fault injection: a
:class:`~repro.faults.injectors.FaultyPIMArray` hooks into *any*
device's dispatch — including a :class:`NoisyPIMArray`, whose
perturbed ``_values`` it sees before acting — so analog noise and
injected faults (stuck cells, corrupted waves, latency spikes,
crossbar death) stack, noise first. Note that residue verification
(:mod:`repro.faults.integrity`) assumes the exact digital path; under
analog noise every wave would flag, so serving-level ``verify`` must
stay off for noisy arrays and corruption is handled by compensation
bounds instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.config import HardwareConfig
from repro.hardware.pim_array import PIMArray

#: Noise samples are truncated at this many standard deviations so the
#: worst-case compensation bound is finite and provable.
TRUNCATION_SIGMAS = 3.0


@dataclass(frozen=True)
class NoiseModel:
    """Bounded analog error description.

    Attributes
    ----------
    cell_sigma:
        Relative standard deviation of each analog product (device
        conductance variation + read noise), truncated at
        :data:`TRUNCATION_SIGMAS`.
    adc_step:
        Quantization step of the digitised result (absolute units of
        the integer dot product); 0 disables quantization.
    seed:
        RNG seed for reproducible noise.
    """

    cell_sigma: float = 0.0
    adc_step: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cell_sigma < 0 or self.adc_step < 0:
            raise ConfigurationError("noise magnitudes must be >= 0")
        if self.cell_sigma * TRUNCATION_SIGMAS >= 1.0:
            raise ConfigurationError(
                "cell_sigma too large: worst-case error reaches 100%"
            )

    @property
    def relative_error_bound(self) -> float:
        """Largest possible relative error of a dot-product reading."""
        return TRUNCATION_SIGMAS * self.cell_sigma

    @property
    def additive_error_bound(self) -> float:
        """Largest possible additive error (ADC rounding)."""
        return self.adc_step / 2.0

    @property
    def is_ideal(self) -> bool:
        """True when the model introduces no error."""
        return self.cell_sigma == 0.0 and self.adc_step == 0.0


#: Relative inflation applied to compensated bounds so floating-point
#: rounding in the division can never flip a guarantee.
_ROUNDING_GUARD = 1e-9


def compensate_dot_upper(noisy: np.ndarray, model: NoiseModel) -> np.ndarray:
    """A guaranteed *upper* bound on the true dot product.

    With ``true*(1-e) - a <= noisy <= true*(1+e) + a`` (e the relative
    cap, a the additive cap) and non-negative operands:
    ``true <= (noisy + a) / (1 - e)``.
    """
    e = model.relative_error_bound
    a = model.additive_error_bound
    upper = (np.asarray(noisy, dtype=np.float64) + a) / (1.0 - e)
    return upper * (1.0 + _ROUNDING_GUARD)


def compensate_dot_lower(noisy: np.ndarray, model: NoiseModel) -> np.ndarray:
    """A guaranteed *lower* bound on the true dot product (clipped >= 0)."""
    e = model.relative_error_bound
    a = model.additive_error_bound
    lower = (np.asarray(noisy, dtype=np.float64) - a) / (1.0 + e)
    return np.maximum(lower * (1.0 - _ROUNDING_GUARD), 0.0)


class NoisyPIMArray(PIMArray):
    """A PIM array whose analog waves return perturbed dot products.

    Values are perturbed multiplicatively with truncated Gaussian noise
    and then quantized to the ADC step; integer exactness is lost, which
    is precisely the regime the paper's bound-based design tolerates.
    The perturbation sits in the one ``_values`` hook every dispatch
    style shares, so stats, timing and telemetry are the exact array's.
    """

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        super().__init__(hardware)
        self.noise = noise if noise is not None else NoiseModel()
        self._rng = np.random.default_rng(self.noise.seed)

    def _values(self, record, vectors, bits) -> np.ndarray:
        return self._perturb(super()._values(record, vectors, bits))

    def _perturb(self, values: np.ndarray) -> np.ndarray:
        if self.noise.is_ideal:
            return values
        floats = values.astype(np.float64)
        if self.noise.cell_sigma > 0.0:
            raw = self._rng.normal(
                0.0, self.noise.cell_sigma, size=floats.shape
            )
            cap = self.noise.relative_error_bound
            noise = np.clip(raw, -cap, cap)
            floats = floats * (1.0 + noise)
        if self.noise.adc_step > 0.0:
            floats = np.round(floats / self.noise.adc_step) * self.noise.adc_step
        return floats

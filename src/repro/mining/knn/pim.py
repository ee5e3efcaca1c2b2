"""PIM-optimized kNN algorithms (paper Section V / Fig. 13).

Each baseline's bottleneck bound is replaced by its PIM-aware bound
(Section V-B); the remaining original bounds stay in place — exactly the
"default execution plan" of Section V-D. ``FNNPIMOptimizeKNN`` applies
the plan optimization: the Eq. 13 cost model decides which original
bounds to drop (Fig. 16).

Factory helpers build the right bound for each distance measure, so
``StandardPIMKNN(measure="cosine")`` transparently uses the quantized
cosine *upper* bound.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bounds.base import Bound
from repro.bounds.ed import FNNBound
from repro.bounds.pim import (
    PIMCosineBound,
    PIMEuclideanBound,
    PIMFNNBound,
    PIMOSTBound,
    PIMPearsonBound,
    PIMSMBound,
)
from repro.core.memory_manager import choose_fnn_segments, choose_full_dims
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.controller import PIMController
from repro.mining.knn.filtered import FilteredKNN
from repro.mining.knn.fnn import FNNKNN
from repro.mining.knn.ost import default_head_dims
from repro.mining.knn.sm import default_segments
from repro.similarity.quantization import Quantizer


def _controller(controller: PIMController | None) -> PIMController:
    return controller if controller is not None else PIMController()


def pim_bound_for_measure(
    measure: str, controller: PIMController, quantizer: Quantizer | None = None
) -> Bound:
    """The Section V-B bound matching a distance measure."""
    if measure == "euclidean":
        return PIMEuclideanBound(controller, quantizer)
    if measure == "cosine":
        return PIMCosineBound(controller, quantizer)
    if measure == "pearson":
        return PIMPearsonBound(controller, quantizer)
    raise ConfigurationError(
        f"no PIM bound for measure {measure!r} "
        "(hamming uses mining.knn.hamming.PIMHammingKNN)"
    )


class StandardPIMKNN(FilteredKNN):
    """Standard-PIM: linear scan with the PIM-aware bound as filter.

    When the quantized dataset does not fit the PIM array at full
    dimensionality, the ED bound falls back to the compressed
    LB_PIM-FNN^s with ``s`` from Theorem 4 — exactly the paper's setup
    (Section VI-C: "s is 50 for ImageNet and 105 for MSD"). The CS/PCC
    upper bounds have no segment-summary form, so those measures require
    the full dataset to fit.
    """

    def __init__(
        self,
        measure: str = "euclidean",
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
        n_segments: int | None = None,
    ) -> None:
        ctl = _controller(controller)
        self._quantizer = quantizer
        if n_segments is not None:
            bound: Bound = PIMFNNBound(n_segments, ctl, quantizer)
        else:
            bound = pim_bound_for_measure(measure, ctl, quantizer)
        super().__init__(
            bounds=[bound],
            measure=measure,
            name="Standard-PIM",
            controller=ctl,
        )
        self.n_segments = n_segments

    def _prepare(self, data: np.ndarray) -> None:
        n, d = np.asarray(data).shape
        if self.n_segments is not None:
            super()._prepare(data)
            return
        plan = choose_full_dims(n, d, self.controller.pim.config)
        if not plan.is_lossless:
            if self.measure != "euclidean":
                raise CapacityError(
                    f"dataset {n}x{d} does not fit the PIM array at full "
                    f"dimensionality (max {plan.compressed_dims}) and the "
                    f"{self.measure} bound has no compressed form"
                )
            s = choose_fnn_segments(n, d, self.controller.pim.config)
            self.bounds = [PIMFNNBound(s, self.controller, self._quantizer)]
            self.offloadable_functions = (
                self.bounds[0].name,
                self.measure,
            )
            self.n_segments = s
        super()._prepare(data)


class OSTPIMKNN(FilteredKNN):
    """OST-PIM: LB_OST replaced by its PIM-aware bound."""

    def __init__(
        self,
        dims: int,
        head_dims: int | None = None,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
    ) -> None:
        ctl = _controller(controller)
        head = head_dims if head_dims is not None else default_head_dims(dims)
        super().__init__(
            bounds=[PIMOSTBound(head, ctl, quantizer)],
            measure="euclidean",
            name="OST-PIM",
            controller=ctl,
        )
        self.head_dims = head


class SMPIMKNN(FilteredKNN):
    """SM-PIM: LB_SM replaced by its PIM-aware bound."""

    def __init__(
        self,
        dims: int,
        n_segments: int | None = None,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
    ) -> None:
        ctl = _controller(controller)
        segments = (
            n_segments if n_segments is not None else default_segments(dims)
        )
        super().__init__(
            bounds=[PIMSMBound(segments, ctl, quantizer)],
            measure="euclidean",
            name="SM-PIM",
            controller=ctl,
        )
        self.n_segments = segments


class FNNPIMKNN(FilteredKNN):
    """FNN-PIM: the coarsest (bottleneck) LB_FNN replaced by LB_PIM-FNN^s.

    ``s`` is chosen by Theorem 4 (largest divisor of ``d`` whose
    concatenated mean/std matrix fits the array). Following the paper's
    default execution plan (Section VI-C: "other original bounds are
    still in the algorithms"), the remaining ladder bounds stay in the
    cascade; the Section V-D optimizer is what removes redundant ones
    (Fig. 16).

    ``shared_bounds`` are prepared bounds to reuse: a ladder level whose
    LB_FNN is among them keeps that object instead of a fresh one, so a
    dataset the baseline FNN already summarised is not summarised again.
    """

    def __init__(
        self,
        dims: int,
        n_vectors: int,
        segment_ladder: list[int] | None = None,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
        n_segments: int | None = None,
        shared_bounds: Sequence[Bound] = (),
    ) -> None:
        from repro.similarity.segments import fnn_segment_ladder

        ctl = _controller(controller)
        ladder = (
            list(segment_ladder)
            if segment_ladder is not None
            else fnn_segment_ladder(dims)
        )
        s = (
            n_segments
            if n_segments is not None
            else choose_fnn_segments(n_vectors, dims, ctl.pim.config)
        )
        shared = {
            b.n_segments: b for b in shared_bounds if isinstance(b, FNNBound)
        }
        bounds: list[Bound] = [PIMFNNBound(s, ctl, quantizer)]
        bounds.extend(shared.get(n) or FNNBound(n) for n in ladder[1:])
        super().__init__(
            bounds=bounds,
            measure="euclidean",
            name="FNN-PIM",
            controller=ctl,
        )
        self.n_segments = s
        self.segment_ladder = ladder


class FNNPIMOptimizeKNN(FilteredKNN):
    """FNN-PIM-optimize: the Eq. 13-chosen execution plan.

    Built by :class:`repro.core.planner.ExecutionPlanner`; this class
    simply runs an explicit bound list under the optimized name.
    """

    def __init__(
        self,
        bounds: list[Bound],
        controller: PIMController,
    ) -> None:
        super().__init__(
            bounds=bounds,
            measure="euclidean",
            name="FNN-PIM-optimize",
            controller=controller,
        )


def make_baseline(name: str, dims: int, measure: str = "euclidean"):
    """Baseline kNN factory by paper name (Standard/OST/SM/FNN)."""
    from repro.mining.knn.ost import OSTKNN
    from repro.mining.knn.sm import SMKNN
    from repro.mining.knn.standard import StandardKNN

    if name == "Standard":
        return StandardKNN(measure=measure)
    if name == "OST":
        return OSTKNN(dims)
    if name == "SM":
        return SMKNN(dims)
    if name == "FNN":
        return FNNKNN(dims)
    raise ConfigurationError(f"unknown kNN baseline {name!r}")


def make_pim_variant(
    name: str,
    dims: int,
    n_vectors: int,
    measure: str = "euclidean",
    controller: PIMController | None = None,
    shared_bounds: Sequence[Bound] = (),
):
    """PIM-optimized kNN factory by paper name.

    ``shared_bounds`` are prepared CPU bounds the variant may keep
    instead of building and preparing equal ones (FNN-PIM reuses the
    baseline FNN's LB_FNN ladder).
    """
    if name == "Standard-PIM":
        return StandardPIMKNN(measure=measure, controller=controller)
    if name == "OST-PIM":
        return OSTPIMKNN(dims, controller=controller)
    if name == "SM-PIM":
        return SMPIMKNN(dims, controller=controller)
    if name == "FNN-PIM":
        return FNNPIMKNN(
            dims, n_vectors, controller=controller, shared_bounds=shared_bounds
        )
    raise ConfigurationError(f"unknown PIM kNN variant {name!r}")

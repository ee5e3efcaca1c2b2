"""PIM assistance for the k-means assign step (paper Section VI-D).

The quantized dataset is programmed onto the crossbars once; at the start
of every Lloyd iteration one PIM wave per center delivers
``LB_PIM-ED(p, c)`` for *all* points simultaneously. The assign step then
consults the (rooted) bound before each exact distance: a center whose
bound already meets the point's current best distance is discarded with
``3*b`` bits of transfer instead of ``d*b``.

:class:`PIMAssist` is the single object the algorithm family shares; it
owns the controller, the Theorem 1 bound and the per-iteration LB matrix.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.pim import PIMEuclideanBound
from repro.cost.counters import PerfCounters
from repro.errors import OperandError
from repro.hardware.controller import PIMController
from repro.similarity.quantization import Quantizer
from repro.telemetry import get_recorder


class PIMAssist:
    """LB_PIM-ED provider for PIM-optimized k-means variants."""

    def __init__(
        self,
        controller: PIMController | None = None,
        quantizer: Quantizer | None = None,
    ) -> None:
        self.controller = (
            controller if controller is not None else PIMController()
        )
        self.bound = PIMEuclideanBound(self.controller, quantizer)
        self._lb: np.ndarray | None = None
        self._prepared = False

    @property
    def bound_name(self) -> str:
        """Counter bucket of the PIM bound."""
        return self.bound.name

    def prepare(self, data: np.ndarray) -> None:
        """Offline stage: quantize and program the dataset (idempotent)."""
        if not self._prepared:
            self.bound.prepare(np.asarray(data, dtype=np.float64))
            self._prepared = True

    def begin_iteration(self, centers: np.ndarray) -> None:
        """One batched wave over all centers; cache the rooted N x k LBs.

        The k center queries ship as a single multi-query dispatch, so
        each Lloyd iteration pays one pipeline setup instead of k.
        """
        if not self._prepared:
            raise OperandError("PIMAssist.prepare() must run before use")
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "kmeans.center_wave", "query_batch",
                centers=int(np.atleast_2d(centers).shape[0]),
            ):
                self._lb = np.sqrt(self.bound.evaluate_matrix(centers))
            tele.metrics.counter("kmeans.center_waves").add(1)
        else:
            self._lb = np.sqrt(self.bound.evaluate_matrix(centers))

    def batch_stats(self) -> tuple[int, float]:
        """(batches dispatched, mean waves per batch) on this controller."""
        stats = self.controller.pim.stats
        return stats.batches, stats.waves_per_batch

    def lower_bounds(self, i, center_ids: np.ndarray) -> np.ndarray:
        """Rooted LB_PIM-ED of point ``i`` to the selected centers; both
        index the N x k matrix NumPy-style, so ``i`` may be a column."""
        if self._lb is None:
            raise OperandError("begin_iteration() must run each iteration")
        return self._lb[i, center_ids]

    def charge(self, counters: PerfCounters, n_pairs: int) -> None:
        """Host-side cost of consulting ``n_pairs`` bound values."""
        self.bound.charge(counters, n_pairs)

    def pim_time_ns(self) -> float:
        """Cumulative simulated wave time on this assist's controller."""
        return self.controller.pim.stats.pim_time_ns

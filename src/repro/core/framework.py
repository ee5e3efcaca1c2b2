"""The end-to-end framework of the paper (Section III-B).

Given a similarity-based mining algorithm, :class:`PIMAccelerator`
executes the paper's pipeline:

1. **profile** the baseline to find the bottleneck function and the
   PIM-oracle floor (Section IV);
2. **decide** whether PIM is worth exploiting (oracle speedup above a
   threshold — the paper's Elkan case shows it sometimes is not);
3. **build** the PIM-optimized variant: quantize the dataset, size the
   compressed dimensionality with Theorem 4, program the crossbars, and
   swap the bottleneck bound for its PIM-aware bound (Section V-A/B/C);
4. optionally **optimize the execution plan** with Eq. 13 (Section V-D);
5. **verify** that the optimized algorithm returns identical results —
   for kNN and outliers the same indices and scores bit for bit, taken
   from the profiled runs rather than a second run — and report the
   simulated speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.planner import optimize_fnn_plan
from repro.core.profiler import (
    AlgorithmProfile,
    _profile_from_counters,
    profile_kmeans,
    profile_knn,
)
from repro.errors import ConfigurationError
from repro.hardware.config import HardwareConfig, pim_platform
from repro.hardware.controller import PIMController
from repro.mining.kmeans import PIMAssist, make_kmeans
from repro.mining.knn import (
    FilteredKNN,
    FNNPIMOptimizeKNN,
    make_baseline,
    make_pim_variant,
)
from repro.similarity.quantization import Quantizer
from repro.telemetry import get_recorder

#: Below this PIM-oracle speedup the framework recommends against PIM
#: (the paper's Elkan discussion: oracle gain of ~2x is marginal).
MIN_PROMISING_ORACLE_SPEEDUP = 1.5


@dataclass
class AccelerationReport:
    """Outcome of one accelerate() run."""

    baseline: AlgorithmProfile
    optimized: AlgorithmProfile
    results_match: bool
    promising: bool
    plan: tuple[str, ...] = ()
    notes: list[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Baseline total time over optimized total time."""
        if self.optimized.total_time_ns <= 0:
            return float("inf")
        return self.baseline.total_time_ns / self.optimized.total_time_ns

    @property
    def oracle_speedup(self) -> float:
        """Baseline total time over the Eq. 2 oracle floor."""
        return self.baseline.oracle_speedup


def _same_answers(a, b) -> bool:
    """Bit-for-bit equal answers: the same indices with the same scores."""
    return np.array_equal(a.indices, b.indices) and np.array_equal(
        a.scores, b.scores
    )


def _same_clustering(a, b) -> bool:
    """Bit-for-bit equal k-means fits: assignments, centers, inertia."""
    return (
        np.array_equal(a.assignments, b.assignments)
        and np.array_equal(a.centers, b.centers)
        and a.inertia == b.inertia
    )


class PIMAccelerator:
    """Facade running the full profile -> offload -> verify pipeline."""

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        alpha: float = 10**6,
    ) -> None:
        self.hardware = hardware if hardware is not None else pim_platform()
        if not self.hardware.has_pim:
            raise ConfigurationError(
                "PIMAccelerator needs a platform with a PIM array"
            )
        self.alpha = alpha

    def _controller(self) -> PIMController:
        return PIMController(self.hardware)

    def _quantizer(self) -> Quantizer:
        return Quantizer(alpha=self.alpha, assume_normalized=True)

    # ------------------------------------------------------------------
    def accelerate_knn(
        self,
        baseline_name: str,
        data: np.ndarray,
        queries: np.ndarray,
        k: int,
        measure: str = "euclidean",
        optimize_plan: bool = False,
        batch_size: int | None = None,
    ) -> AccelerationReport:
        """Profile a kNN baseline, build its PIM variant, compare.

        Parameters
        ----------
        baseline_name:
            ``Standard``, ``OST``, ``SM`` or ``FNN``.
        data:
            Normalised dataset in [0, 1].
        queries:
            Query workload (2-D).
        k:
            Neighbour count.
        measure:
            Distance measure (``Standard`` supports all; the bound-based
            baselines are ED-only).
        optimize_plan:
            Run the Eq. 13 plan optimizer (FNN only — the other
            baselines have a single bound, so there is nothing to drop).
        batch_size:
            Wave batch size for the PIM variant's query workload; the
            default ships the whole workload as one batch per bound.
            ``1`` reproduces scalar dispatch. Results are identical at
            any batch size — only the simulated wave time changes.
        """
        data = np.asarray(data, dtype=np.float64)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n, dims = data.shape
        notes: list[str] = []
        tele = get_recorder()

        with tele.span("phase.profile_baseline", "phase", task="knn"):
            baseline = make_baseline(baseline_name, dims, measure=measure)
            baseline.fit(data)
            base_profile = profile_knn(baseline, queries, k)
        promising = base_profile.oracle_speedup >= MIN_PROMISING_ORACLE_SPEEDUP
        if not promising:
            notes.append(
                f"PIM-oracle speedup {base_profile.oracle_speedup:.2f}x is "
                "marginal; offloading may not pay off"
            )

        with tele.span("phase.build_pim", "phase", task="knn"):
            controller = self._controller()
            pim_algo = make_pim_variant(
                baseline_name + "-PIM",
                dims,
                n,
                measure=measure,
                controller=controller,
                shared_bounds=(
                    baseline.bounds
                    if isinstance(baseline, FilteredKNN)
                    else ()
                ),
            )
            pim_algo.fit(data)
        plan: tuple[str, ...] = tuple(b.name for b in pim_algo.bounds)

        if optimize_plan:
            if baseline_name != "FNN":
                notes.append(
                    "plan optimization only applies to FNN's bound ladder; "
                    "running the default plan"
                )
            else:
                with tele.span("phase.optimize_plan", "phase", task="knn"):
                    pim_algo, plan, ratio_note = self._optimized_fnn(
                        pim_algo, baseline, data, queries, k, controller
                    )
                notes.append(ratio_note)

        with tele.span("phase.profile_pim", "phase", task="knn"):
            pim_profile = profile_knn(
                pim_algo,
                queries,
                k,
                batch_size=(
                    batch_size if batch_size is not None else len(queries)
                ),
            )
        with tele.span("phase.verify", "phase", task="knn"):
            results_match = all(
                _same_answers(a, b)
                for a, b in zip(base_profile.results, pim_profile.results)
            )
        return AccelerationReport(
            baseline=base_profile,
            optimized=pim_profile,
            results_match=results_match,
            promising=promising,
            plan=plan,
            notes=notes,
        )

    def _optimized_fnn(self, pim_algo, baseline, data, queries, k, controller):
        """Apply Section V-D to the FNN-PIM bound ladder.

        The original bounds are the baseline FNN's own, already prepared
        on ``data``; the plan's cascade keeps them without re-preparing.
        """
        pim_bound = pim_algo.bounds[0]
        sample = queries[: min(3, len(queries))]
        plan, ratios = optimize_fnn_plan(
            pim_bound, list(baseline.bounds), baseline, sample, k
        )
        optimized = FNNPIMOptimizeKNN(list(plan.bounds), controller)
        optimized.fit(data)
        note = "plan ratios: " + ", ".join(
            f"{name}={ratio:.3f}" for name, ratio in ratios.items()
        )
        return optimized, plan.names, note

    # ------------------------------------------------------------------
    def accelerate_outliers(
        self,
        data: np.ndarray,
        n_neighbors: int = 5,
        n_outliers: int = 10,
    ) -> AccelerationReport:
        """Profile the outlier-detection baseline, build its PIM variant.

        Same pipeline as :meth:`accelerate_knn` applied to the
        distance-based outlier task (Section II-C).
        """
        from repro.hardware.config import baseline_platform
        from repro.mining.outlier import (
            PIMOutlierDetector,
            StandardOutlierDetector,
        )

        data = np.asarray(data, dtype=np.float64)
        tele = get_recorder()
        with tele.span("phase.profile_baseline", "phase", task="outlier"):
            baseline = StandardOutlierDetector(n_neighbors, n_outliers)
            base_result = baseline.fit(data).detect()
        base_profile = _profile_from_counters(
            baseline.name, base_result.counters,
            baseline.offloadable_functions, baseline_platform(), 0.0,
        )
        promising = base_profile.oracle_speedup >= MIN_PROMISING_ORACLE_SPEEDUP

        with tele.span("phase.build_pim", "phase", task="outlier"):
            pim = PIMOutlierDetector(
                n_neighbors,
                n_outliers,
                controller=self._controller(),
                quantizer=self._quantizer(),
            )
            pim_result = pim.fit(data).detect()
        pim_profile = _profile_from_counters(
            pim.name, pim_result.counters, pim.offloadable_functions,
            pim.controller.hardware, pim_result.pim_time_ns,
        )
        results_match = _same_answers(base_result, pim_result)
        return AccelerationReport(
            baseline=base_profile,
            optimized=pim_profile,
            results_match=results_match,
            promising=promising,
            plan=("LB_PIM-ED",),
        )

    # ------------------------------------------------------------------
    def accelerate_kmeans(
        self,
        baseline_name: str,
        data: np.ndarray,
        k: int,
        max_iters: int = 10,
        seed: int = 0,
    ) -> AccelerationReport:
        """Profile a k-means baseline, build its PIM variant, compare.

        The two fits start from the same centers and must agree bit for
        bit: assignments, centers and inertia.
        """
        data = np.asarray(data, dtype=np.float64)
        notes: list[str] = []
        from repro.mining.kmeans import initial_centers

        tele = get_recorder()
        centers = initial_centers(data, k, seed)
        with tele.span("phase.profile_baseline", "phase", task="kmeans"):
            baseline = make_kmeans(baseline_name, k, max_iters=max_iters)
            base_profile = profile_kmeans(
                baseline, data, centers=centers.copy()
            )
        promising = base_profile.oracle_speedup >= MIN_PROMISING_ORACLE_SPEEDUP
        if not promising:
            notes.append(
                f"PIM-oracle speedup {base_profile.oracle_speedup:.2f}x is "
                "marginal; offloading may not pay off (the paper's Elkan "
                "case)"
            )

        with tele.span("phase.build_pim", "phase", task="kmeans"):
            assist = PIMAssist(self._controller(), self._quantizer())
            pim_algo = make_kmeans(
                baseline_name + "-PIM", k,
                max_iters=max_iters, pim_assist=assist,
            )
        with tele.span("phase.profile_pim", "phase", task="kmeans"):
            pim_profile = profile_kmeans(
                pim_algo, data, centers=centers.copy()
            )
        with tele.span("phase.verify", "phase", task="kmeans"):
            results_match = _same_clustering(
                base_profile.results[0], pim_profile.results[0]
            )
        return AccelerationReport(
            baseline=base_profile,
            optimized=pim_profile,
            results_match=results_match,
            promising=promising,
            plan=(assist.bound_name,),
            notes=notes,
        )

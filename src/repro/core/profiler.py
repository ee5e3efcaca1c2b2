"""Algorithm profiling (paper Section IV).

Given an algorithm run's event counters, the profiler produces the three
views of the paper's motivating analysis:

* **hardware-component breakdown** (Fig. 5) — shares of T_c, T_cache,
  T_ALU, T_Br, T_Fe per Eq. 1;
* **function breakdown** (Fig. 6) — shares per similarity/bound function;
* **PIM-oracle estimate** (Eq. 2, Fig. 7) — total time minus the
  offloadable buckets, the floor of any PIM implementation.

Convenience drivers run kNN and k-means workloads end-to-end and return
an :class:`AlgorithmProfile` with simulated times on the appropriate
platform. PIM-optimized algorithms add their wave time on top of the
Quartz CPU time, exactly like the paper sums NVSim and Quartz outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cost.counters import PerfCounters
from repro.cost.model import ComponentBreakdown, CostModel, combined_time_ns
from repro.hardware.config import HardwareConfig, baseline_platform
from repro.mining.kmeans.base import KMeansAlgorithm, KMeansResult
from repro.mining.knn.base import KNNAlgorithm, KNNResult
from repro.telemetry import get_recorder


@dataclass
class AlgorithmProfile:
    """Profiling outcome of one algorithm on one workload."""

    name: str
    counters: PerfCounters
    components: ComponentBreakdown
    function_times_ns: dict[str, float]
    cpu_time_ns: float
    pim_time_ns: float
    offloadable: tuple[str, ...]
    pim_oracle_ns: float
    extras: dict[str, float] = field(default_factory=dict)
    #: Per-query answers of a kNN run, or the one fit of a k-means run,
    #: so a caller can check them without running the workload again.
    results: list[KNNResult | KMeansResult] = field(default_factory=list)

    @property
    def total_time_ns(self) -> float:
        """End-to-end simulated time (CPU + PIM)."""
        return combined_time_ns(self.cpu_time_ns, self.pim_time_ns)

    @property
    def total_time_ms(self) -> float:
        """Total time in milliseconds (the unit of the paper's figures)."""
        return self.total_time_ns / 1e6

    def component_fractions(self) -> dict[str, float]:
        """Fig. 5 series."""
        return self.components.fractions()

    def function_fractions(self) -> dict[str, float]:
        """Fig. 6 series."""
        total = sum(self.function_times_ns.values())
        if total <= 0:
            return {k: 0.0 for k in self.function_times_ns}
        return {k: v / total for k, v in self.function_times_ns.items()}

    @property
    def oracle_speedup(self) -> float:
        """T_total / T_PIM-oracle — the ideal gain of Eq. 2.

        Uses :attr:`total_time_ns` (CPU + PIM), matching the docstring:
        for baselines the two coincide (``pim_time_ns == 0``), but a
        profile of a PIM variant must count its wave time too.
        """
        if self.pim_oracle_ns <= 0:
            return float("inf")
        return self.total_time_ns / self.pim_oracle_ns


def _profile_from_counters(
    name: str,
    counters: PerfCounters,
    offloadable: tuple[str, ...],
    hardware: HardwareConfig,
    pim_time_ns: float,
) -> AlgorithmProfile:
    model = CostModel(hardware)
    return AlgorithmProfile(
        name=name,
        counters=counters,
        components=model.component_breakdown(counters),
        function_times_ns=model.function_times_ns(counters),
        cpu_time_ns=model.total_time_ns(counters),
        pim_time_ns=pim_time_ns,
        offloadable=offloadable,
        pim_oracle_ns=model.pim_oracle_time_ns(counters, set(offloadable)),
    )


def profile_knn(
    algorithm: KNNAlgorithm,
    queries: np.ndarray,
    k: int,
    hardware: HardwareConfig | None = None,
    batch_size: int | None = None,
) -> AlgorithmProfile:
    """Run a fitted kNN algorithm over a query workload and profile it.

    Times are summed over all queries. Pass the PIM platform for PIM
    variants (the controller's platform is used when available).

    ``batch_size`` routes the workload through the algorithm's
    :meth:`~repro.mining.knn.base.KNNAlgorithm.query_batch` in chunks of
    that size (amortizing wave setup on PIM variants); ``None`` keeps
    per-query dispatch. Results are identical either way; on a PIM
    controller the batch counters land in ``extras`` (waves per batch,
    amortized dispatch bytes per query, wave time saved).
    """
    queries = np.atleast_2d(np.asarray(queries))
    controller = getattr(algorithm, "controller", None)
    stats_before = None
    if controller is not None:
        stats_before = (
            controller.pim.stats.batches,
            controller.pim.stats.batched_queries,
            controller.pim.stats.batch_saved_ns,
        )
    if hardware is None:
        hardware = (
            controller.hardware if controller is not None
            else baseline_platform()
        )
    tele = get_recorder()
    profile_span = (
        tele.begin_span(
            "profile.knn", "algorithm",
            algorithm=algorithm.name, n_queries=int(len(queries)), k=k,
        )
        if tele.enabled
        else None
    )
    merged = PerfCounters()
    pim_time = 0.0
    exact = 0
    if batch_size is None:
        results = [algorithm.query(q, k) for q in queries]
    else:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        results = []
        for start in range(0, len(queries), batch_size):
            results.extend(
                algorithm.query_batch(queries[start : start + batch_size], k)
            )
    model = CostModel(hardware) if profile_span is not None else None
    for i, result in enumerate(results):
        merged = merged.merged_with(result.counters)
        pim_time += result.pim_time_ns
        exact += result.exact_computations
        if model is not None:
            # replay each query's Quartz CPU time onto the simulated
            # clock (the waves advanced it during execution above)
            with tele.span("cpu.query", "cpu", index=i):
                tele.advance(model.total_time_ns(result.counters))
    profile = _profile_from_counters(
        algorithm.name,
        merged,
        tuple(algorithm.offloadable_functions),
        hardware,
        pim_time,
    )
    profile.results = results
    profile.extras["exact_computations"] = float(exact)
    profile.extras["n_queries"] = float(len(queries))
    if stats_before is not None:
        _record_batch_extras(profile, algorithm, controller, stats_before)
    if profile_span is not None:
        tele.end_span(
            cpu_time_ns=profile.cpu_time_ns, pim_time_ns=profile.pim_time_ns
        )
        _record_profile_metrics(tele, profile)
    return profile


def _record_profile_metrics(tele, profile: AlgorithmProfile) -> None:
    """Fig. 5/6 buckets of one profile -> telemetry gauges.

    Span sums reconcile with these: the ``pim_dispatch`` spans of the
    profiled run add up to ``profiler.pim_time_ns`` and the ``cpu``
    spans to ``profiler.cpu_time_ns``.
    """
    m = tele.metrics
    prefix = f"profiler.{profile.name}"
    m.gauge(f"{prefix}.cpu_time_ns").set(profile.cpu_time_ns)
    m.gauge(f"{prefix}.pim_time_ns").set(profile.pim_time_ns)
    m.gauge(f"{prefix}.pim_oracle_ns").set(profile.pim_oracle_ns)
    for component, fraction in profile.component_fractions().items():
        m.gauge(f"{prefix}.component.{component}").set(fraction)
    for function, time_ns in profile.function_times_ns.items():
        m.gauge(f"{prefix}.function.{function}_ns").set(time_ns)


def _record_batch_extras(
    profile: AlgorithmProfile,
    algorithm: KNNAlgorithm,
    controller,
    stats_before: tuple[int, int, float],
) -> None:
    """Batch-level counters of one run -> ``profile.extras``."""
    from repro.cost.transfer import dispatch_transfer

    stats = controller.pim.stats
    batches = stats.batches - stats_before[0]
    batched_queries = stats.batched_queries - stats_before[1]
    saved_ns = stats.batch_saved_ns - stats_before[2]
    profile.extras["pim_batches"] = float(batches)
    profile.extras["pim_waves_per_batch"] = (
        batched_queries / batches if batches else 0.0
    )
    profile.extras["pim_batch_saved_ns"] = saved_ns
    mean_batch = max(int(round(batched_queries / batches)), 1) if batches else 1
    profile.extras["pim_dispatch_bytes_per_query"] = dispatch_transfer(
        algorithm.dims, controller.pim.config.operand_bits, mean_batch
    ).bytes_per_object()


def profile_kmeans(
    algorithm: KMeansAlgorithm,
    data: np.ndarray,
    centers: np.ndarray | None = None,
    seed: int = 0,
    hardware: HardwareConfig | None = None,
) -> AlgorithmProfile:
    """Run a k-means algorithm to convergence and profile it.

    ``extras['time_per_iteration_ms']`` carries the Table 7 metric.
    """
    assist = algorithm.pim
    batches_before = (
        assist.controller.pim.stats.batches if assist is not None else 0
    )
    if hardware is None:
        hardware = (
            assist.controller.hardware if assist is not None
            else baseline_platform()
        )
    tele = get_recorder()
    profile_span = (
        tele.begin_span(
            "profile.kmeans", "algorithm",
            algorithm=algorithm.name, n_points=int(np.asarray(data).shape[0]),
            n_clusters=algorithm.n_clusters,
        )
        if tele.enabled
        else None
    )
    result = algorithm.fit(data, centers=centers, seed=seed)
    if profile_span is not None:
        # replay the whole run's Quartz CPU time onto the simulated
        # clock (the waves advanced it during fit above)
        with tele.span("cpu.fit", "cpu", iterations=result.n_iterations):
            tele.advance(CostModel(hardware).total_time_ns(result.counters))
    profile = _profile_from_counters(
        algorithm.name,
        result.counters,
        algorithm.offloadable_functions(),
        hardware,
        result.pim_time_ns,
    )
    iters = max(result.n_iterations, 1)
    profile.extras["n_iterations"] = float(result.n_iterations)
    profile.extras["inertia"] = result.inertia
    profile.extras["exact_distances"] = float(result.exact_distances)
    profile.extras["time_per_iteration_ms"] = profile.total_time_ms / iters
    profile.results = [result]
    if assist is not None:
        stats = assist.controller.pim.stats
        batches = stats.batches - batches_before
        profile.extras["pim_batches"] = float(batches)
        profile.extras["pim_waves_per_batch"] = stats.waves_per_batch
    if profile_span is not None:
        tele.end_span(
            cpu_time_ns=profile.cpu_time_ns, pim_time_ns=profile.pim_time_ns
        )
        _record_profile_metrics(tele, profile)
    return profile

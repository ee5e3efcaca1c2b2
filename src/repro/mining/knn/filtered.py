"""Generic filter-and-refine kNN over a bound cascade.

OST, SM, FNN and every PIM-optimized variant are thin subclasses that
merely choose which bounds to stack; the scan/prune/refine walk and its
cost accounting live here once.

The walk is the classic sorted filter-and-refine: the coarsest bound is
computed for every object (one PIM wave when that bound lives on the
crossbars), objects are visited in ascending bound order, finer bounds
screen each candidate, survivors pay the exact measure, and the walk
stops once the coarse bound itself exceeds the live k-th-best threshold
— sortedness proves everything later loses too. Results are exact.

The walk itself is :func:`repro.kernels.refine_topk`, the kernel the
serving shards run too: candidates are visited in canonical
``(bound, index)`` order and the answer is the canonical top-k, so ties
resolve to the lowest index and a PIM variant returns its baseline's
answer bit for bit. Bounds and measure score each row on its own, so
every count and answer equals that of a one-candidate-at-a-time walk.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import Bound
from repro.cost.counters import OTHER, PerfCounters
from repro.errors import PlanError
from repro.hardware.controller import PIMController
from repro.kernels import refine_topk
from repro.mining.knn.base import KNNAlgorithm, KNNResult, validate_query
from repro.telemetry import get_recorder


class FilteredKNN(KNNAlgorithm):
    """kNN with an explicit bound cascade.

    Parameters
    ----------
    bounds:
        Unprepared bounds, coarse (cheap) first; all must share the
        pruning direction implied by ``measure``.
    measure:
        The exact measure used for refinement.
    name:
        Display name.
    controller:
        The PIM controller shared by any PIM bounds in ``bounds``; used
        to attribute wave time to queries. ``None`` for pure-CPU stacks.
    """

    def __init__(
        self,
        bounds: list[Bound],
        measure: str = "euclidean",
        name: str = "Filtered",
        controller: PIMController | None = None,
    ) -> None:
        super().__init__(measure=measure)
        if not bounds:
            raise PlanError(f"{name} needs at least one bound")
        expected = "lower" if self.minimize else "upper"
        for bound in bounds:
            if bound.kind != expected:
                raise PlanError(
                    f"bound {bound.name} is a {bound.kind} bound but "
                    f"measure {measure} needs {expected} bounds"
                )
        self.bounds = list(bounds)
        self.name = name
        self.controller = controller
        self.offloadable_functions = tuple(
            [b.name for b in self.bounds] + [measure]
        )

    def _prepare(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        for bound in self.bounds:
            # a bound shared with another cascade (FNN-PIM keeps the
            # baseline's LB_FNN ladder) has summarised this array already
            if bound.prepared_on is not data:
                bound.prepare(data)

    def query(self, q: np.ndarray, k: int) -> KNNResult:
        """Sorted filter-and-refine.

        The coarsest bound is evaluated on every object (on PIM that is
        one wave regardless of N); candidates are then refined in
        ascending bound order against the live k-th-best threshold, so
        the scan stops as soon as the bound value itself exceeds the
        threshold — every later candidate is pruned by sortedness.
        Finer bounds (if any) screen each candidate before the exact
        computation. Results are exact: only provably-losing candidates
        are skipped.
        """
        q = validate_query(q, self.dims, k)
        counters = PerfCounters()
        tele = get_recorder()
        query_span = (
            tele.begin_span("knn.query", "query", algorithm=self.name, k=k)
            if tele.enabled
            else None
        )
        pim_before = (
            self.controller.pim.stats.pim_time_ns if self.controller else 0.0
        )
        for bound in self.bounds:
            bound.charge_query_setup(counters, self.dims)
        first = self.bounds[0]
        finer = self.bounds[1:]
        values = first.evaluate(q)
        first.charge(counters, self.n_objects)

        # a lower bound prunes above the threshold, an upper one below:
        # negating an upper bound and its similarity makes both a lower
        # bound and a distance, exactly
        sign = 1.0 if self.minimize else -1.0
        scores, indices, exact, finer_evals, stopped = refine_topk(
            lambda at: sign * self.exact_scores(q, at),
            sign * values,
            np.arange(self.n_objects),
            k,
            [lambda at, b=b: sign * b.evaluate(q, at) for b in finer],
        )

        # one charge per bucket, in the order a per-candidate walk
        # first touches them (the cost model sums in insertion order)
        stage_evals: dict[str, int] = {b.name: 0 for b in self.bounds}
        stage_evals[first.name] = self.n_objects
        for bound, n_evals in zip(finer, finer_evals):
            bound.charge(counters, n_evals)
            stage_evals[bound.name] += n_evals
        self.charge_exact(counters, exact)
        self.charge_heap(counters, exact)
        if stopped:
            counters.record(OTHER, branches=1.0)
        pim_after = (
            self.controller.pim.stats.pim_time_ns if self.controller else 0.0
        )
        stage_evals[self.measure] = exact
        if query_span is not None:
            tele.end_span(exact=exact)
            m = tele.metrics
            m.counter("knn.queries").add(1)
            m.counter("knn.exact_computations").add(exact)
            for bound in self.bounds:
                m.counter(f"knn.stage.{bound.name}.evaluated").add(
                    stage_evals[bound.name]
                )
            # fraction of the dataset the bound ladder pruned away
            # before the exact measure — the per-query survival series
            m.gauge("prune.ratio").set(1.0 - exact / self.n_objects)
            m.histogram("prune.survivors").observe(exact)
        return self._finalize(
            indices,
            sign * scores,
            counters,
            pim_time_ns=pim_after - pim_before,
            exact_computations=exact,
            stage_evaluations=stage_evals,
        )

    def query_batch(self, queries: np.ndarray, k: int) -> list[KNNResult]:
        """Batched filter-and-refine: one amortized wave per PIM bound.

        Every PIM-backed bound in the cascade is *primed* with the whole
        query batch first — a single multi-query wave per bound instead
        of one dispatch per query — and the per-query scan/prune/refine
        loops then run entirely off the primed caches. Answers are
        bit-identical to sequential :meth:`query` calls; the batch wave
        time is attributed to the per-query results in equal shares.
        """
        queries = np.atleast_2d(np.asarray(queries))
        primable = [b for b in self.bounds if hasattr(b, "prime_queries")]
        tele = get_recorder()
        prime_span = (
            tele.begin_span(
                "knn.prime", "query_batch",
                algorithm=self.name, queries=int(queries.shape[0]),
                bounds=len(primable),
            )
            if tele.enabled and primable
            else None
        )
        pim_before = (
            self.controller.pim.stats.pim_time_ns if self.controller else 0.0
        )
        for bound in primable:
            bound.prime_queries(queries)
        prime_ns = (
            self.controller.pim.stats.pim_time_ns - pim_before
            if self.controller
            else 0.0
        )
        if prime_span is not None:
            tele.end_span(prime_ns=prime_ns)
        results = [self.query(q, k) for q in queries]
        # the per-query loops hit the primed caches, so their own pim
        # windows are ~0; spread the batch wave time evenly instead
        share = prime_ns / len(results) if results else 0.0
        for result in results:
            result.pim_time_ns += share
        return results

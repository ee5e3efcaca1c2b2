"""Generic filter-and-refine kNN over a bound cascade.

OST, SM, FNN and every PIM-optimized variant are thin subclasses that
merely choose which bounds to stack; the scan/prune/refine loop and its
cost accounting live here once.

The loop is the classic sorted filter-and-refine: the coarsest bound is
computed for every object (one PIM wave when that bound lives on the
crossbars), objects are visited in ascending bound order, finer bounds
screen each candidate, survivors pay the exact measure, and the walk
stops once the coarse bound itself exceeds the live k-th-best threshold
— sortedness proves everything later loses too. Results are exact.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import Bound
from repro.cost.counters import OTHER, PerfCounters
from repro.errors import PlanError
from repro.hardware.controller import PIMController
from repro.mining.knn.base import (
    KNNAlgorithm,
    KNNResult,
    _Heap,
    validate_query,
)
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
        for bound in self.bounds:
            bound.prepare(np.asarray(data, dtype=np.float64))

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
        stage_evals: dict[str, int] = {b.name: 0 for b in self.bounds}
        stage_evals[first.name] = self.n_objects

        order = np.argsort(values if self.minimize else -values)
        heap = _Heap(k, self.minimize)
        exact = 0
        for i in order:
            if heap.full and first.prunes(
                values[i : i + 1], heap.threshold
            )[0]:
                # sorted by this bound: everything later is pruned too
                counters.record(OTHER, branches=1.0)
                break
            candidate = int(i)
            pruned = False
            for bound in finer:
                v = bound.evaluate(q, np.array([candidate]))
                bound.charge(counters, 1)
                stage_evals[bound.name] += 1
                if heap.full and bound.prunes(v, heap.threshold)[0]:
                    pruned = True
                    break
            if pruned:
                continue
            score = float(self.exact_scores(q, np.array([candidate]))[0])
            self.charge_exact(counters, 1)
            self.charge_heap(counters, 1)
            exact += 1
            heap.push(score, candidate)

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
            heap,
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

"""Shared machinery of the k-means algorithm family.

All variants implement *exact* Lloyd iterations — Elkan/Drake/Yinyang
only avoid distance computations that provably cannot change the
assignment, and the PIM-assisted variants add one more such filter
(LB_PIM-ED, Section V-B of the paper). Every LB_PIM-ED consult goes
through one scan, :meth:`KMeansAlgorithm._masked_values`, with one
refine rule (an entry is computed exactly iff its bound is ``<=`` the
row's threshold), and a row's winner is :func:`nearest`, the
lowest-index nearest center among its exact entries. Consequently every
``-PIM`` variant returns its baseline's clustering bit for bit (tie-heavy
data included), and every variant matches Lloyd from the same initial
centers up to distance ties, which the test suite asserts.

Internally the algorithms work with *true* (root) Euclidean distances so
the triangle inequality holds; reported inertia is the usual sum of
squared distances.

Cost accounting: exact distance computations are charged to the ``ED``
bucket, bound maintenance to ``bound_update``, PIM-bound consultations to
the bound's own bucket, and everything else (argmin bookkeeping, the
update step) to ``other`` — matching the function breakdown of Fig. 6.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.cost.counters import OTHER, PerfCounters
from repro.errors import ConfigurationError, OperandError
from repro.kernels import exact_sq_distances, pair_sq_distances
from repro.mining.knn.base import OPERAND_BYTES
from repro.telemetry import get_recorder

#: Counter bucket for Elkan/Drake/Yinyang bound maintenance.
BOUND_UPDATE = "bound_update"


@dataclass
class KMeansResult:
    """Outcome of one k-means run.

    Attributes
    ----------
    assignments:
        Cluster index per point.
    centers:
        Final cluster centers.
    inertia:
        Sum of squared distances to assigned centers.
    n_iterations:
        Lloyd iterations executed (assign+update pairs).
    counters:
        Host-side events over the whole run.
    pim_time_ns:
        Simulated PIM wave time over the whole run.
    exact_distances:
        Number of full-dimensional ED evaluations.
    converged:
        Whether assignments stabilised before the iteration cap.
    """

    assignments: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iterations: int
    counters: PerfCounters
    pim_time_ns: float = 0.0
    exact_distances: int = 0
    converged: bool = False
    iteration_exact_distances: list[int] = field(default_factory=list)
    iteration_counters: list[PerfCounters] = field(default_factory=list)


def initial_centers(data: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """k distinct data points chosen uniformly (the shared seeding the
    paper uses so every algorithm starts identically)."""
    data = np.asarray(data, dtype=np.float64)
    if k <= 0 or k > data.shape[0]:
        raise ConfigurationError(
            f"k={k} must be in 1..{data.shape[0]} for this dataset"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(data.shape[0], size=k, replace=False)
    return data[picks].copy()


def initial_centers_plusplus(
    data: np.ndarray, k: int, seed: int = 0
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii).

    Each further center is sampled with probability proportional to the
    squared distance from the nearest chosen center — better-separated
    starts than uniform picks, fewer Lloyd iterations. Deterministic
    given ``seed`` so every algorithm still shares identical centers.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if k <= 0 or k > n:
        raise ConfigurationError(
            f"k={k} must be in 1..{n} for this dataset"
        )
    rng = np.random.default_rng(seed)
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(0, n)]
    closest_sq = exact_sq_distances(data, centers[0])
    for c in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # all remaining points coincide with a chosen center
            centers[c:] = data[rng.choice(n, size=k - c, replace=False)]
            break
        probs = closest_sq / total
        pick = int(rng.choice(n, p=probs))
        centers[c] = data[pick]
        closest_sq = np.minimum(
            closest_sq, exact_sq_distances(data, centers[c])
        )
    return centers


def nearest(values: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Each row's winner: the first minimum among its exact entries.

    The assigned center must carry an exact value (``ub`` must
    upper-bound its true distance). A skipped entry's bound exceeds the
    row's threshold, which some exact entry meets, so this is the
    lowest-index nearest center.
    """
    return np.argmin(np.where(exact, values, np.inf), axis=1)


class KMeansAlgorithm(abc.ABC):
    """Base of every k-means implementation.

    Parameters
    ----------
    n_clusters:
        k.
    max_iters:
        Iteration cap.
    pim_assist:
        Optional :class:`repro.mining.kmeans.pim.PIMAssist`; when set the
        exact-distance helper first consults LB_PIM-ED and skips
        computations the bound proves useless, and the algorithm's name
        gains a ``-PIM`` suffix.
    """

    base_name: str = "kmeans"

    def __init__(
        self,
        n_clusters: int,
        max_iters: int = 20,
        pim_assist=None,
    ) -> None:
        if n_clusters <= 0:
            raise ConfigurationError("n_clusters must be positive")
        if max_iters <= 0:
            raise ConfigurationError("max_iters must be positive")
        self.n_clusters = n_clusters
        self.max_iters = max_iters
        self.pim = pim_assist
        self._data: np.ndarray | None = None
        self._counters = PerfCounters()
        self._exact = 0

    @property
    def name(self) -> str:
        """Display name (paper naming: e.g. ``Elkan-PIM``)."""
        return self.base_name + ("-PIM" if self.pim is not None else "")

    # ------------------------------------------------------------------
    # distance helpers (single source of ED cost accounting)
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise OperandError("algorithm not fitted")
        return self._data

    def _charge_ed(self, n: int) -> None:
        d = self.data.shape[1]
        self._counters.record(
            "ED",
            calls=n,
            flops=3.0 * d * n,
            bytes_from_memory=d * OPERAND_BYTES * n,
            long_ops=float(n),  # the sqrt
            branches=float(n),
        )
        self._exact += n

    def _exact_distances(
        self, i: int, centers: np.ndarray, center_ids: np.ndarray
    ) -> np.ndarray:
        """True Euclidean distance of point ``i`` to selected centers."""
        dists = np.sqrt(exact_sq_distances(centers, self.data[i], center_ids))
        self._charge_ed(len(center_ids))
        return dists

    def _pair_distances(
        self, rows: np.ndarray, cols: np.ndarray, centers: np.ndarray
    ) -> np.ndarray:
        """Uncharged true distance of point ``rows[t]`` to ``cols[t]``.

        One :func:`~repro.kernels.pair_sq_distances` call: one center's
        gather at a time, and every pair gets the bits of
        :meth:`_exact_distances`.
        """
        out = pair_sq_distances(self.data, centers, rows, cols)
        return np.sqrt(out, out=out)

    def _masked_values(
        self,
        centers: np.ndarray,
        rows: np.ndarray,
        ids: np.ndarray | None = None,
        want: np.ndarray | None = None,
        threshold: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one nearest-center scan: distances or safe lower bounds.

        Scores points ``rows`` against their centers ``ids`` (a row of
        center ids per point; ``None`` means every center) where
        ``want`` (``None`` means every entry), and returns ``(values,
        exact)``; only wanted entries of ``values`` are meaningful.
        Without PIM every wanted entry is an exact distance. With PIM
        each wanted LB_PIM-ED is read and charged once, and an entry is
        computed exactly iff its bound is ``<=`` its row's
        ``threshold``; the others keep the bound, which proves they
        cannot beat the threshold. With no ``threshold`` each row is
        seeded: its threshold is the exact distance to its
        smallest-bound wanted center, computed once and kept in the row
        as an exact entry. :func:`nearest` picks the winner.
        """
        shape = (rows.size, self.n_clusters) if ids is None else ids.shape
        exact = np.ones(shape, dtype=bool) if want is None else want.copy()
        seed, n_ed = None, 0
        if self.pim is None:
            values = np.zeros(shape)
        else:
            # every center's bounds are one row take, much cheaper than
            # a (rows x ids) fancy gather
            values = (
                self.pim.lower_bounds(rows, slice(None))
                if ids is None
                else self.pim.lower_bounds(rows[:, None], ids)
            )
            consults = int(np.count_nonzero(exact))
            if consults:
                self.pim.charge(self._counters, consults)
            if threshold is None:
                at = np.arange(rows.size)
                seed = nearest(values, exact)  # smallest wanted bound
                threshold = self._pair_distances(
                    rows, seed if ids is None else ids[at, seed], centers
                )
                n_ed = rows.size
            exact &= values <= threshold[:, None]
            if seed is not None:
                exact[at, seed] = False
        # one flat pass: much faster than a 2-D ``np.nonzero``
        r, c = np.divmod(np.flatnonzero(exact), shape[1])
        if r.size:
            cols = c if ids is None else ids[r, c]
            values[r, c] = (
                # one point's scan: one kernel call over its centers
                np.sqrt(exact_sq_distances(centers, self.data[rows[0]], cols))
                if rows.size == 1
                else self._pair_distances(rows[r], cols, centers)
            )
        n_ed += r.size
        if n_ed:
            self._charge_ed(n_ed)
        if seed is not None:
            values[at, seed], exact[at, seed] = threshold, True
        return values, exact

    def _distances_with_pim(
        self,
        i: int,
        centers: np.ndarray,
        center_ids: np.ndarray,
        ub: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One point's row of :meth:`_masked_values` at threshold ``ub``."""
        values, exact = self._masked_values(
            centers, np.array([i]), center_ids[None, :], None, np.array([ub])
        )
        return values[0], exact[0]

    # ------------------------------------------------------------------
    # the Lloyd loop
    # ------------------------------------------------------------------
    def fit(
        self,
        data: np.ndarray,
        centers: np.ndarray | None = None,
        seed: int = 0,
    ) -> KMeansResult:
        """Run the algorithm to convergence (or the iteration cap)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < self.n_clusters:
            raise OperandError(
                "fit() expects a 2-D dataset with at least k points"
            )
        self._data = data
        self._counters = PerfCounters()
        self._exact = 0
        centers = (
            initial_centers(data, self.n_clusters, seed)
            if centers is None
            else np.array(centers, dtype=np.float64, copy=True)
        )
        if centers.shape != (self.n_clusters, data.shape[1]):
            raise OperandError("initial centers have the wrong shape")

        pim_before = self.pim.pim_time_ns() if self.pim is not None else 0.0
        if self.pim is not None:
            self.pim.prepare(data)
        self._initialize_state(centers)

        assignments = np.full(data.shape[0], -1, dtype=np.int64)
        converged = False
        iterations = 0
        per_iter_exact: list[int] = []
        per_iter_counters: list[PerfCounters] = []
        total_counters = self._counters  # setup events recorded so far
        tele = get_recorder()
        for _ in range(self.max_iters):
            exact_before = self._exact
            self._counters = PerfCounters()  # this iteration's bucket
            iter_span = (
                tele.begin_span(
                    "kmeans.iteration", "iteration",
                    algorithm=self.name, iteration=iterations,
                )
                if tele.enabled
                else None
            )
            if self.pim is not None:
                self.pim.begin_iteration(centers)
            new_assignments = self._assign(centers)
            iterations += 1
            iter_exact = self._exact - exact_before
            per_iter_exact.append(iter_exact)
            if iter_span is not None:
                tele.end_span(exact_distances=iter_exact)
                tele.metrics.counter("kmeans.iterations").add(1)
                tele.metrics.counter("kmeans.exact_distances").add(
                    iter_exact
                )
                tele.metrics.gauge("prune.ratio").set(
                    1.0 - iter_exact / (data.shape[0] * self.n_clusters)
                )
            if np.array_equal(new_assignments, assignments):
                assignments = new_assignments
                converged = True
                per_iter_counters.append(self._counters)
                total_counters = total_counters.merged_with(self._counters)
                break
            assignments = new_assignments
            new_centers = self._update_centers(assignments, centers)
            self._after_update(centers, new_centers)
            centers = new_centers
            per_iter_counters.append(self._counters)
            total_counters = total_counters.merged_with(self._counters)
        self._counters = total_counters

        inertia = self._inertia(assignments, centers)
        pim_after = self.pim.pim_time_ns() if self.pim is not None else 0.0
        return KMeansResult(
            assignments=assignments,
            centers=centers,
            inertia=inertia,
            n_iterations=iterations,
            counters=self._counters,
            pim_time_ns=pim_after - pim_before,
            exact_distances=self._exact,
            converged=converged,
            iteration_exact_distances=per_iter_exact,
            iteration_counters=per_iter_counters,
        )

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _initialize_state(self, centers: np.ndarray) -> None:
        """Build per-point bound state before the first iteration."""

    @abc.abstractmethod
    def _assign(self, centers: np.ndarray) -> np.ndarray:
        """One assign step; must be Lloyd-exact."""

    def _after_update(
        self, old_centers: np.ndarray, new_centers: np.ndarray
    ) -> None:
        """Adjust bound state for the center drift (triangle inequality)."""

    # ------------------------------------------------------------------
    # shared steps
    # ------------------------------------------------------------------
    def _update_centers(
        self, assignments: np.ndarray, old_centers: np.ndarray
    ) -> np.ndarray:
        """Mean of assigned points; empty clusters keep their center."""
        data = self.data
        n, d = data.shape
        new_centers = old_centers.copy()
        for c in range(self.n_clusters):
            members = assignments == c
            if members.any():
                new_centers[c] = data[members].mean(axis=0)
        self._counters.record(
            OTHER,
            flops=float(n * d),
            bytes_from_memory=float(n * d * OPERAND_BYTES),
        )
        return new_centers

    def _center_drifts(
        self, old_centers: np.ndarray, new_centers: np.ndarray
    ) -> np.ndarray:
        """True-distance center movement, charged to bound_update."""
        diff = new_centers - old_centers
        drifts = np.sqrt(np.einsum("cj,cj->c", diff, diff))
        self._counters.record(
            BOUND_UPDATE,
            flops=3.0 * old_centers.size,
            bytes_cached=float(old_centers.nbytes),
        )
        return drifts

    def _inertia(self, assignments: np.ndarray, centers: np.ndarray) -> float:
        diff = self.data - centers[assignments]
        return float(np.einsum("ij,ij->", diff, diff))

    def offloadable_functions(self) -> tuple[str, ...]:
        """The set F of Eq. 2 — buckets PIM could absorb."""
        names = ["ED"]
        if self.pim is not None:
            names.append(self.pim.bound_name)
        return tuple(names)

"""Planner cost-router: pick the winning substrate per query batch.

Replicas of a chunk may live on unlike substrates. For each dispatch
the router prices the batch on every candidate replica's backend using
its cost model (the one the device charges through; analytic, so no
device is touched) and ranks the replicas cheapest first; the serving
layer prefers that order, falling back down the ranking on faults
exactly as it always fell back through its round-robin order.
Exactness is untouched — routing only permutes *which replica answers
first*.

Predictions are memoized per ``(substrate, n_vectors, dims, n_queries,
input_bits)``: serving dispatches the same shapes over and over, and
the router sits on the dispatch path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.substrate.registry import substrate_capabilities


@dataclass(frozen=True)
class RoutingDecision:
    """One routed dispatch: candidates ranked cheapest-first."""

    chunk: int
    n_queries: int
    #: ``(shard_id, substrate, predicted_ns)`` cheapest first
    ranked: tuple[tuple[int, str, float], ...]

    @property
    def winner(self) -> int:
        """Shard id the router wants to answer this dispatch."""
        return self.ranked[0][0]

    @property
    def winner_substrate(self) -> str:
        return self.ranked[0][1]

    def to_dict(self) -> dict:
        """JSON-friendly form for the routing-decision artifact."""
        return {
            "chunk": self.chunk,
            "n_queries": self.n_queries,
            "winner": self.winner,
            "winner_substrate": self.winner_substrate,
            "ranked": [
                {"shard": s, "substrate": b, "predicted_ns": ns}
                for s, b, ns in self.ranked
            ],
        }


class CostRouter:
    """Rank candidate replicas by predicted per-substrate cost.

    Parameters
    ----------
    hardware:
        Platform the cost models price against.
    objective:
        ``"latency"`` ranks by predicted batch ns, ``"energy"`` by
        predicted batch Joules. Ties (identical predictions — e.g. two
        replicas on the same backend) break toward the lower shard id,
        keeping routed serving deterministic.
    observed_weight:
        Blend factor for measured service times under the latency
        objective: per-replica cost becomes ``(1 - w) * predicted +
        w * observed_ewma`` when the caller passes an observation for
        that shard. ``0.0`` (the default) keeps pure capability-model
        routing; the energy objective never blends (no energy is
        observed at serve time).
    """

    def __init__(
        self,
        hardware=None,
        objective: str = "latency",
        observed_weight: float = 0.0,
    ) -> None:
        if objective not in ("latency", "energy"):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown routing objective {objective!r}"
            )
        if not 0.0 <= observed_weight <= 1.0:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"observed_weight must lie in [0, 1] "
                f"(got {observed_weight})"
            )
        self.hardware = hardware
        self.objective = objective
        self.observed_weight = float(observed_weight)
        self._caps: dict[str, object] = {}
        self._predictions: dict[tuple, float] = {}
        self.decisions = 0

    def _capabilities(self, substrate: str):
        caps = self._caps.get(substrate)
        if caps is None:
            caps = substrate_capabilities(substrate, self.hardware)
            self._caps[substrate] = caps
        return caps

    def predict(
        self,
        substrate: str,
        n_vectors: int,
        dims: int,
        n_queries: int = 1,
        input_bits: int | None = None,
    ) -> float:
        """Predicted cost of one batch under the routing objective."""
        key = (substrate, n_vectors, dims, n_queries, input_bits)
        cost = self._predictions.get(key)
        if cost is None:
            caps = self._capabilities(substrate)
            if self.objective == "latency":
                cost = caps.predict_query_ns(
                    n_vectors, dims, n_queries, input_bits
                )
            else:
                cost = caps.predict_query_energy_j(
                    n_vectors, dims, n_queries, input_bits
                )
            self._predictions[key] = cost
        return cost

    def order(
        self,
        chunk: int,
        candidates: list[tuple[int, str, int, int]],
        n_queries: int = 1,
        input_bits: int | None = None,
        observed: "dict[int, float] | None" = None,
    ) -> RoutingDecision:
        """Rank ``(shard_id, substrate, n_vectors, dims)`` candidates.

        Returns the full ranking, not just the winner: callers keep the
        tail as the failover order, so a dead winner degrades to the
        next-cheapest replica instead of an arbitrary one.

        ``observed`` maps shard id -> measured per-dispatch service-time
        EWMA in ns; when present (and ``observed_weight > 0`` under the
        latency objective) each replica's cost blends the capability
        prediction with its measured history, so a shard that *should*
        be fast but is observed slow loses the ranking it would win on
        paper.
        """
        blend = (
            self.observed_weight
            if self.objective == "latency" and observed
            else 0.0
        )

        def _cost(shard: int, substrate: str, n_vectors: int, dims: int):
            predicted = self.predict(
                substrate, n_vectors, dims, n_queries, input_bits
            )
            seen = observed.get(shard) if blend else None
            if seen is None or seen <= 0.0:
                return predicted
            return (1.0 - blend) * predicted + blend * seen

        ranked = sorted(
            (
                (shard, substrate, _cost(shard, substrate, n, d))
                for shard, substrate, n, d in candidates
            ),
            key=lambda item: (item[2], item[0]),
        )
        self.decisions += 1
        return RoutingDecision(
            chunk=chunk, n_queries=n_queries, ranked=tuple(ranked)
        )

"""Where each data chunk and each of its replicas lives.

Two decisions, both taken here:

* **rows to chunks.** A :class:`ShardPlacement` maps every global
  dataset row to a chunk id (:func:`plan_placement` builds the
  ``range`` and ``hash`` kinds). Chunk ``c`` is primarily hosted by
  shard ``c``.
* **chunks to shards.** :class:`ReplicaPlacement` picks each chunk's
  replica set — the ring ``(c + j) % N``, or a failure-domain spread
  when a topology is attached — keeps the durability accounting
  (:meth:`~ReplicaPlacement.chunk_risk`,
  :meth:`~ReplicaPlacement.spread_report`) and chooses re-replication
  targets (:meth:`~ReplicaPlacement.select_replica_target`, the one
  candidate filter the repair layer uses too).

Answers never depend on either decision: the quantizer is global and
ties resolve canonically (:mod:`repro.kernels`), so placement
changes *which* shards serve a chunk, never the values served.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.hardware.config import DOMAIN_LEVELS
from repro.telemetry import get_recorder

PLACEMENT_KINDS = ("range", "hash")

#: Knuth's multiplicative constant; spreads consecutive indices evenly.
_HASH_MULTIPLIER = 2654435761


@dataclass(frozen=True)
class ShardPlacement:
    """Which shard each global dataset row lives on.

    ``assignments[i]`` is the shard id of global row ``i``; shard ids
    must lie in ``[0, n_shards)``. Empty shards are allowed (they simply
    contribute no candidates), which keeps arbitrary explicit placements
    — the property tests exercise them — legal.
    """

    n_shards: int
    assignments: np.ndarray
    kind: str = "explicit"

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ServingError("a placement needs at least one shard")
        assignments = np.asarray(self.assignments, dtype=np.int64)
        if assignments.ndim != 1:
            raise ServingError("assignments must be a 1-D shard-id vector")
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= self.n_shards
        ):
            raise ServingError(
                f"shard ids must lie in [0, {self.n_shards})"
            )
        object.__setattr__(self, "assignments", assignments)

    @property
    def n_rows(self) -> int:
        """Number of placed dataset rows."""
        return int(self.assignments.size)

    def rows_of(self, shard_id: int) -> np.ndarray:
        """Global row indices living on one shard (ascending)."""
        return np.flatnonzero(self.assignments == shard_id)


def plan_placement(
    n: int, n_shards: int, kind: str = "range", seed: int = 0
) -> ShardPlacement:
    """A deterministic placement of ``n`` rows over ``n_shards`` shards.

    ``range`` slices the dataset into contiguous blocks of near-equal
    size (the first ``n % n_shards`` shards get one extra row);
    ``hash`` scatters rows by a seeded multiplicative hash of the global
    index, decorrelating placement from dataset order.
    """
    if n < 1:
        raise ServingError("cannot place an empty dataset")
    if n_shards < 1:
        raise ServingError("need at least one shard")
    if kind not in PLACEMENT_KINDS:
        raise ServingError(
            f"unknown placement {kind!r}; expected one of {PLACEMENT_KINDS}"
        )
    if kind == "range":
        base, extra = divmod(n, n_shards)
        sizes = [base + (1 if s < extra else 0) for s in range(n_shards)]
        assignments = np.repeat(np.arange(n_shards, dtype=np.int64), sizes)
    else:
        idx = np.arange(n, dtype=np.uint64) + np.uint64(seed)
        hashed = (idx * np.uint64(_HASH_MULTIPLIER)) % np.uint64(2**32)
        assignments = (hashed % np.uint64(n_shards)).astype(np.int64)
    return ShardPlacement(
        n_shards=n_shards, assignments=assignments, kind=kind
    )


class ReplicaPlacement:
    """Replica-set, durability and re-replication-target decisions.

    A mixin of :class:`~repro.serving.sharding.ShardManager`. It reads
    the manager's shape (``n_shards``, ``n_chunks``, ``replication``,
    ``chunk_rows``, ``verify``), its ``topology`` and ``spread`` flag,
    its live state (``replicas``, ``shards``, ``health``,
    ``last_checkpoint_ns``) and appends to ``placement_violations``.
    """

    def _initial_replicas(self) -> list[tuple[int, ...]]:
        """Replica sets at construction: domain-spread or ring."""
        if self.topology is not None and self.spread and self.replication > 1:
            return self._spread_replicas()
        return [
            tuple((c + j) % self.n_shards for j in range(self.replication))
            for c in range(self.n_chunks)
        ]

    def _spread_replicas(self) -> list[tuple[int, ...]]:
        """Greedy domain-spread replica placement.

        Chunk ``c`` keeps shard ``c`` as its primary (bit-compatible
        with the ring layout at replication 1); each further replica
        goes to the candidate sharing the *fewest* domain levels with
        the replicas already chosen, breaking ties toward the least-
        loaded shard and then ring order, so the layout stays balanced
        and deterministic. When even the best candidate shares a
        domain (fleet shape makes full spread impossible), the pairing
        is recorded in ``placement_violations``.
        """
        topology = self.topology
        load = [0] * self.n_shards
        replicas: list[tuple[int, ...]] = []
        for c in range(self.n_chunks):
            chosen = [c % self.n_shards]
            load[chosen[0]] += 1
            for _ in range(1, self.replication):
                best = None
                best_key = None
                for offset in range(1, self.n_shards):
                    s = (c + offset) % self.n_shards
                    if s in chosen:
                        continue
                    depth = max(
                        topology.shared_depth(s, t) for t in chosen
                    )
                    key = (depth, load[s], offset)
                    if best_key is None or key < best_key:
                        best, best_key = s, key
                if best is None:
                    break  # replication == n_shards and all chosen
                self._note_co_domain("placement", c, best, chosen)
                chosen.append(best)
                load[best] += 1
            replicas.append(tuple(chosen))
        return replicas

    def _note_co_domain(
        self, context: str, chunk: int, shard: int, others
    ) -> None:
        """Record an unavoidable co-domain pairing of ``shard`` with the
        replicas ``others`` of ``chunk`` (nothing when fully spread)."""
        depth = self.topology.shared_depth
        other = max(others, key=lambda t: depth(shard, t), default=None)
        if other is None or depth(shard, other) == 0:
            return
        self.placement_violations.append(
            {
                "context": context,
                "chunk": int(chunk),
                "shard": int(shard),
                "with": int(other),
                "level": self.topology.shared_level(shard, other),
            }
        )
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter(
                "serving.placement.spread_violations"
            ).add(1)

    def live_replicas(self, chunk: int) -> list[int]:
        """Shards currently able to serve ``chunk`` (alive and hosting)."""
        return [
            s
            for s in self.replicas[chunk]
            if self.health.alive(s) and chunk in self.shards[s].chunk_slices
        ]

    def replica_counts(self) -> list[int]:
        """Live replica count per chunk — the quantity repair restores."""
        return [len(self.live_replicas(c)) for c in range(self.n_chunks)]

    def chunk_risk(self, chunk: int) -> str | None:
        """The widest domain level whose single outage would take every
        live replica of ``chunk`` (None = no correlated single point of
        failure, or no topology attached).

        Checked coarsest-first: replicas all inside one power domain
        are at risk from a power outage even if they sit on distinct
        boards and channels. A level only counts when the fleet has
        more than one domain at it — a one-power-domain fleet cannot
        spread at the power level, and flagging every chunk would
        drown the signal.
        """
        if self.topology is None:
            return None
        live = self.live_replicas(chunk)
        if not live:
            return None
        for level in reversed(DOMAIN_LEVELS):  # power, channel, board
            if self.topology.n_domains(level) < 2:
                continue
            domains = {self.topology.domain_of(s, level) for s in live}
            if len(domains) == 1:
                return level
        return None

    def spread_report(self) -> dict:
        """Fleet durability accounting: per-chunk replica spread,
        at-risk chunks, placement violations, checkpoint age.

        Without a topology the report degrades gracefully: spread is
        the live replica count and a chunk is at risk exactly when a
        single further shard loss would leave no replica.
        """
        topology = self.topology
        per_chunk = []
        at_risk: list[int] = []
        per_shard_at_risk = [0] * self.n_shards
        min_spread: int | None = None
        for c in range(self.n_chunks):
            live = self.live_replicas(c)
            entry: dict = {"chunk": c, "live_replicas": live}
            if topology is not None:
                entry["spread"] = {
                    level: len(
                        {topology.domain_of(s, level) for s in live}
                    )
                    for level in DOMAIN_LEVELS
                }
                risk = self.chunk_risk(c)
                entry["at_risk"] = risk
                spread = entry["spread"]["power"]
            else:
                risk = "shard" if len(live) == 1 else None
                entry["at_risk"] = risk
                spread = len(live)
            if live:
                min_spread = (
                    spread
                    if min_spread is None
                    else min(min_spread, spread)
                )
            if risk is not None:
                at_risk.append(c)
                for s in live:
                    per_shard_at_risk[s] += 1
            per_chunk.append(entry)
        return {
            "per_chunk": per_chunk,
            "at_risk_chunks": at_risk,
            "n_at_risk": len(at_risk),
            "per_shard_at_risk": per_shard_at_risk,
            "min_spread": min_spread,
            "violations": [dict(v) for v in self.placement_violations],
            "topology": (
                topology.describe() if topology is not None else None
            ),
            "spread_placement": (
                topology is not None and self.spread
            ),
            "last_checkpoint_ns": self.last_checkpoint_ns,
        }

    def replica_target_score(self, chunk: int, shard: int) -> tuple:
        """Ordering key for re-replication targets of ``chunk``.

        Lower is better: first minimise the domain overlap with the
        chunk's live replicas (0 = fully spread-restoring), then prefer
        the emptiest shard, then the lowest id — without a topology the
        overlap term is constant and the historical (rows, id) order is
        preserved exactly.
        """
        if self.topology is None:
            overlap = 0
        else:
            overlap = max(
                (
                    self.topology.shared_depth(shard, t)
                    for t in self.live_replicas(chunk)
                    if t != shard
                ),
                default=0,
            )
        return (overlap, self.shards[shard].n_rows, shard)

    def select_replica_target(
        self, chunk: int, exclude=frozenset()
    ) -> int | None:
        """The best shard to host a new replica of ``chunk``.

        The candidates are the alive shards outside ``exclude`` that do
        not host the chunk yet and can fit its rows (spare reservation
        and checksum row included). The best one by
        :meth:`replica_target_score` restores full failure-domain spread
        when any candidate can; ``None`` when no candidate exists.
        """
        rows = int(self.chunk_rows[chunk].size)
        candidates = [
            s
            for s in range(self.n_shards)
            if s not in exclude
            and self.health.alive(s)
            and chunk not in self.shards[s].chunk_slices
            and self.shards[s].can_host(rows, self.verify)
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda s: self.replica_target_score(chunk, s)
        )

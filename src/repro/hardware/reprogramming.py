"""Chunked crossbar re-programming for oversized datasets.

The paper's first future-work item: when a dataset does not fit the PIM
array even after Theorem 4 compression, the crossbars must be
re-programmed chunk by chunk — paying ReRAM's slow writes on every swap
and, worse, consuming the device's limited write endurance (Table 1).
Section V-C prefers compression precisely to avoid this.

:class:`ChunkedDotProductEngine` implements the naive scheme so its cost
can be measured: the dataset is partitioned into resident-size chunks;
each query wave iterates the chunks, re-programming the array whenever
the needed chunk is not resident. Two policies are provided:

* ``round_robin`` — every query touches every chunk in order (a full
  scan), so each query pays ``n_chunks - 1`` re-programmings;
* ``pinned`` — the first chunk stays resident and only the remainder
  swaps, modelling a hot-set split.

The engine reports per-query latency, cumulative write counts, and the
projected device lifetime in queries — the numbers behind the paper's
"avoid re-programming" design rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, ConfigurationError, OperandError
from repro.hardware.config import HardwareConfig, pim_platform
from repro.hardware.memory import MemoryArray
from repro.hardware.pim_array import PIMArray
from repro.telemetry import get_recorder

POLICIES = ("round_robin", "pinned")


@dataclass
class ReprogrammingStats:
    """Cumulative accounting of a chunked engine."""

    queries: int = 0
    reprogrammings: int = 0
    programming_time_ns: float = 0.0
    wave_time_ns: float = 0.0

    @property
    def total_time_ns(self) -> float:
        """Programming plus wave time."""
        return self.programming_time_ns + self.wave_time_ns


class ChunkedDotProductEngine:
    """Dot products of a query against a dataset larger than the array.

    Parameters
    ----------
    hardware:
        PIM platform (Table 5 defaults).
    policy:
        ``"round_robin"`` or ``"pinned"``.
    """

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        policy: str = "round_robin",
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        self.hardware = hardware if hardware is not None else pim_platform()
        self.policy = policy
        self.pim = PIMArray(self.hardware)
        self.memory = MemoryArray(self.hardware.memory, device="reram")
        self.stats = ReprogrammingStats()
        self._data: np.ndarray | None = None
        self._chunks: list[np.ndarray] = []
        self._resident: int | None = None

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """Number of dataset chunks."""
        return len(self._chunks)

    def load(self, data: np.ndarray) -> int:
        """Partition ``data`` into resident-size chunks.

        Returns the chunk count. A dataset that fits entirely yields a
        single chunk (no re-programming ever happens).
        """
        data = np.ascontiguousarray(data)
        if data.ndim != 2:
            raise OperandError("load() expects a (vectors x dims) matrix")
        n, dims = data.shape
        config = self.pim.config
        chunk_rows = self._max_resident_vectors(dims)
        if chunk_rows <= 0:
            raise CapacityError(
                f"not even one {dims}-dimensional vector fits the array"
            )
        n_chunks = math.ceil(n / chunk_rows)
        self._data = data
        self._chunks = [
            data[i * chunk_rows : (i + 1) * chunk_rows]
            for i in range(n_chunks)
        ]
        self._resident = None
        self.stats = ReprogrammingStats()
        return n_chunks

    def _max_resident_vectors(self, dims: int) -> int:
        """Largest chunk cardinality the array holds at ``dims``."""
        from repro.core.memory_manager import max_vectors_at_dims

        try:
            return max_vectors_at_dims(dims, self.pim.config)
        except CapacityError:
            return 0

    # ------------------------------------------------------------------
    def _make_resident(self, chunk_id: int) -> None:
        if self._resident == chunk_id:
            return
        swapped_out = self._resident
        chunk = self._chunks[chunk_id]
        tele = get_recorder()
        span = (
            tele.begin_span(
                "pim.reprogram", "pim_reprogram",
                chunk=chunk_id, evicted=swapped_out, policy=self.policy,
            )
            if tele.enabled
            else None
        )
        if self._resident is not None:
            self.pim.reset_matrix("chunk")
        # program_matrix advances the simulated clock by the crossbar
        # write time itself (nested pim.program span); only the memory
        # array read feeding the programming is charged here.
        layout = self.pim.program_matrix("chunk", chunk)
        self.stats.reprogrammings += 1
        read_ns = self.memory.read_time_ns(chunk.nbytes)
        self.stats.programming_time_ns += (
            self.pim.model.program_ns(layout) + read_ns
        )
        self._resident = chunk_id
        if span is not None:
            tele.advance(read_ns)
            tele.end_span()
            tele.metrics.counter("reprogram.events").add(1)
            if swapped_out is not None:
                tele.metrics.counter("reprogram.evictions").add(1)
            tele.metrics.gauge("reprogram.resident_chunk").set(chunk_id)

    def dot_products_all(self, query: np.ndarray) -> np.ndarray:
        """Dot products of ``query`` with every vector of the dataset.

        Iterates the chunks; a chunk swap re-programs the array and is
        charged against latency and endurance.
        """
        if self._data is None:
            raise OperandError("load() must run before queries")
        query = np.asarray(query)
        outputs: list[tuple[int, np.ndarray]] = []
        order = list(range(self.n_chunks))
        if self.policy == "pinned" and self._resident is not None:
            # start with whatever is already resident: saves one
            # re-programming per query versus always starting at chunk 0
            resident = self._resident
            order = [resident] + [c for c in order if c != resident]
        for chunk_id in order:
            self._make_resident(chunk_id)
            result = self.pim.query("chunk", query)
            self.stats.wave_time_ns += result.timing.total_ns
            outputs.append((chunk_id, result.values))
        self.stats.queries += 1
        outputs.sort(key=lambda pair: pair[0])
        return np.concatenate([values for _, values in outputs])

    # ------------------------------------------------------------------
    def writes_per_query(self) -> float:
        """Average crossbar re-programmings one query costs."""
        if self.stats.queries == 0:
            return 0.0
        return self.stats.reprogrammings / self.stats.queries

    def projected_lifetime_queries(self) -> float:
        """Queries until the most-worn crossbar hits its endurance.

        With one write cycle per re-programming per crossbar, lifetime
        is ``endurance / writes_per_query`` — effectively infinite for a
        single-chunk (fully resident) dataset.
        """
        wpq = self.writes_per_query()
        if wpq == 0.0:
            return float("inf")
        return self.pim.config.crossbar.endurance / wpq

    def amortized_query_time_ns(self) -> float:
        """Average end-to-end time per query, swaps included."""
        if self.stats.queries == 0:
            return 0.0
        return self.stats.total_time_ns / self.stats.queries

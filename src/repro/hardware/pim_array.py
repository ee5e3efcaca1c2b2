"""Array-level PIM interface: program matrices, fire dot-product waves.

:class:`PIMArray` is the substrate the mining layer talks to. Datasets
(or several distinct matrices — e.g. a code matrix and its complement for
Hamming distance) are programmed once at the offline stage; at the online
stage a *wave* evaluates one query vector against every programmed vector
of a matrix concurrently and deposits the results in the buffer array.

Two execution paths produce identical values:

* the default fast path computes the integer matrix-vector product
  exactly on float64 BLAS (:class:`~repro.hardware.bitslice.ExactMatrix`:
  the matrix is held once, as float64, with its exact row sums; rows
  whose dot products could pass ``2**53`` are recomputed with the
  int64 matmul).
  The bit-sliced analog pipeline is value-exact, so this is a pure
  optimisation; the cycle-accurate wave latency is still charged;
* ``simulate_cells=True`` runs the *fused* bit-sliced kernel: the
  operand bit-slice decomposition is precomputed at ``program()`` time
  (cached per matrix, dropped on reprogram/remap) and every wave is one
  whole-array tensor contraction over (operand-slice, input-slice)
  partials — cell-faithful DAC/ADC bit-slicing without Python loops.

:class:`repro.oracle.LoopPIMArray` is the slow loop oracle the fused
kernel is checked against, bit for bit, on small geometries: it merges
the partial results of the real
:class:`~repro.hardware.crossbar.Crossbar` objects per crossbar and per
slice. Every path shares the analytical timing model (latency is
computed from the layout, not from the execution style), so simulated
times are identical by construction; the fusion golden tests pin them
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CapacityError, OperandError, ProgrammingError
from repro.hardware import bitslice
from repro.hardware.buffer import BufferArray
from repro.hardware.config import HardwareConfig, PIMArrayConfig, pim_platform
from repro.hardware.crossbar import Crossbar
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.mapper import (
    DatasetLayout,
    plan_layout,
    reserve_spares,
    vectors_per_crossbar,
)
from repro.hardware.timing import (
    BatchWaveTiming,
    WaveTiming,
    batch_wave_timing,
    programming_time_ns,
    wave_timing,
)
from repro.telemetry import get_recorder


@dataclass(frozen=True)
class PIMQueryResult:
    """Values plus timing of one dot-product wave."""

    values: np.ndarray
    timing: WaveTiming


@dataclass(frozen=True)
class PIMBatchResult:
    """Values plus timing of one batched multi-query wave."""

    values: np.ndarray
    timing: BatchWaveTiming


@dataclass
class MatrixBatchState:
    """Per-matrix dispatch accounting (batch traffic of one matrix).

    Scoped to the *currently programmed* matrix of a name: resetting the
    matrix discards its record, so a later matrix reusing the name (the
    chunked re-programming engine does this constantly) starts from zero
    and shard-level aggregation never double counts a stale generation.
    """

    waves: int = 0
    batches: int = 0
    batched_queries: int = 0
    pim_time_ns: float = 0.0


@dataclass
class PIMStats:
    """Cumulative activity counters of a :class:`PIMArray`.

    ``waves`` counts logical query waves regardless of dispatch style, so
    a batch of B queries and B sequential queries report the same count;
    ``batches``/``batched_queries`` record how much of that traffic went
    through the amortized batch path, and ``batch_saved_ns`` the wave
    time the amortization saved versus sequential dispatch.
    ``per_matrix`` holds the same dispatch counters scoped to each live
    programmed matrix (cleared by ``reset_matrix``).

    The counters are substrate-neutral: ``crossbars_used`` counts
    occupied *physical units* of whatever the backend calls them
    (crossbars, DRAM banks, ...), ``backend`` names the substrate, and
    backend-specific counters (MAC commands, row activations, ADC
    conversions per domain, ...) live in the free-form ``extra`` map so
    unlike backends merge without assuming each other's fields.
    """

    waves: int = 0
    pim_time_ns: float = 0.0
    programming_time_ns: float = 0.0
    crossbars_used: int = 0
    results_produced: int = 0
    batches: int = 0
    batched_queries: int = 0
    batch_saved_ns: float = 0.0
    remaps: int = 0
    matrices: dict[str, "object"] = field(default_factory=dict)
    per_matrix: dict[str, MatrixBatchState] = field(default_factory=dict)
    backend: str = "crossbar"
    extra: dict[str, float] = field(default_factory=dict)

    #: distinct ``extra`` keys a merged stats object keeps before folding
    #: the remainder into ``__other__`` (cardinality guard for reports)
    MAX_EXTRA_KEYS = 16

    def add_extra(self, key: str, amount: float) -> None:
        """Accumulate a backend-specific counter."""
        self.extra[key] = self.extra.get(key, 0.0) + float(amount)

    @property
    def waves_per_batch(self) -> float:
        """Mean batch size of the batched traffic (0 when unused)."""
        if self.batches == 0:
            return 0.0
        return self.batched_queries / self.batches

    def matrix_state(self, name: str) -> MatrixBatchState:
        """The live batch state of one matrix (created on first use)."""
        state = self.per_matrix.get(name)
        if state is None:
            state = MatrixBatchState()
            self.per_matrix[name] = state
        return state

    @classmethod
    def merge(
        cls,
        parts: "list[PIMStats] | tuple[PIMStats, ...]",
        prefixes: list[str] | tuple[str, ...] | None = None,
    ) -> "PIMStats":
        """Aggregate the stats of several arrays (e.g. one per shard).

        Scalar counters sum; the ``matrices``/``per_matrix`` maps are
        united, with each part's keys optionally namespaced by the
        matching entry of ``prefixes`` (shards that reuse a matrix name,
        like the chunked engine's ``"chunk"``, need distinct prefixes).
        An un-prefixed name collision raises :class:`ProgrammingError`
        rather than silently double counting.

        The merge is backend-agnostic: parts from unlike substrates
        combine cleanly — ``backend`` becomes ``"mixed"`` when the parts
        disagree, and the backend-specific ``extra`` counters sum
        key-wise, with keys past :attr:`MAX_EXTRA_KEYS` folded into a
        single ``__other__`` bucket so heterogeneous fleets cannot blow
        up report cardinality.
        """
        if prefixes is not None and len(prefixes) != len(parts):
            raise ProgrammingError(
                "merge() needs exactly one prefix per stats part"
            )
        merged = cls()
        backends = {part.backend for part in parts}
        if backends:
            merged.backend = (
                backends.pop() if len(backends) == 1 else "mixed"
            )
        for i, part in enumerate(parts):
            prefix = prefixes[i] if prefixes is not None else ""
            for key in sorted(part.extra):
                target = key
                if (
                    target not in merged.extra
                    and len(merged.extra) >= cls.MAX_EXTRA_KEYS
                ):
                    target = "__other__"
                merged.extra[target] = (
                    merged.extra.get(target, 0.0) + part.extra[key]
                )
            merged.waves += part.waves
            merged.pim_time_ns += part.pim_time_ns
            merged.programming_time_ns += part.programming_time_ns
            merged.crossbars_used += part.crossbars_used
            merged.results_produced += part.results_produced
            merged.batches += part.batches
            merged.batched_queries += part.batched_queries
            merged.batch_saved_ns += part.batch_saved_ns
            merged.remaps += part.remaps
            for name, layout in part.matrices.items():
                key = prefix + name
                if key in merged.matrices:
                    raise ProgrammingError(
                        f"merge() would double count matrix {key!r}; "
                        "pass distinct prefixes"
                    )
                merged.matrices[key] = layout
            for name, state in part.per_matrix.items():
                key = prefix + name
                if key in merged.per_matrix:
                    raise ProgrammingError(
                        f"merge() would double count matrix {key!r}; "
                        "pass distinct prefixes"
                    )
                merged.per_matrix[key] = MatrixBatchState(
                    waves=state.waves,
                    batches=state.batches,
                    batched_queries=state.batched_queries,
                    pim_time_ns=state.pim_time_ns,
                )
        return merged


class _ProgrammedMatrix:
    """Internal record of one programmed matrix.

    ``matrix`` is the single resident copy of the operands, held for the
    fast path's exact BLAS waves. ``sliced`` caches the operand
    bit-slice decomposition the fused cell-level kernel contracts
    against — shape ``(n_vectors, dims, n_operand_slices)``, int64. It
    is built at program time, rebuilt lazily after :meth:`drop_sliced`
    (any reprogram/remap event), and absent entirely on the fast path.
    """

    def __init__(
        self,
        matrix: bitslice.ExactMatrix,
        layout: DatasetLayout,
        crossbars: list[list[Crossbar]] | None,
        crossbar_ids: list[int] | None = None,
    ) -> None:
        self.matrix = matrix
        self.layout = layout
        self.crossbars = crossbars  # only in simulate_cells mode
        self.crossbar_ids = crossbar_ids or []
        self.sliced: np.ndarray | None = None

    def drop_sliced(self) -> None:
        """Invalidate the cached bit-slice decomposition."""
        self.sliced = None


class PIMArray:
    """The PIM array of one ReRAM memory module.

    Parameters
    ----------
    hardware:
        Platform description; must contain a PIM array. Defaults to the
        paper's Table 5 platform.
    simulate_cells:
        Route every wave through the fused, cell-faithful bit-sliced
        kernel.
    spare_crossbars:
        Crossbars withheld from data placement as a repair pool. A
        stuck/dead crossbar can be remapped onto the least-worn spare
        (see :meth:`remap_crossbar`); the capacity available to
        :meth:`program_matrix` shrinks by the reservation.
    """

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        simulate_cells: bool = False,
        spare_crossbars: int = 0,
    ) -> None:
        self.hardware = hardware if hardware is not None else pim_platform()
        if self.hardware.pim is None:
            raise ProgrammingError("hardware platform has no PIM array")
        self.config: PIMArrayConfig = self.hardware.pim
        self.simulate_cells = simulate_cells
        self.buffer = BufferArray(self.hardware.memory)
        self.endurance = EnduranceTracker(self.config.crossbar.endurance)
        self.stats = PIMStats()
        self._matrices: dict[str, _ProgrammedMatrix] = {}
        self._next_crossbar_id = 0
        self._free_crossbar_ids: list[int] = []
        self.spare_crossbars = int(spare_crossbars)
        self.data_capacity = reserve_spares(self.config, self.spare_crossbars)
        # spares take the first physical ids so data/spare sets are
        # disjoint and deterministic across runs
        self._spare_ids: list[int] = list(range(self.spare_crossbars))
        self._next_crossbar_id = self.spare_crossbars
        self.remap_table: dict[int, int] = {}
        self._retired_ids: set[int] = set()

    # ------------------------------------------------------------------
    # programming (offline stage)
    # ------------------------------------------------------------------
    def program_matrix(
        self, name: str, matrix: np.ndarray, input_bits: int | None = None
    ) -> DatasetLayout:
        """Program a named ``(n_vectors, dims)`` integer matrix.

        Parameters
        ----------
        name:
            Handle used by :meth:`query`.
        matrix:
            Non-negative integers below ``2**operand_bits``.
        input_bits:
            Reserved for callers that later query with narrower inputs;
            only validated here.

        Returns
        -------
        DatasetLayout
            The crossbar placement, also recorded in :attr:`stats`.
        """
        if name in self._matrices:
            raise ProgrammingError(
                f"matrix {name!r} already programmed; reset it first"
            )
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2:
            raise OperandError("expected a 2-D (vectors x dims) matrix")
        bitslice.check_non_negative_integers(matrix, self.config.operand_bits)
        n_vectors, dims = matrix.shape
        layout = plan_layout(n_vectors, dims, self.config)
        used = self.stats.crossbars_used + layout.n_crossbars
        if used > self.data_capacity:
            detail = (
                f" ({self.spare_crossbars} reserved as spares)"
                if self.spare_crossbars
                else ""
            )
            raise CapacityError(
                f"programming {name!r} would use {used} crossbars, "
                f"array has {self.data_capacity}{detail}"
            )
        crossbars: list[list[Crossbar]] | None = None
        crossbar_ids: list[int] = []
        if self.simulate_cells:
            crossbars = self._program_cells(matrix, layout)
            crossbar_ids = [
                xbar.crossbar_id for column in crossbars for xbar in column
            ]
        else:
            # charge endurance at layout granularity (one write per
            # crossbar), reusing freed physical crossbars so repeated
            # re-programming accumulates wear on the same cells
            for _ in range(layout.n_crossbars):
                if self._free_crossbar_ids:
                    unit = self._free_crossbar_ids.pop()
                else:
                    unit = self._next_crossbar_id
                    self._next_crossbar_id += 1
                self.endurance.record_write(unit)
                crossbar_ids.append(unit)
        record = _ProgrammedMatrix(
            bitslice.ExactMatrix(matrix), layout, crossbars, crossbar_ids
        )
        if self.simulate_cells:
            self._prepare_cells(record)
        self._matrices[name] = record
        self.stats.crossbars_used = used
        self.stats.matrices[name] = layout
        program_ns = programming_time_ns(layout, self.config)
        self.stats.programming_time_ns += program_ns
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.program", "pim_program",
                matrix=name, vectors=n_vectors, dims=dims,
                crossbars=layout.n_crossbars,
            ):
                tele.advance(program_ns)
            tele.metrics.counter("pim.programmed_crossbars").add(
                layout.n_crossbars
            )
            tele.metrics.gauge("pim.crossbars_used").set(used)
        return layout

    def _program_cells(
        self, matrix: np.ndarray, layout: DatasetLayout
    ) -> list[list[Crossbar]]:
        """Shard the matrix over real crossbar objects (simulate mode)."""
        rows = self.config.crossbar.rows
        per_xbar = vectors_per_crossbar(self.config)
        n_vectors, dims = matrix.shape
        shards: list[list[Crossbar]] = []
        for v0 in range(0, n_vectors, per_xbar):
            chunk_vectors = matrix[v0 : v0 + per_xbar]
            column: list[Crossbar] = []
            for d0 in range(0, dims, rows):
                xbar = Crossbar(
                    self.config.crossbar,
                    crossbar_id=self._next_crossbar_id,
                    endurance_tracker=self.endurance,
                )
                self._next_crossbar_id += 1
                xbar.program(
                    chunk_vectors[:, d0 : d0 + rows], self.config.operand_bits
                )
                column.append(xbar)
            shards.append(column)
        return shards

    def reset_matrix(self, name: str) -> None:
        """Erase a programmed matrix, freeing its crossbars.

        Re-programming afterwards wears the device: the endurance tracker
        keeps counting against the same crossbar budget. The matrix's
        per-matrix batch state is dropped too, so a successor matrix
        reusing the name starts its accounting from zero (aggregating
        shard stats would otherwise double count stale generations).
        """
        record = self._matrices.pop(name, None)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        self.stats.crossbars_used -= record.layout.n_crossbars
        del self.stats.matrices[name]
        self.stats.per_matrix.pop(name, None)
        record.drop_sliced()
        if record.crossbars is None:
            # cell-mode crossbar objects are not recycled; only the
            # fast path returns physical ids to the free pool
            self._free_crossbar_ids.extend(record.crossbar_ids)
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("pim.matrix_resets").add(1)
            tele.metrics.gauge("pim.crossbars_used").set(
                self.stats.crossbars_used
            )
        if record.crossbars is not None:
            for column in record.crossbars:
                for xbar in column:
                    xbar.reset()

    def layouts(self) -> dict[str, DatasetLayout]:
        """Layouts of all programmed matrices."""
        return {name: rec.layout for name, rec in self._matrices.items()}

    def matrix_of(self, name: str) -> np.ndarray:
        """The int64 matrix currently programmed under ``name``.

        Converted from the resident float64 copy on each call, for
        diagnostics and fault injectors; mutating the returned array is
        undefined behaviour.
        """
        return self._record(name).matrix.to_int64()

    # ------------------------------------------------------------------
    # spare pool + remap table (repair layer)
    # ------------------------------------------------------------------
    @property
    def spares_remaining(self) -> int:
        """Spare crossbars still available for remapping."""
        return len(self._spare_ids)

    def crossbar_ids_of(self, name: str) -> list[int]:
        """Physical crossbar ids currently backing matrix ``name``."""
        return list(self._record(name).crossbar_ids)

    def remap_crossbar(self, old_id: int) -> tuple[int, float]:
        """Remap one flagged crossbar onto the least-worn spare.

        The owning matrix's placement is rewritten in place (values are
        unchanged — the logical matrix is simply reprogrammed onto the
        spare), the spare is charged one endurance write plus the
        per-crossbar reprogramming latency, and ``old_id`` is retired
        permanently: it never re-enters the free list.

        Returns
        -------
        tuple
            ``(spare_id, reprogram_ns)``.

        Raises
        ------
        CapacityError
            When the spare pool is exhausted.
        ProgrammingError
            When ``old_id`` backs no programmed matrix.
        """
        owner = None
        for name, record in self._matrices.items():
            if old_id in record.crossbar_ids:
                owner = (name, record)
                break
        if owner is None:
            raise ProgrammingError(
                f"crossbar {old_id} backs no programmed matrix"
            )
        if not self._spare_ids:
            raise CapacityError(
                f"spare pool exhausted remapping crossbar {old_id}"
            )
        name, record = owner
        spare = min(
            self._spare_ids,
            key=lambda u: (self.endurance.write_count(u), u),
        )
        self._spare_ids.remove(spare)
        self.endurance.record_write(spare)
        record.crossbar_ids[record.crossbar_ids.index(old_id)] = spare
        # the logical values are reprogrammed onto the spare: any cached
        # bit-slice decomposition is rebuilt from scratch on next query
        # (defensively — stale cell state must never outlive a remap)
        record.drop_sliced()
        if record.crossbars is not None:
            for column in record.crossbars:
                for xbar in column:
                    if xbar.crossbar_id == old_id:
                        xbar.crossbar_id = spare
        self.remap_table[old_id] = spare
        self._retired_ids.add(old_id)
        from repro.hardware.reprogramming import crossbar_reprogram_ns

        reprogram_ns = crossbar_reprogram_ns(record.layout, self.config)
        self.stats.programming_time_ns += reprogram_ns
        self.stats.remaps += 1
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.remap", "pim_program",
                matrix=name, old_crossbar=old_id, spare=spare,
            ):
                tele.advance(reprogram_ns)
            tele.metrics.counter("pim.remaps").add(1)
            tele.metrics.gauge("pim.spares_remaining").set(
                len(self._spare_ids)
            )
        return spare, reprogram_ns

    def remap_crossbars(self, old_ids: list[int]) -> tuple[list[int], float]:
        """Remap several crossbars; returns the spares and total latency."""
        spares: list[int] = []
        total_ns = 0.0
        for old_id in old_ids:
            spare, ns = self.remap_crossbar(old_id)
            spares.append(spare)
            total_ns += ns
        return spares, total_ns

    # ------------------------------------------------------------------
    # substrate protocol surface (see repro.substrate.protocol)
    # ------------------------------------------------------------------
    #: what this backend calls one physical unit
    unit_name = "crossbar"

    def units_needed(self, n_vectors: int, dims: int) -> int:
        """Physical units a fresh ``(n_vectors, dims)`` matrix occupies."""
        from repro.hardware.mapper import total_crossbars

        return total_crossbars(n_vectors, dims, self.config)

    def fits_matrix(
        self, n_vectors: int, dims: int, exclude: str | None = None
    ) -> bool:
        """Would a ``(n_vectors, dims)`` matrix fit alongside current data?

        ``exclude`` names a programmed matrix whose units are treated as
        free — the grow-in-place check used by chunk re-replication.
        """
        free = self.data_capacity - self.stats.crossbars_used
        if exclude is not None and exclude in self._matrices:
            free += self._matrices[exclude].layout.n_crossbars
        return self.units_needed(n_vectors, dims) <= free

    def unit_ids_of(self, name: str) -> list[int]:
        """Substrate-neutral alias of :meth:`crossbar_ids_of`."""
        return self.crossbar_ids_of(name)

    def wear_report(self, top: int | None = None) -> dict:
        """Endurance wear summary of this array's physical units."""
        return self.endurance.wear_report(top=top)

    def capabilities(self):
        """The crossbar capability descriptor (cost-prediction hooks)."""
        from repro.substrate.crossbar import CrossbarCapabilities

        return CrossbarCapabilities(self.hardware)

    # ------------------------------------------------------------------
    # querying (online stage)
    # ------------------------------------------------------------------
    def query(
        self, name: str, vector: np.ndarray, input_bits: int | None = None
    ) -> PIMQueryResult:
        """Fire one wave: dot products of ``vector`` with every row of ``name``.

        Results are truncated to the accumulator width (the paper keeps
        the least-significant 64 bits; 32 for binary codes) and pushed to
        the buffer array; the caller is expected to drain the buffer.
        """
        record = self._record(name)
        vector = np.asarray(vector)
        if vector.ndim != 1:
            raise OperandError(
                f"query must be a vector of length {record.layout.dims}"
            )
        bits = input_bits if input_bits is not None else self.config.operand_bits
        values = self._values(record, vector[np.newaxis, :], bits)[0]
        timing = wave_timing(
            record.layout, self.config, self.hardware, input_bits=bits
        )
        if values.nbytes <= self.buffer.free_bytes:
            self.buffer.push(values)
            self.buffer.pop()  # the host drains synchronously in this model
        self.stats.waves += 1
        self.stats.pim_time_ns += timing.total_ns
        self.stats.results_produced += int(values.shape[0])
        state = self.stats.matrix_state(name)
        state.waves += 1
        state.pim_time_ns += timing.total_ns
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.wave", "pim_dispatch",
                matrix=name, queries=1, results=int(values.shape[0]),
                input_cycles=timing.input_cycles,
                gather_cycles=timing.gather_cycles,
                pipeline_cycles=timing.pipeline_cycles,
                crossbar_ns=timing.crossbar_ns,
                buffer_ns=timing.buffer_ns,
            ):
                tele.advance(timing.total_ns)
            self._record_wave_metrics(
                tele, waves=1, cycles=timing.input_cycles,
                results=int(values.shape[0]),
            )
        return PIMQueryResult(values=values, timing=timing)

    def query_many(
        self,
        name: str,
        vectors: np.ndarray,
        input_bits: int | None = None,
    ) -> PIMQueryResult:
        """Fire one wave per row of ``vectors`` (a batched :meth:`query`).

        Semantically identical to looping :meth:`query` — each row is
        its own wave, charged separately — but evaluated as a single
        matrix product, which keeps large sweeps (k-means iterations
        firing one wave per center) fast to simulate. Returns values of
        shape ``(n_queries, n_programmed_vectors)``.
        """
        record = self._record(name)
        vectors = np.atleast_2d(np.asarray(vectors))
        bits = input_bits if input_bits is not None else self.config.operand_bits
        values = self._values(record, vectors, bits)
        timing = wave_timing(
            record.layout, self.config, self.hardware, input_bits=bits
        )
        n_queries = vectors.shape[0]
        self.stats.waves += n_queries
        self.stats.pim_time_ns += timing.total_ns * n_queries
        self.stats.results_produced += int(values.size)
        state = self.stats.matrix_state(name)
        state.waves += n_queries
        state.pim_time_ns += timing.total_ns * n_queries
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.wave_train", "pim_dispatch",
                matrix=name, queries=n_queries, results=int(values.size),
                input_cycles=timing.input_cycles * n_queries,
                gather_cycles=timing.gather_cycles * n_queries,
                pipeline_cycles=timing.pipeline_cycles * n_queries,
                crossbar_ns=timing.crossbar_ns * n_queries,
                buffer_ns=timing.buffer_ns * n_queries,
            ):
                tele.advance(timing.total_ns * n_queries)
            self._record_wave_metrics(
                tele, waves=n_queries,
                cycles=timing.input_cycles * n_queries,
                results=int(values.size),
            )
        return PIMQueryResult(values=values, timing=timing)

    def query_batch(
        self,
        name: str,
        vectors: np.ndarray,
        input_bits: int | None = None,
    ) -> PIMBatchResult:
        """Fire one *batched* wave: all rows of ``vectors`` in one dispatch.

        Values are bit-identical to looping :meth:`query` (the analog
        pipeline is value-exact either way), and each row still counts as
        one logical wave in :attr:`stats`, but the timing model charges
        one pipeline setup plus per-query DAC/ADC increments instead of B
        full dispatches — see
        :func:`~repro.hardware.timing.batch_wave_timing`.
        """
        record = self._record(name)
        vectors = np.atleast_2d(np.asarray(vectors))
        bits = input_bits if input_bits is not None else self.config.operand_bits
        values = self._values(record, vectors, bits)
        n_queries = vectors.shape[0]
        timing = batch_wave_timing(
            record.layout, self.config, self.hardware, n_queries,
            input_bits=bits,
        )
        single = wave_timing(
            record.layout, self.config, self.hardware, input_bits=bits
        )
        self.buffer.pulse_rows(values)  # the host drains synchronously
        self.stats.waves += n_queries
        self.stats.batches += 1
        self.stats.batched_queries += n_queries
        saved_ns = n_queries * single.total_ns - timing.total_ns
        self.stats.pim_time_ns += timing.total_ns
        self.stats.batch_saved_ns += saved_ns
        self.stats.results_produced += int(values.size)
        state = self.stats.matrix_state(name)
        state.waves += n_queries
        state.batches += 1
        state.batched_queries += n_queries
        state.pim_time_ns += timing.total_ns
        tele = get_recorder()
        if tele.enabled:
            # begin/end pair instead of the contextmanager: this is the
            # serving hot path and the generator frame is measurable
            tele.begin_span(
                "pim.batch_wave", "pim_dispatch",
                matrix=name, queries=n_queries, results=int(values.size),
                saved_ns=saved_ns,
                setup_cycles=timing.setup_cycles,
                per_query_cycles=timing.per_query_cycles,
                crossbar_ns=timing.crossbar_ns,
                buffer_ns=timing.buffer_ns,
            )
            tele.advance(timing.total_ns)
            tele.end_span()
            self._record_wave_metrics(
                tele, waves=n_queries,
                cycles=timing.per_query_cycles * n_queries,
                results=int(values.size),
            )
            m = self._wave_instruments(tele, batch=True)
            m["batch_flushes"].add(1)
            m["batch_saved_ns"].add(max(saved_ns, 0.0))
            m["batch_size"].observe(n_queries)
        return PIMBatchResult(values=values, timing=timing)

    def _wave_instruments(self, tele, batch: bool = False) -> dict:
        """Per-array cache of the hot wave instruments.

        Invalidated when the active registry changes (a new telemetry
        session), so dispatch paths skip the registry lookup per wave.
        The batch instruments are only created when a batch path asks,
        preserving the instrument set of scalar-only runs.
        """
        m = tele.metrics
        if m is not getattr(self, "_metrics_src", None):
            self._metrics_src = m
            self._metrics_cache = {
                "waves": m.counter("pim.waves"),
                "bit_slice_passes": m.counter("pim.bit_slice_passes"),
                "adc_conversions": m.counter("pim.adc_conversions"),
                "results_produced": m.counter("pim.results_produced"),
            }
        cache = self._metrics_cache
        if batch and "batch_flushes" not in cache:
            cache["batch_flushes"] = m.counter("pim.batch_flushes")
            cache["batch_saved_ns"] = m.counter("pim.batch_saved_ns")
            cache["batch_size"] = m.histogram("pim.batch_size")
        return cache

    def _record_wave_metrics(
        self, tele, waves: int, cycles: int, results: int
    ) -> None:
        """Wave counters shared by the three dispatch styles.

        ``cycles`` are the DAC input cycles charged, i.e. the bit-slice
        passes through the analog array; every pass converts each
        result column once, so ADC conversions are ``results_per_wave x
        cycles_per_wave`` summed over the dispatch.
        """
        m = self._wave_instruments(tele)
        m["waves"].add(waves)
        m["bit_slice_passes"].add(cycles)
        if waves:
            m["adc_conversions"].add(results / waves * cycles)
        m["results_produced"].add(results)

    def _record(self, name: str) -> _ProgrammedMatrix:
        record = self._matrices.get(name)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        return record

    def _values(
        self, record: _ProgrammedMatrix, vectors: np.ndarray, bits: int
    ) -> np.ndarray:
        """Validated, truncated ``(B, n_vectors)`` accumulators of a wave.

        The one place the kernel is chosen: :meth:`_cell_values` in
        ``simulate_cells`` mode, otherwise the exact float64-BLAS wave
        of :class:`~repro.hardware.bitslice.ExactMatrix`. All are exact
        mod 2**64 before the accumulator truncation, so they agree bit
        for bit.
        """
        peak = bitslice.check_non_negative_integers(vectors, bits)
        if vectors.shape[1] != record.layout.dims:
            raise OperandError(
                f"queries must have length {record.layout.dims}"
            )
        if record.crossbars is not None:
            raw = self._cell_values(record, vectors, bits)
        else:
            raw = record.matrix.dot(vectors, peak)
        return bitslice.truncate_result(raw, self.config.accumulator_bits)

    def _prepare_cells(self, record: _ProgrammedMatrix) -> None:
        """Program-time kernel state: the fused kernel's slice cache."""
        record.sliced = self._decompose(record.matrix)

    def _decompose(self, matrix: bitslice.ExactMatrix) -> np.ndarray:
        """Operand bit-slice tensor of ``matrix`` for the fused kernel.

        Shape ``(n_vectors, dims, n_operand_slices)``; slice ``j`` holds
        bits ``[j*h, (j+1)*h)`` of each operand — exactly the cell
        contents :meth:`_program_cells` writes, reassembled whole-array.
        """
        return bitslice.slice_operands(
            matrix.to_int64(),
            self.config.operand_bits,
            self.config.crossbar.cell_bits,
        ).astype(np.int64)

    def _cell_values(
        self, record: _ProgrammedMatrix, vectors: np.ndarray, bits: int
    ) -> np.ndarray:
        """Cell-level values of a ``(B, dims)`` query block.

        The fused whole-array wave: one contraction, one shift-add.
        :class:`repro.oracle.LoopPIMArray` overrides this hook with the
        per-crossbar loop.

        The crossbar loop computes, per crossbar/input slice/operand
        slice, ``partials[j, k] = sum_r Q_k[r] * cell_j[r, v]`` and
        shift-adds ``partials[j, k] << (j*h + k*g)``. Mod-2**64 integer
        arithmetic is a commutative ring, and the DAC slices recombine
        exactly (``sum_k Q_k * 2**(k*g) == q``), so the per-input-slice
        axis folds away algebraically: contracting the *unsliced* query
        against each cached operand-slice plane and shift-adding over
        operand slices alone is bit-identical to the loop — at a
        fraction of the multiplies. The property suite pins the
        equivalence against :class:`repro.oracle.LoopPIMArray`.
        """
        sliced = record.sliced
        if sliced is None:  # dropped by a reprogram/remap — rebuild
            sliced = record.sliced = self._decompose(record.matrix)
        queries = np.atleast_2d(vectors).astype(np.int64)  # (B, dims)
        # contract the shared dims axis: -> (B, n_vectors, n_op)
        planes = np.tensordot(queries, sliced, axes=([1], [1]))
        # operand-slice shift-add; the input-slice axis is a singleton
        # because the DAC slices were recombined before the contraction
        partials = planes.transpose(2, 0, 1)[:, np.newaxis]
        return bitslice.shift_add_partials(
            partials,
            self.config.crossbar.cell_bits,
            self.config.crossbar.dac_bits,
        )

    # ------------------------------------------------------------------
    def total_pim_time_ns(self) -> float:
        """Cumulative simulated PIM time (waves only)."""
        return self.stats.pim_time_ns

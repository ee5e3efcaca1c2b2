"""Wave devices: program matrices once, fire exact dot-product waves.

The paper's PIM module has one shape on any memory technology (Section
III): datasets (or several distinct matrices — e.g. a code matrix and
its complement for Hamming distance) are programmed once at the offline
stage; at the online stage a *wave* evaluates one query vector against
every programmed vector of a matrix concurrently and deposits the
results in the buffer array. :class:`Substrate` is that shape, shared
by every backend: matrix bookkeeping, wave dispatch, buffer drain,
stats, telemetry and the spare-pool remap. A backend supplies only
placement, its timing model and its kernel.

:class:`PIMArray` is the paper's ReRAM crossbar backend. The bit-sliced
analog pipeline (DAC input slices, ADC, shift-and-add) is value-exact,
so every wave computes the integer matrix-vector product exactly on
float64 BLAS (:class:`~repro.hardware.bitslice.ExactMatrix`: the matrix
is held once, as float64, with its exact row sums; rows whose dot
products could pass ``2**53`` are recomputed with the int64 matmul),
while the cycle-accurate wave latency is still charged.

:class:`repro.oracle.LoopPIMArray` is the cell-level oracle it is
checked against, bit for bit, on small geometries: it programs real
:class:`~repro.hardware.crossbar.Crossbar` objects and merges their
partial results per crossbar and per slice. Both share the analytical
timing model (latency is computed from the layout, not from the
execution style), so simulated times are identical by construction;
the fusion golden tests pin them anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import CapacityError, OperandError, ProgrammingError
from repro.hardware import bitslice
from repro.hardware.buffer import BufferArray
from repro.hardware.config import HardwareConfig, pim_platform
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.mapper import (
    DatasetLayout,
    plan_layout,
    reserve_spares,
    total_crossbars,
)
from repro.hardware.timing import (
    BatchWaveTiming,
    batch_wave_timing,
    programming_time_ns,
)
from repro.telemetry import get_recorder


@dataclass(frozen=True)
class PIMQueryResult:
    """Values plus timing of one dispatch.

    ``timing`` prices one wave of the dispatch: the whole batch of a
    :meth:`Substrate.query_batch`, one query's wave otherwise.
    """

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
    """Cumulative activity counters of a :class:`Substrate`.

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
                merged.per_matrix[key] = replace(state)
        return merged


class ProgrammedMatrix:
    """Internal record of one programmed matrix.

    ``matrix`` is the single resident copy of the operands, held for the
    exact BLAS waves; ``unit_ids`` are the physical units backing it.
    """

    def __init__(
        self, matrix: bitslice.ExactMatrix, layout, unit_ids: list[int]
    ) -> None:
        self.matrix = matrix
        self.layout = layout
        self.unit_ids = unit_ids


class Substrate:
    """Base of every memory-side compute device.

    Owns the decisions every backend shares: the ``program_matrix``
    checks and booking, wave dispatch (validation, buffer drain,
    :class:`PIMStats` and per-matrix booking, telemetry spans and wave
    metrics) and the spare-pool remap. The three dispatch styles —
    :meth:`query`, :meth:`query_many`, :meth:`query_batch` — are thin
    wrappers of one body, :meth:`_dispatch`: a single wave is a batch
    of one. Conventions the exactness and repair invariants lean on:

    * arithmetic is exact integer dot products truncated to
      ``config.accumulator_bits``, so answers are independent of the
      backend;
    * physical units (crossbars, banks, ...) are integers named by
      :meth:`unit_ids_of`; spares take the first ids, and
      :meth:`remap_crossbar` answers with the backend's own units;
    * backend-specific counters live in ``stats.extra``.

    A backend sets ``unit_name``, ``backend`` (the ``stats.backend``
    tag) and ``_span_attrs`` (extra attributes of every span), and
    implements the hooks below: placement (:meth:`_place`,
    :meth:`_release`, :meth:`_move_to_spare`), timing
    (:meth:`_program_ns`, :meth:`_batch_timing`)
    and capacity (:meth:`units_needed`, :meth:`fits_matrix`). The
    kernel hook :meth:`_raw_values` is what the loop oracles in
    :mod:`repro.oracle` override.

    A :class:`~repro.faults.injectors.FaultyPIMArray` attaches itself
    as ``_faults``. The dispatch body then asks it twice: before the
    wave (a dead device raises) and between the kernel and the booking
    (stuck cells and corruption act on the values, stragglers stretch
    the timing). Stats, spans and the returned timing all carry the
    stretched wave.
    """

    unit_name = "unit"
    backend = "abstract"
    _span_attrs: dict = {}
    #: the attached fault injector, or None on a healthy device
    _faults = None
    #: ``pim.*`` counters every wave updates, in creation order
    _wave_counters: tuple[str, ...] = ("waves", "results_produced")

    def __init__(
        self, hardware: HardwareConfig, config, endurance: float,
        spare_units: int,
    ) -> None:
        self.hardware = hardware
        self.config = config
        self.buffer = BufferArray(hardware.memory)
        self.endurance = EnduranceTracker(endurance)
        self.stats = PIMStats(backend=self.backend)
        self._matrices: dict[str, ProgrammedMatrix] = {}
        self.spare_units = int(spare_units)
        # spares take the first physical ids so data/spare sets are
        # disjoint and deterministic across runs
        self._spare_ids: list[int] = list(range(self.spare_units))
        self.remap_table: dict[int, int] = {}
        self._retired_ids: set[int] = set()

    # ------------------------------------------------------------------
    # programming (offline stage)
    # ------------------------------------------------------------------
    def program_matrix(self, name: str, matrix: np.ndarray):
        """Program a named ``(n_vectors, dims)`` integer matrix.

        ``matrix`` holds non-negative integers below
        ``2**operand_bits``. Returns the backend's placement layout,
        also recorded in :attr:`stats`.
        """
        if name in self._matrices:
            raise ProgrammingError(
                f"matrix {name!r} already programmed; reset it first"
            )
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2:
            raise OperandError("expected a 2-D (vectors x dims) matrix")
        bitslice.check_non_negative_integers(matrix, self.config.operand_bits)
        record = self._place(name, matrix)
        layout = record.layout
        self._matrices[name] = record
        self.stats.crossbars_used += layout.n_crossbars
        self.stats.matrices[name] = layout
        program_ns = self._program_ns(layout)
        self.stats.programming_time_ns += program_ns
        tele = get_recorder()
        if tele.enabled:
            n_vectors, dims = matrix.shape
            with tele.span(
                "pim.program", "pim_program",
                matrix=name, vectors=n_vectors, dims=dims,
                crossbars=layout.n_crossbars, **self._span_attrs,
            ):
                tele.advance(program_ns)
            tele.metrics.counter("pim.programmed_crossbars").add(
                layout.n_crossbars
            )
            tele.metrics.gauge("pim.crossbars_used").set(
                self.stats.crossbars_used
            )
        return layout

    def reset_matrix(self, name: str) -> None:
        """Erase a programmed matrix, freeing its units.

        Re-programming afterwards wears the device: the endurance tracker
        keeps counting against the same units. The matrix's per-matrix
        batch state is dropped too, so a successor matrix reusing the
        name starts its accounting from zero (aggregating shard stats
        would otherwise double count stale generations).
        """
        record = self._matrices.pop(name, None)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        self.stats.crossbars_used -= record.layout.n_crossbars
        del self.stats.matrices[name]
        self.stats.per_matrix.pop(name, None)
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("pim.matrix_resets").add(1)
            tele.metrics.gauge("pim.crossbars_used").set(
                self.stats.crossbars_used
            )
        self._release(record)

    def layouts(self) -> dict:
        """Layouts of all programmed matrices."""
        return {name: rec.layout for name, rec in self._matrices.items()}

    def matrix_of(self, name: str) -> np.ndarray:
        """The int64 matrix currently programmed under ``name``.

        Converted from the resident float64 copy on each call, for
        diagnostics and fault injectors; mutating the returned array is
        undefined behaviour.
        """
        return self._record(name).matrix.to_int64()

    def unit_ids_of(self, name: str) -> list[int]:
        """Physical unit ids currently backing matrix ``name``."""
        return list(self._record(name).unit_ids)

    def _record(self, name: str) -> ProgrammedMatrix:
        record = self._matrices.get(name)
        if record is None:
            raise ProgrammingError(f"no matrix named {name!r}")
        return record

    # ------------------------------------------------------------------
    # spare pool + remap table (repair layer)
    # ------------------------------------------------------------------
    @property
    def spares_remaining(self) -> int:
        """Spare units still available for remapping."""
        return len(self._spare_ids)

    def remap_crossbar(self, old_id: int) -> tuple[int, float]:
        """Remap one flagged unit onto the least-worn spare.

        Every matrix resident on ``old_id`` moves onto the spare (values
        are unchanged — the logical matrix is simply reprogrammed there),
        the spare is charged one endurance write plus the backend's
        reprogramming latency, and ``old_id`` is retired permanently: it
        never backs data again. Wear ties go to the lowest spare id.

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
        owners = [
            (name, rec)
            for name, rec in self._matrices.items()
            if old_id in rec.unit_ids
        ]
        if not owners:
            raise ProgrammingError(
                f"{self.unit_name} {old_id} backs no programmed matrix"
            )
        if not self._spare_ids:
            raise CapacityError(
                f"spare pool exhausted remapping {self.unit_name} {old_id}"
            )
        spare = min(
            self._spare_ids,
            key=lambda u: (self.endurance.write_count(u), u),
        )
        self._spare_ids.remove(spare)
        self.endurance.record_write(spare)
        for _, rec in owners:
            rec.unit_ids[rec.unit_ids.index(old_id)] = spare
        reprogram_ns = self._move_to_spare(owners, old_id, spare)
        self.remap_table[old_id] = spare
        self._retired_ids.add(old_id)
        self.stats.programming_time_ns += reprogram_ns
        self.stats.remaps += 1
        tele = get_recorder()
        if tele.enabled:
            with tele.span(
                "pim.remap", "pim_program",
                matrix=owners[0][0], old_crossbar=old_id, spare=spare,
                **self._span_attrs,
            ):
                tele.advance(reprogram_ns)
            tele.metrics.counter("pim.remaps").add(1)
            tele.metrics.gauge("pim.spares_remaining").set(
                len(self._spare_ids)
            )
        return spare, reprogram_ns

    def remap_crossbars(self, old_ids: list[int]) -> tuple[list[int], float]:
        """Remap several units; returns the spares and total latency."""
        spares: list[int] = []
        total_ns = 0.0
        for old_id in old_ids:
            spare, ns = self.remap_crossbar(old_id)
            spares.append(spare)
            total_ns += ns
        return spares, total_ns

    def wear_report(self, top: int | None = None) -> dict:
        """Endurance wear summary of this device's physical units."""
        return self.endurance.wear_report(top=top)

    # ------------------------------------------------------------------
    # querying (online stage)
    # ------------------------------------------------------------------
    def query(
        self, name: str, vector: np.ndarray, input_bits: int | None = None
    ) -> PIMQueryResult:
        """Fire one wave: dot products of ``vector`` with every row of ``name``.

        Results are truncated to the accumulator width (the paper keeps
        the least-significant 64 bits; 32 for binary codes) and pass
        through the buffer array, which the host drains synchronously.
        """
        vector = np.asarray(vector)
        if vector.ndim != 1:
            dims = self._record(name).layout.dims
            raise OperandError(f"query must be a vector of length {dims}")
        values, timing = self._dispatch(
            name, vector[np.newaxis, :], input_bits, "pim.wave", False
        )
        return PIMQueryResult(values=values[0], timing=timing)

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
        shape ``(n_queries, n_programmed_vectors)`` and the timing of
        each single wave.
        """
        values, timing = self._dispatch(
            name, np.atleast_2d(np.asarray(vectors)), input_bits,
            "pim.wave_train", False,
        )
        return PIMQueryResult(values=values, timing=timing)

    def query_batch(
        self,
        name: str,
        vectors: np.ndarray,
        input_bits: int | None = None,
    ) -> PIMQueryResult:
        """Fire one *batched* wave: all rows of ``vectors`` in one dispatch.

        Values are bit-identical to looping :meth:`query`, and each row
        still counts as one logical wave in :attr:`stats`, but the
        backend's timing amortizes the per-wave setup (pipeline fill on
        crossbars, row activation on banks) across the batch;
        ``batch_saved_ns`` records the difference.
        """
        values, timing = self._dispatch(
            name, np.atleast_2d(np.asarray(vectors)), input_bits,
            "pim.batch_wave", True,
        )
        return PIMQueryResult(values=values, timing=timing)

    def total_pim_time_ns(self) -> float:
        """Cumulative simulated PIM time (waves only)."""
        return self.stats.pim_time_ns

    def _dispatch(
        self, name: str, vectors: np.ndarray, input_bits: int | None,
        span: str, batch: bool,
    ):
        """The one wave path: ``(values, timing)`` of ``(B, dims)`` queries.

        With ``batch`` the B queries share one wave of ``n_queries=B``
        (one setup; ``batch_saved_ns`` and the batch counters are
        booked); without it each row is a wave of its own, so the device
        books B waves of ``n_queries=1`` and returns that timing.
        """
        faults = self._faults
        if faults is not None:
            faults.before_wave()
        record = self._record(name)
        layout = record.layout
        bits = input_bits if input_bits is not None else self.config.operand_bits
        values = self._values(record, vectors, bits)
        n = vectors.shape[0]
        waves, per_wave = (1, n) if batch else (n, 1)
        timing = self._batch_timing(layout, per_wave, bits)
        if batch:
            # the saving batching makes on this device, whatever stretches it
            single_ns = self._batch_timing(layout, 1, bits).total_ns
            saved_ns = n * single_ns - timing.total_ns
        if faults is not None:
            values, timing = faults.after_wave(name, vectors, values, timing)
        self.buffer.pulse_rows(values)  # the host drains synchronously
        results = int(values.size)
        pim_ns = timing.total_ns * waves
        stats = self.stats
        for booked in (stats, stats.matrix_state(name)):
            booked.waves += n
            booked.pim_time_ns += pim_ns
            if batch:
                booked.batches += 1
                booked.batched_queries += n
        stats.results_produced += results
        if batch:
            stats.batch_saved_ns += saved_ns
        self._charge_extra(layout, per_wave, waves)
        if faults is not None:
            faults.booked(pim_ns)
        tele = get_recorder()
        if tele.enabled:
            # begin/end pair instead of the contextmanager: this is the
            # serving hot path and the generator frame is measurable
            tele.begin_span(
                span, "pim_dispatch",
                matrix=name, queries=n, results=results,
                **({"saved_ns": saved_ns} if batch else {}),
                setup_cycles=timing.setup_cycles * waves,
                per_query_cycles=timing.per_query_cycles,
                crossbar_ns=timing.crossbar_ns * waves,
                buffer_ns=timing.buffer_ns * waves,
                **self._span_attrs,
            )
            tele.advance(pim_ns)
            tele.end_span()
            self._record_wave_metrics(
                tele, waves=n, cycles=timing.per_query_cycles * n,
                results=results,
            )
            if batch:
                m = self._wave_instruments(tele, batch=True)
                m["batch_flushes"].add(1)
                m["batch_saved_ns"].add(max(saved_ns, 0.0))
                m["batch_size"].observe(n)
        return values, timing

    def _wave_instruments(self, tele, batch: bool = False) -> dict:
        """Per-device cache of the hot wave instruments.

        Invalidated when the active registry changes (a new telemetry
        session), so dispatch paths skip the registry lookup per wave.
        The batch instruments are only created when a batch path asks,
        preserving the instrument set of scalar-only runs.
        """
        m = tele.metrics
        if m is not getattr(self, "_metrics_src", None):
            self._metrics_src = m
            self._metrics_cache = {
                key: m.counter("pim." + key) for key in self._wave_counters
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
        """Wave counters of one dispatch."""
        m = self._wave_instruments(tele)
        m["waves"].add(waves)
        m["results_produced"].add(results)

    def _values(
        self, record: ProgrammedMatrix, vectors: np.ndarray, bits: int
    ) -> np.ndarray:
        """Validated, truncated ``(B, n_vectors)`` accumulators of a wave.

        Every kernel (:meth:`_raw_values`) is exact mod 2**64 before the
        accumulator truncation, so all agree bit for bit.
        """
        peak = bitslice.check_non_negative_integers(vectors, bits)
        if vectors.shape[1] != record.layout.dims:
            raise OperandError(
                f"queries must have length {record.layout.dims}"
            )
        raw = self._raw_values(record, vectors, bits, peak)
        return bitslice.truncate_result(raw, self.config.accumulator_bits)

    def _raw_values(
        self, record: ProgrammedMatrix, vectors: np.ndarray, bits: int,
        peak: int,
    ) -> np.ndarray:
        """Untruncated ``(B, n_vectors)`` accumulators of a wave.

        The exact float64-BLAS wave of
        :class:`~repro.hardware.bitslice.ExactMatrix` (the int64 matmul
        for rows whose dot products could pass ``2**53``).
        """
        return record.matrix.dot(vectors, peak)

    # ------------------------------------------------------------------
    # backend hooks
    # ------------------------------------------------------------------
    def _place(self, name: str, matrix: np.ndarray) -> ProgrammedMatrix:
        """Lay out a validated matrix on physical units and write it.

        Raises :class:`CapacityError` when it does not fit.
        """
        raise NotImplementedError

    def _release(self, record: ProgrammedMatrix) -> None:
        """Free the units of a matrix that was just reset."""
        raise NotImplementedError

    def _move_to_spare(self, owners: list, old_id: int, spare: int) -> float:
        """Move the residents of ``old_id`` onto ``spare``; returns ns.

        ``owners`` are the ``(name, record)`` pairs, whose ``unit_ids``
        already name the spare.
        """
        raise NotImplementedError

    def _program_ns(self, layout) -> float:
        raise NotImplementedError

    def _batch_timing(self, layout, n_queries: int, bits: int):
        """Timing of one wave of ``n_queries`` queries (a single wave is 1)."""
        raise NotImplementedError

    def _charge_extra(self, layout, n_queries: int, waves: int) -> None:
        """Backend-specific ``stats.extra`` counters of ``waves`` waves of
        ``n_queries`` queries each."""

    def units_needed(self, n_vectors: int, dims: int) -> int:
        """Physical units a fresh ``(n_vectors, dims)`` matrix occupies."""
        raise NotImplementedError

    def fits_matrix(
        self, n_vectors: int, dims: int, exclude: str | None = None
    ) -> bool:
        """Would a ``(n_vectors, dims)`` matrix fit alongside current data?

        ``exclude`` names a programmed matrix whose units are treated as
        free — the grow-in-place check used by chunk re-replication.
        """
        raise NotImplementedError

    def capabilities(self):
        """The backend's planner-facing capability descriptor."""
        raise NotImplementedError


class PIMArray(Substrate):
    """The PIM array of one ReRAM memory module.

    Parameters
    ----------
    hardware:
        Platform description; must contain a PIM array. Defaults to the
        paper's Table 5 platform.
    spare_crossbars:
        Crossbars withheld from data placement as a repair pool. A
        stuck/dead crossbar can be remapped onto the least-worn spare
        (see :meth:`remap_crossbar`); the capacity available to
        :meth:`program_matrix` shrinks by the reservation.
    """

    unit_name = "crossbar"
    backend = "crossbar"
    _wave_counters = (
        "waves", "bit_slice_passes", "adc_conversions", "results_produced",
    )

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        spare_crossbars: int = 0,
    ) -> None:
        hardware = hardware if hardware is not None else pim_platform()
        if hardware.pim is None:
            raise ProgrammingError("hardware platform has no PIM array")
        super().__init__(
            hardware, hardware.pim, hardware.pim.crossbar.endurance,
            spare_crossbars,
        )
        self.data_capacity = reserve_spares(self.config, self.spare_units)
        self._next_crossbar_id = self.spare_units
        self._free_crossbar_ids: list[int] = []

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, name: str, matrix: np.ndarray) -> ProgrammedMatrix:
        n_vectors, dims = matrix.shape
        layout = plan_layout(n_vectors, dims, self.config)
        used = self.stats.crossbars_used + layout.n_crossbars
        if used > self.data_capacity:
            detail = (
                f" ({self.spare_units} reserved as spares)"
                if self.spare_units
                else ""
            )
            raise CapacityError(
                f"programming {name!r} would use {used} crossbars, "
                f"array has {self.data_capacity}{detail}"
            )
        # charge endurance at layout granularity (one write per
        # crossbar), reusing freed physical crossbars so repeated
        # re-programming accumulates wear on the same cells
        crossbar_ids = []
        for _ in range(layout.n_crossbars):
            if self._free_crossbar_ids:
                unit = self._free_crossbar_ids.pop()
            else:
                unit = self._next_crossbar_id
                self._next_crossbar_id += 1
            self.endurance.record_write(unit)
            crossbar_ids.append(unit)
        return ProgrammedMatrix(
            bitslice.ExactMatrix(matrix), layout, crossbar_ids
        )

    def _release(self, record: ProgrammedMatrix) -> None:
        self._free_crossbar_ids.extend(record.unit_ids)

    def _move_to_spare(self, owners: list, old_id: int, spare: int) -> float:
        """Reprogram the owning matrix's crossbar onto the spare."""
        from repro.hardware.reprogramming import crossbar_reprogram_ns

        return sum(
            crossbar_reprogram_ns(record.layout, self.config)
            for _, record in owners
        )

    def units_needed(self, n_vectors: int, dims: int) -> int:
        return total_crossbars(n_vectors, dims, self.config)

    def fits_matrix(
        self, n_vectors: int, dims: int, exclude: str | None = None
    ) -> bool:
        free = self.data_capacity - self.stats.crossbars_used
        if exclude is not None and exclude in self._matrices:
            free += self._matrices[exclude].layout.n_crossbars
        return self.units_needed(n_vectors, dims) <= free

    def capabilities(self):
        from repro.substrate.crossbar import CrossbarCapabilities

        return CrossbarCapabilities(self.hardware)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def _program_ns(self, layout: DatasetLayout) -> float:
        return programming_time_ns(layout, self.config)

    def _batch_timing(
        self, layout: DatasetLayout, n_queries: int, bits: int
    ) -> BatchWaveTiming:
        return batch_wave_timing(
            layout, self.config, self.hardware, n_queries, input_bits=bits
        )

    def _record_wave_metrics(
        self, tele, waves: int, cycles: int, results: int
    ) -> None:
        """Adds the analog counters to the shared wave counters.

        ``cycles`` are the DAC input cycles charged, i.e. the bit-slice
        passes through the analog array; every pass converts each
        result column once, so ADC conversions are ``results_per_wave x
        cycles_per_wave`` summed over the dispatch.
        """
        super()._record_wave_metrics(tele, waves, cycles, results)
        m = self._metrics_cache
        m["bit_slice_passes"].add(cycles)
        if waves:
            m["adc_conversions"].add(results / waves * cycles)

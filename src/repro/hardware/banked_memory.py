"""Bank-level structural + timing model behind the HBM-PIM substrate.

Commercial HBM-PIM (Samsung FIMDRAM / Aquabolt-XL, the organisation
captured in SNIPPETS.md) puts a small digital MAC unit next to every
DRAM bank: operands stream out of the open row one ``burst_bytes`` burst
per column access, a general register file (GRF) holds the broadcast
query and the running accumulators, and MAC/MAD/MOV/FILL commands execute
in *all-bank lockstep* — every bank performs the same command on its own
resident data. This module models exactly that:

* :func:`plan_bank_layout` — block-distributes an ``n x dims`` integer
  matrix over the available banks (bank ``j`` holds vectors
  ``[j*vpb, (j+1)*vpb)``), maximising MAC parallelism;
* :func:`bank_batch_timing` — per-command DRAM timing of a wave of
  ``n_queries`` queries (a single wave is ``n_queries=1``): MAC bursts
  paced by ``tCCD``, row switches paying ``tRP + tRCD``, the query
  broadcast as ``MOV`` bursts, and a GRF-pressure term (a query longer
  than ``grf_entries`` bursts is streamed in segments, re-activating
  each vector's rows once per segment);
* :func:`bank_program_ns` — programming writes all banks in parallel at
  burst granularity (DRAM writes, no SET/RESET cost — far cheaper than
  crossbar programming);

Arithmetic is digital and exact, so the fast path (the exact float64-BLAS
wave of :class:`~repro.hardware.bitslice.ExactMatrix`) and the
instruction-stream oracle (:func:`repro.oracle.bank_dot_loop`, which
executes the generated MOV/FILL/MAC/result stream bank by bank, burst by
burst, with GRF semantics) are bit-identical; only the cost model
differs from the crossbar substrate. The timing results reuse the
crossbar model's :class:`~repro.hardware.timing.BatchWaveTiming`
container (field mapping documented on :func:`bank_batch_timing`), so
every downstream consumer — telemetry spans, fault latency inflation,
serving accounting — works unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.config import HardwareConfig, HBMPIMConfig
from repro.hardware.timing import BatchWaveTiming


@dataclass(frozen=True)
class BankLayout:
    """Concrete placement of an ``n_vectors x dims`` matrix on the banks.

    Exposes the attribute names the repair layer reads off crossbar
    layouts (``vectors_per_crossbar``, ``n_data_crossbars``, ...) so the
    vector → physical-unit mapping logic works verbatim on banks: the
    distribution is block-major with a stack depth of 1 and no gather
    tree.
    """

    n_vectors: int
    dims: int
    operand_bits: int
    vectors_per_bank: int
    n_data_banks: int
    bursts_per_vector: int
    grf_segments: int
    rows_touched_per_bank: int

    # -- crossbar-layout compatible aliases (repair + stats consumers) --
    @property
    def vectors_per_crossbar(self) -> int:
        """Alias: vectors per physical unit (bank)."""
        return self.vectors_per_bank

    @property
    def n_data_crossbars(self) -> int:
        """Alias: physical units holding data."""
        return self.n_data_banks

    @property
    def n_gather_crossbars(self) -> int:
        """Banks accumulate locally; there is no gather tree."""
        return 0

    @property
    def gather_levels(self) -> int:
        return 1

    @property
    def n_crossbars(self) -> int:
        """Alias: total physical units occupied."""
        return self.n_data_banks

    @property
    def storage_bits(self) -> int:
        """Payload bits programmed (padding bursts excluded)."""
        return self.n_vectors * self.dims * self.operand_bits



def plan_bank_layout(
    n_vectors: int,
    dims: int,
    config: HBMPIMConfig,
    data_banks: int | None = None,
    operand_bits: int | None = None,
) -> BankLayout:
    """Block-distribute a matrix over the stack's MAC banks.

    Vectors spread over ``min(data_banks, n_vectors)`` banks to maximise
    lockstep parallelism; each bank stores its vectors padded to whole
    bursts, row-major.

    Raises
    ------
    CapacityError
        If the busiest bank's share exceeds the bank capacity.
    """
    if n_vectors <= 0 or dims <= 0:
        raise ConfigurationError("matrix shape must be positive")
    bits = operand_bits if operand_bits is not None else config.operand_bits
    banks = data_banks if data_banks is not None else config.total_banks
    if banks <= 0:
        raise CapacityError("no data banks available (all reserved?)")
    be = config.burst_elems(bits)
    bursts_per_vector = math.ceil(dims / be)
    vector_bytes = bursts_per_vector * config.burst_bytes
    n_data_banks = min(banks, n_vectors)
    vectors_per_bank = math.ceil(n_vectors / n_data_banks)
    if vectors_per_bank * vector_bytes > config.bank_bytes:
        raise CapacityError(
            f"matrix {n_vectors}x{dims} needs "
            f"{vectors_per_bank * vector_bytes} bytes in the busiest bank, "
            f"bank holds {config.bank_bytes}; add banks or shard the data"
        )
    grf_segments = max(1, math.ceil(bursts_per_vector / config.grf_entries))
    rows_touched = max(
        1, math.ceil(vectors_per_bank * vector_bytes / config.row_bytes)
    )
    return BankLayout(
        n_vectors=n_vectors,
        dims=dims,
        operand_bits=bits,
        vectors_per_bank=vectors_per_bank,
        n_data_banks=n_data_banks,
        bursts_per_vector=bursts_per_vector,
        grf_segments=grf_segments,
        rows_touched_per_bank=rows_touched,
    )


def bank_instruction_counts(layout: BankLayout, n_queries: int = 1) -> dict:
    """Command mix of ``n_queries`` waves (busiest-bank perspective).

    The counts feed the backend-specific ``PIMStats.extra`` counters and
    the energy model; they are exactly the commands
    :func:`repro.oracle.bank_dot_loop` executes. Row activations are
    charged once per wave (rows stay open between the queries of one
    wave), matching :func:`bank_batch_timing`.
    """
    vpb = layout.vectors_per_bank
    return {
        "mac_commands": n_queries * vpb * layout.bursts_per_vector,
        "mov_commands": n_queries
        * (layout.bursts_per_vector + vpb),  # query broadcast + result drain
        "fill_commands": n_queries * vpb,  # accumulator clears
        "row_activations": layout.rows_touched_per_bank * layout.grf_segments,
    }


def bank_batch_timing(
    layout: BankLayout,
    config: HBMPIMConfig,
    hardware: HardwareConfig,
    n_queries: int,
) -> BatchWaveTiming:
    """Per-command DRAM timing of one all-bank wave of ``n_queries``.

    Field mapping onto the shared :class:`BatchWaveTiming` container:

    * ``setup_cycles`` — row activate/precharge cycles, charged once per
      wave (rows stay open between queries of one dispatch; the
      GRF-segment multiplier still applies, a long query re-opens rows
      per segment);
    * ``per_query_cycles`` — query-broadcast MOVs plus the busiest
      bank's MAC/FILL/result-MOV stream;
    * ``crossbar_ns`` — all command cycles times ``tCK`` (the name is
      historical; here it is DRAM command time);
    * ``buffer_ns`` — accumulator drain over the internal bus, per query.
    """
    if n_queries < 1:
        raise ConfigurationError("a batch needs at least one query")
    vpb = layout.vectors_per_bank
    activate_cycles = (
        layout.rows_touched_per_bank
        * layout.grf_segments
        * (config.trp_cycles + config.trcd_cycles)
    )
    broadcast_cycles = layout.bursts_per_vector * config.mov_cycles
    mac_cycles = vpb * layout.bursts_per_vector * config.tccd_cycles
    drain_cycles = vpb * (config.fill_cycles + config.mov_cycles)
    per_query = broadcast_cycles + mac_cycles + drain_cycles
    cycles = activate_cycles + n_queries * per_query
    result_bytes = layout.n_vectors * config.accumulator_bits / 8.0
    buffer_ns = n_queries * result_bytes / hardware.memory.internal_bus_gbs
    return BatchWaveTiming(
        n_queries=n_queries,
        setup_cycles=activate_cycles,
        per_query_cycles=per_query,
        crossbar_ns=cycles * config.tck_ns,
        buffer_ns=buffer_ns,
    )


def bank_program_ns(layout: BankLayout, config: HBMPIMConfig) -> float:
    """Offline time to program a layout onto the banks.

    Every bank is written in parallel through its own IO; the busiest
    bank pays one activate/precharge per touched row plus one write
    burst per stored burst. Plain DRAM writes — no SET/RESET latency —
    which is what makes re-programming this substrate cheap relative to
    the ReRAM crossbars.
    """
    bursts = layout.vectors_per_bank * layout.bursts_per_vector
    cycles = (
        layout.rows_touched_per_bank * (config.trp_cycles + config.trcd_cycles)
        + bursts * config.write_burst_cycles
    )
    return cycles * config.tck_ns

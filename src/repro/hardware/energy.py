"""Energy model for both platforms (NVSim also reports energy).

The motivation chain of the paper rests on data movement being two
orders of magnitude more expensive than arithmetic (its citation [21]
puts the overhead at ~200x). This module prices both platforms:

* **host side** — energy per retired flop, per cache-line moved from
  DRAM/ReRAM, per branch;
* **PIM side** — per-wave energy from the analog pipeline: DAC drives,
  cell reads, ADC conversions (the dominant term in published ReRAM
  accelerators such as ISAAC), shift-and-add, plus buffer writes;
* **programming** — ReRAM SET/RESET energy per written bit (Table 1).

Defaults follow published figures (ISAAC's ~2 pJ/8-bit ADC conversion,
DDR4's ~20 pJ/byte, ReRAM's 1e-13 J/bit writes) and are all overridable
for sensitivity sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.counters import PerfCounters
from repro.hardware import bitslice
from repro.hardware.config import PIMArrayConfig
from repro.hardware.mapper import DatasetLayout


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy prices (Joules)."""

    cpu_flop_j: float = 6.0e-12  # ~6 pJ per double-precision op
    dram_byte_j: float = 2.0e-11  # ~20 pJ/byte off-chip access
    reram_read_byte_j: float = 1.5e-11  # slightly cheaper reads
    branch_j: float = 1.0e-11
    adc_conversion_j: float = 2.0e-12  # ISAAC-class 8-bit ADC
    dac_drive_j: float = 1.0e-13  # per row per input wave
    cell_read_j: float = 1.0e-15  # per cell per cycle (analog MAC)
    shift_add_j: float = 5.0e-14  # per partial combined
    buffer_byte_j: float = 1.0e-12  # eDRAM buffer write+read
    reram_write_bit_j: float = 1.0e-13  # Table 1
    # HBM-PIM (bank-level digital MAC) prices
    row_activation_j: float = 1.0e-9  # one DRAM row activate+precharge
    bank_mac_j: float = 4.0e-13  # one burst-wide MAC command per bank
    burst_read_j: float = 3.0e-12  # one 32 B burst out of the open row
    dram_write_bit_j: float = 1.0e-14  # Table 1 (DRAM)

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def cpu_energy_j(
        self, counters: PerfCounters, reram_memory: bool = False
    ) -> float:
        """Host energy of one run's recorded events."""
        total = counters.total()
        byte_price = (
            self.reram_read_byte_j if reram_memory else self.dram_byte_j
        )
        return (
            total.flops * self.cpu_flop_j
            + total.bytes_from_memory * byte_price
            + total.branches * self.branch_j
        )

    # ------------------------------------------------------------------
    # PIM side
    # ------------------------------------------------------------------
    def wave_energy_j(
        self,
        layout: DatasetLayout,
        config: PIMArrayConfig,
        input_bits: int | None = None,
    ) -> float:
        """Energy of one dot-product wave over a programmed layout."""
        bits = input_bits if input_bits is not None else config.operand_bits
        input_cycles = bitslice.num_slices(bits, config.crossbar.dac_bits)
        rows = min(layout.dims, config.crossbar.rows)
        slices = bitslice.num_slices(
            config.operand_bits, config.crossbar.cell_bits
        )
        columns_active = layout.n_vectors * slices
        dac_j = input_cycles * rows * layout.n_data_crossbars * self.dac_drive_j
        cells_j = (
            input_cycles
            * rows
            * columns_active
            * self.cell_read_j
        )
        adc_j = input_cycles * columns_active * self.adc_conversion_j
        sa_j = columns_active * input_cycles * self.shift_add_j
        buffer_j = (
            layout.n_vectors * config.accumulator_bits / 8.0
        ) * self.buffer_byte_j
        return dac_j + cells_j + adc_j + sa_j + buffer_j

    def programming_energy_j(self, layout: DatasetLayout) -> float:
        """ReRAM write energy to program a layout's payload."""
        return layout.storage_bits * self.reram_write_bit_j

    def pim_energy_j(
        self,
        layout: DatasetLayout,
        config: PIMArrayConfig,
        n_waves: int,
        input_bits: int | None = None,
    ) -> float:
        """Energy of ``n_waves`` waves against one programmed layout."""
        return n_waves * self.wave_energy_j(layout, config, input_bits)

    # ------------------------------------------------------------------
    # HBM-PIM side (bank-level digital MACs; no DAC/ADC terms)
    # ------------------------------------------------------------------
    def hbm_wave_energy_j(self, layout, n_queries: int = 1) -> float:
        """Energy of one batched wave on the banked substrate.

        ``layout`` is a :class:`~repro.hardware.banked_memory.BankLayout`;
        the command mix comes from
        :func:`~repro.hardware.banked_memory.bank_instruction_counts`, so
        the energy is priced on exactly the instructions the
        instruction-stream oracle (:func:`repro.oracle.bank_dot_loop`)
        runs: row activates (shared across the batch), one burst read +
        one MAC per streamed burst per bank, and the accumulator drain
        through the buffer.
        """
        from repro.hardware.banked_memory import bank_instruction_counts

        counts = bank_instruction_counts(layout, n_queries)
        banks = layout.n_data_banks
        activates_j = counts["row_activations"] * banks * self.row_activation_j
        mac_j = counts["mac_commands"] * banks * self.bank_mac_j
        reads_j = counts["mac_commands"] * banks * self.burst_read_j
        drain_j = (
            n_queries
            * layout.n_vectors
            * 8.0  # int64 accumulators
            * self.buffer_byte_j
        )
        return activates_j + mac_j + reads_j + drain_j

    def hbm_programming_energy_j(self, layout) -> float:
        """DRAM write energy to program a banked layout's payload."""
        return layout.storage_bits * self.dram_write_bit_j


def movement_to_compute_ratio(model: EnergyModel) -> float:
    """Energy of one DRAM cache-line fetch vs one flop.

    The paper's motivation (its citation [21]) puts data movement at
    ~200x the cost of floating-point computation; with the default
    prices this model gives 64 B * 20 pJ/B / 6 pJ = ~213x.
    """
    return 64.0 * model.dram_byte_j / model.cpu_flop_j

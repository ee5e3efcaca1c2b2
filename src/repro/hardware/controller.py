"""Controller: the instruction interface between software and the module.

The controller (paper Fig. 4b) coordinates the dataflow between the
memory array, the PIM array and the buffer array. In this simulator it is
the convenience facade the mining layer uses:

* :meth:`PIMController.program` — offline stage: store the pre-computed
  scalar terms in the memory array (charging ReRAM write time) and
  program the integer matrix onto the crossbars;
* :meth:`PIMController.dot_products` — online stage: fire a wave and
  return the per-vector dot products together with the simulated time the
  wave and buffer drain took.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.config import HardwareConfig, pim_platform
from repro.hardware.memory import MemoryArray
from repro.hardware.pim_array import PIMQueryResult, Substrate


@dataclass(frozen=True)
class ProgramReceipt:
    """Offline-stage accounting for one programmed dataset."""

    name: str
    crossbars: int
    crossbar_write_ns: float
    memory_write_ns: float

    @property
    def total_ns(self) -> float:
        """End-to-end pre-processing (write) time."""
        return self.crossbar_write_ns + self.memory_write_ns


class PIMController:
    """Facade coordinating memory array, compute substrate and buffer.

    ``substrate`` selects the memory-side compute backend by registry
    name (``"crossbar"``, the paper's array and the default;
    ``"hbm_pim"``, ...), built through
    :func:`repro.substrate.create_substrate`. Side data is staged in the
    device class the backend's capability descriptor declares (ReRAM
    for crossbars, DRAM for HBM-PIM). A ``noise`` model swaps in a
    :class:`~repro.hardware.noise.NoisyPIMArray`, crossbar only. The
    cell-level crossbar oracle, :class:`repro.oracle.LoopPIMArray`, is
    not a setting: a test assigns one to :attr:`pim` before programming.

    ``dot_products``, ``dot_products_many`` and ``dot_products_batch``
    stay defined in this class body: pimbench's tracer wraps them by name
    (``vars(PIMController)[name]``) to count hardware waves.
    """

    def __init__(
        self,
        hardware: HardwareConfig | None = None,
        noise=None,
        spare_crossbars: int = 0,
        substrate: str = "crossbar",
    ) -> None:
        from repro.substrate import create_substrate, substrate_capabilities

        self.hardware = hardware if hardware is not None else pim_platform()
        self.substrate = substrate
        if noise is not None:
            if substrate != "crossbar":
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    "analog noise models apply to the crossbar substrate "
                    f"only, not {substrate!r}"
                )
            from repro.hardware.noise import NoisyPIMArray

            self.pim: Substrate = NoisyPIMArray(self.hardware, noise)
        else:
            self.pim = create_substrate(
                substrate,
                hardware=self.hardware,
                spare_units=spare_crossbars,
            )
        memory_device = substrate_capabilities(
            substrate, self.hardware
        ).memory_device
        self.noise = noise
        self.memory = MemoryArray(self.hardware.memory, device=memory_device)
        self._receipts: dict[str, ProgramReceipt] = {}

    def program(
        self,
        name: str,
        matrix: np.ndarray,
        side_data_bytes: float = 0.0,
    ) -> ProgramReceipt:
        """Offline stage: program ``matrix`` and store side data.

        Parameters
        ----------
        name:
            Matrix handle for later queries.
        matrix:
            Non-negative integer ``(n_vectors, dims)`` array.
        side_data_bytes:
            Pre-computed scalar terms (e.g. ``Phi(p)`` values) written to
            the memory array alongside the crossbar programming.
        """
        before = self.pim.stats.programming_time_ns
        layout = self.pim.program_matrix(name, matrix)
        crossbar_ns = self.pim.stats.programming_time_ns - before
        payload_bytes = layout.storage_bits / 8.0 + side_data_bytes
        memory_ns = self.memory.write_time_ns(payload_bytes)
        receipt = ProgramReceipt(
            name=name,
            crossbars=layout.n_crossbars,
            crossbar_write_ns=crossbar_ns,
            memory_write_ns=memory_ns,
        )
        self._receipts[name] = receipt
        return receipt

    def dot_products(
        self, name: str, query: np.ndarray, input_bits: int | None = None
    ) -> PIMQueryResult:
        """Online stage: one wave of ``query`` against matrix ``name``."""
        return self.pim.query(name, query, input_bits=input_bits)

    def dot_products_many(
        self, name: str, queries: np.ndarray, input_bits: int | None = None
    ) -> PIMQueryResult:
        """One wave per row of ``queries`` (batched dot_products)."""
        return self.pim.query_many(name, queries, input_bits=input_bits)

    def dot_products_batch(
        self, name: str, queries: np.ndarray, input_bits: int | None = None
    ) -> PIMQueryResult:
        """One *batched* wave covering every row of ``queries``.

        Values match :meth:`dot_products_many` bit for bit; the timing
        model charges one pipeline setup plus per-query increments.
        """
        return self.pim.query_batch(name, queries, input_bits=input_bits)

    def receipt(self, name: str) -> ProgramReceipt:
        """Pre-processing accounting recorded by :meth:`program`."""
        return self._receipts[name]

    def total_preprocessing_ns(self) -> float:
        """Sum of all programming receipts."""
        return sum(r.total_ns for r in self._receipts.values())

"""ReRAM processing-in-memory substrate (functional + timing simulator).

The public surface re-exported here is what the mining layer and the
benchmarks use; submodules hold the detail:

* :mod:`repro.hardware.config` — platform descriptions (paper Table 5);
* :mod:`repro.hardware.crossbar` — bit-exact single-crossbar model;
* :mod:`repro.hardware.pim_array` — array-level programming and waves;
* :mod:`repro.hardware.mapper` — Theorem 4 crossbar-cost equations;
* :mod:`repro.hardware.controller` — offline/online orchestration;
* :mod:`repro.hardware.quartz` / :mod:`repro.hardware.timing` — the
  Quartz-style CPU model and the NVSim-style wave latency model.
"""

from repro.hardware.banked_memory import BankLayout, plan_bank_layout
from repro.hardware.config import (
    CPUConfig,
    CrossbarConfig,
    DOMAIN_LEVELS,
    FailureDomainTopology,
    HardwareConfig,
    HBMPIMConfig,
    MemoryConfig,
    NVM_CHARACTERISTICS,
    PIMArrayConfig,
    baseline_platform,
    hbm_pim_platform,
    pim_platform,
)
from repro.hardware.controller import PIMController, ProgramReceipt
from repro.hardware.energy import EnergyModel, movement_to_compute_ratio
from repro.hardware.crossbar import Crossbar, WaveResult
from repro.hardware.endurance import EnduranceTracker
from repro.hardware.isa import (
    Instruction,
    InstructionTrace,
    TracingPIMController,
)
from repro.hardware.mapper import (
    DatasetLayout,
    data_crossbars,
    fits,
    gather_crossbars,
    max_dimensionality,
    plan_layout,
    total_crossbars,
)
from repro.hardware.noise import (
    NoiseModel,
    NoisyPIMArray,
    compensate_dot_lower,
    compensate_dot_upper,
)
from repro.hardware.pim_array import (
    MatrixBatchState,
    PIMArray,
    PIMQueryResult,
    PIMStats,
)
from repro.hardware.timing import BatchWaveTiming
from repro.hardware.reprogramming import (
    ChunkedDotProductEngine,
    ReprogrammingStats,
)

__all__ = [
    "BankLayout",
    "BatchWaveTiming",
    "CPUConfig",
    "ChunkedDotProductEngine",
    "Crossbar",
    "CrossbarConfig",
    "DOMAIN_LEVELS",
    "DatasetLayout",
    "EnduranceTracker",
    "EnergyModel",
    "FailureDomainTopology",
    "HBMPIMConfig",
    "HardwareConfig",
    "Instruction",
    "InstructionTrace",
    "MatrixBatchState",
    "MemoryConfig",
    "NVM_CHARACTERISTICS",
    "NoiseModel",
    "NoisyPIMArray",
    "PIMArray",
    "PIMArrayConfig",
    "PIMController",
    "PIMQueryResult",
    "PIMStats",
    "ProgramReceipt",
    "ReprogrammingStats",
    "TracingPIMController",
    "WaveResult",
    "baseline_platform",
    "compensate_dot_lower",
    "compensate_dot_upper",
    "data_crossbars",
    "fits",
    "gather_crossbars",
    "hbm_pim_platform",
    "max_dimensionality",
    "movement_to_compute_ratio",
    "pim_platform",
    "plan_bank_layout",
    "plan_layout",
    "total_crossbars",
]

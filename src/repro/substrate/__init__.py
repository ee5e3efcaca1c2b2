"""Pluggable PIM substrates.

The mining and serving layers talk to memory-side compute through the
:class:`Substrate` base class — program integer matrices, fire
dot-product waves, account simulated time/energy/wear — rather than to
one concrete device. The base (defined beside
:class:`~repro.hardware.pim_array.PIMStats`) owns dispatch, booking and
the spare-pool remap; each backend adds placement, timing and its
kernel. Two backends ship registered:

* ``"crossbar"`` — the paper's analog ReRAM crossbar array
  (:class:`~repro.hardware.pim_array.PIMArray`), bit-sliced DAC/ADC
  waves, expensive SET/RESET programming, flat per-wave latency;
* ``"hbm_pim"`` — a commercial-style HBM-PIM stack
  (:class:`~repro.substrate.hbm_pim.HBMPIMArray`), one digital MAC per
  DRAM bank fed by burst reads under per-command DRAM timing, cheap
  programming, latency that scales with resident vectors per bank.

Both compute exact integer dot products (mod ``2**accumulator_bits``),
so every mining task is bit-identical across backends and any mixed
placement — only the cost model differs, which is what the
:class:`~repro.substrate.router.CostRouter` exploits.
"""

from repro.hardware.pim_array import Substrate
from repro.substrate.protocol import SubstrateCapabilities
from repro.substrate.registry import (
    SubstrateSpec,
    available_substrates,
    create_substrate,
    register_substrate,
    substrate_capabilities,
)
from repro.substrate.router import CostRouter, RoutingDecision

__all__ = [
    "Substrate",
    "SubstrateCapabilities",
    "SubstrateSpec",
    "available_substrates",
    "create_substrate",
    "register_substrate",
    "substrate_capabilities",
    "CostRouter",
    "RoutingDecision",
]

"""Deterministic fault injection for the simulated PIM stack.

The paper's pitch is *exactness on unreliable analog hardware*; this
package exercises the other half of unreliability — hardware that fails
mid-run. It provides:

* :class:`FaultPlan` / :class:`FaultEvent` — a seedable schedule of
  fault events on the simulated clock (stuck cell regions, transient
  wave corruption, latency spikes, crossbar death, shard crash/hang/
  slowdown);
* injectors for the existing simulators —
  :class:`FaultyCrossbar` (cell-level stuck-at on the standalone
  crossbar model), :class:`FaultyPIMArray` (array-level
  faults as a hook every wave of a device consults, so the device
  books every slowdown of its target itself; composable with
  :class:`~repro.hardware.noise.NoisyPIMArray` and the
  :class:`~repro.hardware.endurance.EnduranceTracker`), and
  :class:`FaultyShardEngine` (shard-level crash/hang/drop verdicts and
  link delay the serving layer consults per dispatch);
* residue/checksum integrity helpers (:mod:`repro.faults.integrity`)
  that flag corrupted waves without trusting analog values — one extra
  non-negative integer column per crossbar, paper-consistent;
* gray failures (:data:`GRAY_FAULT_KINDS`) — sustained and intermittent
  slowdowns, correlated bank-group stragglers, flaky host<->shard links
  that delay or drop dispatches — all *bit-exactness-preserving* (a
  slow answer is still the right answer), generated in one call by
  :meth:`FaultPlan.gray_chaos`;
* correlated outages — :meth:`FaultPlan.domain_outage` crashes every
  shard of whole failure domains simultaneously (plus staggered-recovery
  brownouts);
* :class:`Campaign` (:mod:`repro.faults.campaign`) — one seeded query
  trace served through a table of :class:`Scenario` s (fault plans)
  × :class:`Arm` s (fleet settings such as recovery policy or spread
  placement) at equal hardware, every answer checked bit-for-bit
  against a clean single-array oracle, each arm reduced to p99,
  availability, hedge and placement-risk stats; its ``restart`` leg
  checkpoints, crashes and restores a fleet mid-trace and checks the
  restored answers against the uninterrupted ones.

Every injected fault is deterministic (seeded from the plan) and
visible in telemetry (``fault.*`` spans and ``faults.*`` counters), so
recovered runs are reproducible and auditable. The recovery machinery
that consumes these faults lives in :mod:`repro.serving`.
"""

from repro.faults.integrity import (
    append_checksum_row,
    checksum_row,
    verify_wave_residues,
)
from repro.faults.injectors import (
    DEFAULT_CORRUPT_MAGNITUDE,
    FaultyCrossbar,
    FaultyPIMArray,
    FaultyShardEngine,
    ShardVerdict,
)
from repro.faults.campaign import (
    Arm,
    Campaign,
    Scenario,
    defense_arms,
    standard_campaign,
)
from repro.faults.plan import (
    ARRAY_FAULT_KINDS,
    FAULT_KINDS,
    GRAY_FAULT_KINDS,
    SHARD_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "ARRAY_FAULT_KINDS",
    "Arm",
    "Campaign",
    "DEFAULT_CORRUPT_MAGNITUDE",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultyCrossbar",
    "FaultyPIMArray",
    "FaultyShardEngine",
    "GRAY_FAULT_KINDS",
    "SHARD_FAULT_KINDS",
    "Scenario",
    "ShardVerdict",
    "append_checksum_row",
    "checksum_row",
    "defense_arms",
    "standard_campaign",
    "verify_wave_residues",
]

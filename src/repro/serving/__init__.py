"""Sharded multi-array query serving on the simulated PIM substrate.

The production-shaped layer the ROADMAP's north star asks for: a
:class:`ShardManager` placing one dataset across N independent PIM
arrays with exact, placement-invariant scatter/gather; a
:class:`QueryService` event loop with per-tenant admission control,
bounded queues (reject / drop-oldest / degrade-to-approximate
backpressure) and deadline-aware batched dispatch; a
:class:`WorkloadDriver` for open- and closed-loop traffic; and an
:class:`SLOTracker` reducing the run to p50/p95/p99 latency,
throughput, shed rate and per-shard utilization via
:mod:`repro.telemetry`. See DESIGN.md section 8 and
``examples/serving_tour.py``.

The layer also survives hardware faults: k-replica placement
(``replication=`` on :class:`ShardManager`), per-attempt timeouts
(:class:`~repro.serving.health.RecoveryPolicy`), bounded retries with
capped exponential backoff, replica failover and hedged re-dispatch, a
per-shard circuit breaker
(:class:`~repro.serving.health.ShardHealthTracker`), and — last resort
— host-side exact recompute of an unavailable chunk. Combined with the
fault injectors in :mod:`repro.faults`, a seeded chaos run stays
bit-identical to a fault-free one on every completed response. See
DESIGN.md section 9 and ``examples/faults_tour.py``.

Gray failures — shards that are *slow* rather than dead — get their own
defense: a :class:`LatencyOutlierDetector` (phi-accrual suspicion over
per-(shard, substrate) service times) drives outlier ejection with
probed re-admission in :class:`ShardHealthTracker`, adaptive p95-based
hedging under a global :class:`HedgeBudget`, and observed-latency-aware
replica routing. See DESIGN.md section 14 and
``examples/chaos_tour.py``.
"""

from repro.serving.driver import WorkloadDriver
from repro.serving.health import (
    HedgeBudget,
    LatencyOutlierDetector,
    RecoveryPolicy,
    ShardHealthTracker,
)
from repro.serving.service import (
    QueryService,
    Request,
    Response,
    TenantSpec,
)
from repro.serving.placement import ShardPlacement, plan_placement
from repro.serving.sharding import (
    AssignAnswer,
    GatherTiming,
    KNNAnswer,
    ShardManager,
)
from repro.serving.slo import SLOTracker

__all__ = [
    "AssignAnswer",
    "GatherTiming",
    "HedgeBudget",
    "KNNAnswer",
    "LatencyOutlierDetector",
    "QueryService",
    "RecoveryPolicy",
    "Request",
    "Response",
    "SLOTracker",
    "ShardHealthTracker",
    "ShardManager",
    "ShardPlacement",
    "TenantSpec",
    "WorkloadDriver",
    "plan_placement",
]

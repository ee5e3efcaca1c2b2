"""Host-speed probe: factors the shared host's slow periods out of timings.

Shared hosts drift in speed by 20-40% within minutes, far more than
any change worth detecting, and CPU time drifts with wall time: other
tenants slow the caches and memory system, not the scheduler's share.
So a fixed reference kernel that stresses the host the way the program
does (an int64 tensor contraction like the crossbar wave kernel, and a
Python loop of small NumPy calls, heaps and dicts like the bound
pipeline and top-k) runs between the segments of each measured phase.
A segment's *slowdown* is the mean time of the probes around it over
:data:`NOMINAL_S`, and its host times are reported divided by it, i.e.
at the host speed the nominal time was taken at. Raw times are recorded
beside them.

The kernel lives in the benchmark, not the program, so no change to
``src/`` can move it.
"""

from __future__ import annotations

import functools
import heapq
import time

import numpy as np

#: Time of one probe round on an unloaded 2-vCPU Xeon (Sapphire Rapids
#: class, KVM).
NOMINAL_S = 0.015

@functools.cache
def _operands() -> tuple:
    # built on first use, so importing this module costs no set-up time
    rng = np.random.default_rng(12345)
    planes = rng.integers(0, 4, size=(160, 420, 8), dtype=np.int64)
    queries = rng.integers(0, 256, size=(8, 420), dtype=np.int64)
    return planes, queries, rng.random((64, 420))


def probe_s(rounds: int) -> float:
    """Host seconds one round of the reference kernel takes now.

    Short rounds between short segments track the host's speed swings,
    which last seconds, better than long probes far apart.
    """
    planes, queries, rows = _operands()
    start = time.perf_counter()
    for _ in range(rounds):
        np.tensordot(queries, planes, axes=([1], [1]))
        for i in range(125):
            diff = rows - rows[i % 64]
            scores = np.einsum("ij,ij->i", diff, diff)
            heap: list = []
            for j in np.argsort(scores, kind="stable")[:16]:
                heapq.heappush(heap, (-float(scores[j]), -int(j)))
            {j: heap for j in range(32)}
    return (time.perf_counter() - start) / rounds

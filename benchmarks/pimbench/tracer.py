"""Host-time spans around the public entry points of each ``repro`` layer.

:class:`Tracer` wraps entry points from outside the program (no file
under ``src/`` knows it exists): :meth:`start` swaps every entry point
for a wrapper that records a ``perf_counter_ns`` span, :meth:`stop`
puts the originals back, so the untraced phase runs the program's own
code with nothing in between. Spans stay in memory as ``(id, layer,
start_ns, end_ns, parent_id, op)`` tuples and are written out once the
phase is over.

A layer's *self* time is its spans' duration minus the part covered by
child spans, so self times partition the covered wall time exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: Layers in report order, named after the modules they wrap.
LAYERS = (
    "hardware.wave",
    "hardware.program",
    "similarity.quantize",
    "similarity.segments",
    "serving.sharding.knn",
    "serving.sharding.assign",
    "serving.sharding.refine",
    "serving.service",
    "serving.health",
    "serving.slo",
    "substrate.router",
    "faults",
    "repair",
    "observability.burnrate",
    "core",
    "mining",
    "bounds",
    "cost",
)


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _public_methods(cls) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def _entry_points() -> list:
    """``(layer, owner, attribute, op_of, count_of)`` for every wrap.

    ``op_of(args)`` names the operation a span starts (the request or
    job the work belongs to); ``count_of(args)`` adds to the layer's
    exact work count.
    """
    from repro.bounds.base import Bound
    from repro.bounds.cascade import BoundCascade
    from repro.core.framework import PIMAccelerator
    from repro.cost.counters import PerfCounters
    from repro.faults.injectors import FaultyPIMArray, FaultyShardEngine
    from repro.hardware.controller import PIMController
    from repro.mining.kmeans.base import KMeansAlgorithm
    from repro.mining.knn.base import KNNAlgorithm
    from repro.observability.burnrate import BurnRateMonitor
    from repro.repair.controller import RepairController
    from repro.serving import sharding
    from repro.serving.health import ShardHealthTracker
    from repro.serving.service import QueryService
    from repro.serving.slo import SLOTracker
    from repro.similarity import segments
    from repro.similarity.quantization import Quantizer
    from repro.substrate.router import CostRouter

    def rows(args):
        return len(args[2])

    points = [
        ("hardware.wave", PIMController, "dot_products", None, lambda a: 1),
        ("hardware.wave", PIMController, "dot_products_many", None, rows),
        ("hardware.wave", PIMController, "dot_products_batch", None, rows),
        ("hardware.program", PIMController, "program", None, None),
        ("similarity.quantize", Quantizer, "quantize", None, None),
        ("similarity.segments", segments, "summarize", None, None),
        ("serving.sharding.knn", sharding.ShardManager, "knn_batch", None, None),
        ("serving.sharding.assign", sharding.ShardManager, "assign", None, None),
        ("serving.sharding.refine", sharding, "exact_sq_distances", None, None),
        (
            "serving.service", QueryService, "submit",
            lambda a: a[1].request_id, None,
        ),
        ("serving.service", QueryService, "drain", lambda a: "drain", None),
        ("substrate.router", CostRouter, "order", None, None),
        ("faults", FaultyShardEngine, "outcome", None, None),
        ("faults", FaultyPIMArray, "advance_to", None, None),
        ("repair", RepairController, "advance", None, None),
        ("repair", RepairController, "heal", None, None),
        ("observability.burnrate", BurnRateMonitor, "observe", None, None),
        (
            "core", PIMAccelerator, "accelerate_knn",
            lambda a: f"knn:{a[1]}", None,
        ),
        (
            "core", PIMAccelerator, "accelerate_kmeans",
            lambda a: f"kmeans:{a[1]}", None,
        ),
        ("cost", PerfCounters, "record", None, None),
    ]
    for layer, cls in (
        ("serving.health", ShardHealthTracker),
        ("serving.slo", SLOTracker),
    ):
        points += [(layer, cls, name, None, None) for name in _public_methods(cls)]
    for cls in _subclasses(KNNAlgorithm):
        points += [
            ("mining", cls, name, None, None)
            for name in ("query", "query_batch", "fit")
            if name in vars(cls)
        ]
    for cls in _subclasses(KMeansAlgorithm):
        if "fit" in vars(cls):
            points.append(("mining", cls, "fit", None, None))
    for cls in _subclasses(Bound) + [BoundCascade]:
        points += [
            ("bounds", cls, name, None, None)
            for name in ("evaluate", "prepare", "run")
            if name in vars(cls)
        ]
    return points


class Tracer:
    """In-memory span recorder over the layers' public entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.work = dict.fromkeys(LAYERS, 0)
        self.op = None
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, layer, fn, op_of, count_of):
        clock = time.perf_counter_ns
        stack, spans = self._stack, self.spans
        self_ns, calls, work = self.self_ns, self.calls, self.work

        def traced(*args, **kwargs):
            if op_of is not None:
                self.op = op_of(args)
            if count_of is not None:
                work[layer] += count_of(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            op = self.op
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_ns[layer] += took - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += took
                spans.append((sid, layer, start, end, parent, op))

        return traced

    def start(self) -> None:
        """Install every wrapper; spans from now on are recorded."""
        for layer, owner, name, op_of, count_of in _entry_points():
            original = vars(owner)[name]
            wrapped = self._wrap(layer, original, op_of, count_of)
            if isinstance(owner, type):
                self._restore.append((owner, name, original))
                setattr(owner, name, wrapped)
                continue
            # a module-level function: rebind it wherever it was imported
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original
                ):
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapped)

    def stop(self) -> None:
        """Put every original entry point back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for sid, layer, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

    def report(
        self, ops: int, measured_s: float, measured_norm_s: float,
        sim_digest: str,
    ) -> dict:
        """Per-layer totals of the traced phase."""
        return {
            "ops": ops,
            "measured_s": measured_s,
            "measured_norm_s": measured_norm_s,
            "sim_digest": sim_digest,
            "spans": len(self.spans),
            "layers": {
                layer: {
                    "calls": self.calls[layer],
                    "self_ns": self.self_ns[layer],
                    "work": self.work[layer],
                }
                for layer in LAYERS
            },
        }

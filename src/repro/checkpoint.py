"""Crash-consistent checkpoint/restore for a sharded PIM service.

A checkpoint is one ``.npz`` container holding everything needed to
rebuild a :class:`~repro.serving.sharding.ShardManager` bit-identically
after a full-process crash:

* the source dataset (float64) and the placement's row→chunk map;
* the fitted quantizer statistics (per-dimension min/range, alpha) —
  the *global* quantizer is what makes answers placement-invariant, so
  it must come back exactly, not be refitted;
* the quantized integer operands, kept as the integrity oracle: restore
  re-quantizes the dataset and refuses to serve unless the operands
  match byte for byte;
* the manager's construction parameters (replication, failure-domain
  topology, spread flag, substrates, routing policy, …);
* the mutable state a rebuilt constructor cannot recreate: the
  re-replication log (replayed verbatim so shard row layouts come back
  byte-identical), per-shard endurance write counters, the health
  tracker's breaker/quarantine/ejection state, and the recorded
  placement violations.

Write protocol (crash consistency)
----------------------------------
The container is written to ``<path>.tmp``, flushed and fsynced, then
atomically renamed over ``<path>`` with ``os.replace``. A crash at any
point leaves either the complete previous checkpoint or the complete
new one — never a torn file. Every array is covered by a SHA-256 digest
recorded in the manifest, and the manifest bytes are covered by their
own digest stored alongside, so silent truncation or bit-rot surfaces
as :class:`~repro.errors.CheckpointError` at restore time rather than
as wrong answers at serve time.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np

from repro.errors import CheckpointError
from repro.hardware.config import FailureDomainTopology

#: Bump when the container layout changes incompatibly.
CHECKPOINT_VERSION = 1

_REQUIRED_ARRAYS = ("manifest", "manifest_sha", "data", "assignments")


def _digest(arr: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}|{arr.shape}|".encode("utf-8"))
    h.update(arr.tobytes())
    return h.hexdigest()


def write_checkpoint(
    manager, path: str, *, t_ns: float | None = None
) -> dict:
    """Snapshot ``manager`` to ``path`` (atomic write-then-rename).

    ``t_ns`` stamps the simulated time of the snapshot (defaults to the
    manager's clock); it becomes the recovery point the DR bench checks
    against. Returns the manifest that was written.
    """
    t = float(manager._clock_ns if t_ns is None else t_ns)
    qstate = manager.quantizer.export_state()
    qv = manager.quantizer.quantize(manager.source_data)
    arrays: dict[str, np.ndarray] = {
        "data": np.ascontiguousarray(
            manager.source_data, dtype=np.float64
        ),
        "assignments": np.ascontiguousarray(
            manager.placement.assignments, dtype=np.int64
        ),
        "qint": np.ascontiguousarray(qv.integers, dtype=np.int64),
    }
    if qstate["fitted"]:
        arrays["qmin"] = qstate["min"]
        arrays["qrange"] = qstate["range"]
    endurance = []
    for shard in manager.shards:
        tracker = shard.endurance
        endurance.append(
            {str(k): int(v) for k, v in tracker.writes.items()}
            if tracker is not None
            else {}
        )
    manifest = {
        "version": CHECKPOINT_VERSION,
        "t_ns": t,
        "n_rows": manager.n_rows,
        "dims": manager.dims,
        "n_shards": manager.n_shards,
        "placement_kind": manager.placement.kind,
        "replication": manager.replication,
        "topology": (
            manager.topology.describe()
            if manager.topology is not None
            else None
        ),
        "spread": manager.spread,
        "substrates": list(manager.substrates),
        "route": manager.route,
        "spare_crossbars": manager.spare_crossbars,
        "verify": manager.verify,
        "quantizer": {
            "alpha": qstate["alpha"],
            "assume_normalized": qstate["assume_normalized"],
            "fitted": qstate["fitted"],
        },
        "replica_log": [[int(c), int(s)] for c, s in manager.replica_log],
        "placement_violations": [
            dict(v) for v in manager.placement_violations
        ],
        "endurance": endurance,
        "health": manager.health.export_state(),
        "hashes": {name: _digest(arr) for name, arr in arrays.items()},
    }
    manifest_bytes = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"),
        dtype=np.uint8,
    )
    manifest_sha = np.frombuffer(
        _digest(manifest_bytes).encode("ascii"), dtype=np.uint8
    )
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                manifest=manifest_bytes,
                manifest_sha=manifest_sha,
                **arrays,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    manager.last_checkpoint_ns = t
    return manifest


def _load_container(path: str) -> dict[str, np.ndarray]:
    try:
        # np.load leaks the file it opens when the zip container is
        # unreadable, so the file is opened (and closed) here
        with open(path, "rb") as fh, np.load(fh) as payload:
            names = set(payload.files)
            missing = [n for n in _REQUIRED_ARRAYS if n not in names]
            if missing:
                raise CheckpointError(
                    f"checkpoint {path} is missing arrays {missing}"
                )
            return {name: payload[name] for name in payload.files}
    except CheckpointError:
        raise
    except (
        OSError,
        ValueError,
        KeyError,
        io.UnsupportedOperation,
        zipfile.BadZipFile,
    ) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable or truncated: {exc}"
        ) from exc


def read_manifest(path: str) -> dict:
    """Load and integrity-check just the manifest of a checkpoint."""
    arrays = _load_container(path)
    return _verify_arrays(path, arrays)


def _verify_arrays(path: str, arrays: dict[str, np.ndarray]) -> dict:
    manifest_bytes = arrays["manifest"]
    recorded_sha = bytes(arrays["manifest_sha"]).decode("ascii")
    if _digest(manifest_bytes) != recorded_sha:
        raise CheckpointError(
            f"checkpoint {path}: manifest hash mismatch (corrupt or "
            "tampered manifest)"
        )
    try:
        manifest = json.loads(bytes(manifest_bytes).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path}: manifest is not valid JSON: {exc}"
        ) from exc
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: unsupported version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    hashes = manifest.get("hashes", {})
    for name, expected in hashes.items():
        if name not in arrays:
            raise CheckpointError(
                f"checkpoint {path}: manifest names array {name!r} "
                "but the container does not hold it"
            )
        actual = _digest(arrays[name])
        if actual != expected:
            raise CheckpointError(
                f"checkpoint {path}: array {name!r} hash mismatch "
                f"(expected {expected[:12]}…, got {actual[:12]}…)"
            )
    return manifest


def verify_checkpoint(path: str) -> dict:
    """Full integrity pass over a checkpoint without restoring it.

    Returns a report: version, simulated snapshot time, array names
    with byte sizes, and the verified hash count. Raises
    :class:`~repro.errors.CheckpointError` on any mismatch.
    """
    arrays = _load_container(path)
    manifest = _verify_arrays(path, arrays)
    return {
        "path": path,
        "version": manifest["version"],
        "t_ns": manifest["t_ns"],
        "n_rows": manifest["n_rows"],
        "n_shards": manifest["n_shards"],
        "arrays": {
            name: int(arr.nbytes) for name, arr in arrays.items()
        },
        "hashes_verified": len(manifest.get("hashes", {})),
    }


def restore_manager(
    path: str,
    *,
    hardware=None,
    fault_plan=None,
    recovery=None,
    restore_health: bool = True,
):
    """Rebuild a :class:`ShardManager` from a checkpoint, bit-identically.

    Runtime objects that cannot (or must not) be serialized are passed
    by the caller: ``hardware`` (platform config), ``fault_plan`` (a
    restored service usually starts under a *new* fault schedule, or
    none) and ``recovery`` (policy knobs). ``restore_health=False``
    starts with a clean health slate — e.g. when the outage that forced
    the restore also repaired the fleet.

    The restore path proves its own fidelity: after rebuilding the
    quantizer from the checkpointed statistics it re-quantizes the
    dataset and compares the operands against the checkpointed ones
    byte for byte, raising :class:`~repro.errors.CheckpointError` on
    any difference. The re-replication log is then replayed in order,
    so every shard's row layout (and therefore every wave) matches the
    pre-crash service exactly.
    """
    from repro.serving.placement import ShardPlacement
    from repro.serving.sharding import ShardManager
    from repro.similarity.quantization import Quantizer

    arrays = _load_container(path)
    manifest = _verify_arrays(path, arrays)
    qmeta = manifest["quantizer"]
    qstate = {
        "alpha": qmeta["alpha"],
        "assume_normalized": qmeta["assume_normalized"],
        "fitted": qmeta["fitted"],
    }
    if qmeta["fitted"]:
        qstate["min"] = arrays["qmin"]
        qstate["range"] = arrays["qrange"]
    quantizer = Quantizer.from_state(qstate)
    data = arrays["data"]
    if qmeta["fitted"] and "qint" in arrays:
        requantized = quantizer.quantize(data).integers
        if not np.array_equal(requantized, arrays["qint"]):
            raise CheckpointError(
                f"checkpoint {path}: re-quantized operands differ from "
                "the checkpointed ones — quantizer state and data are "
                "inconsistent"
            )
    placement = ShardPlacement(
        n_shards=int(manifest["n_shards"]),
        assignments=np.ascontiguousarray(
            arrays["assignments"], dtype=np.int64
        ),
        kind=manifest["placement_kind"],
    )
    topology = (
        FailureDomainTopology.from_dict(manifest["topology"])
        if manifest["topology"] is not None
        else None
    )
    manager = ShardManager(
        data,
        placement=placement,
        hardware=hardware,
        quantizer=quantizer,
        replication=int(manifest["replication"]),
        fault_plan=fault_plan,
        recovery=recovery,
        verify=bool(manifest["verify"]),
        spare_crossbars=int(manifest["spare_crossbars"]),
        substrates=list(manifest["substrates"]),
        route=manifest["route"],
        topology=topology,
        spread=bool(manifest["spread"]),
    )
    for chunk, target in manifest["replica_log"]:
        manager.add_replica(int(chunk), int(target))
    if manager.replica_log != [
        (int(c), int(s)) for c, s in manifest["replica_log"]
    ]:
        raise CheckpointError(
            f"checkpoint {path}: replica-log replay diverged from the "
            "recorded log"
        )
    # the replay may have re-recorded violations add_replica saw the
    # first time; the checkpointed list is the authoritative history
    manager.placement_violations = [
        dict(v) for v in manifest["placement_violations"]
    ]
    for shard, writes in zip(manager.shards, manifest["endurance"]):
        tracker = shard.endurance
        if tracker is not None:
            tracker.writes = {int(k): int(v) for k, v in writes.items()}
    if restore_health:
        manager.health.restore_state(manifest["health"])
    manager.last_checkpoint_ns = float(manifest["t_ns"])
    return manager

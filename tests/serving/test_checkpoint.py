"""Crash-consistent checkpoint/restore: the cold-start fidelity contract.

A restored manager must be indistinguishable from one that never
crashed: same answers bit for bit, same shard row layouts, same
endurance counters and breaker state. Anything less than byte-level
integrity must surface as :class:`CheckpointError` at restore time,
never as silently wrong answers at serve time.
"""

import json
import os

import numpy as np
import pytest

import repro.checkpoint as checkpoint_mod
from repro.checkpoint import (
    CHECKPOINT_VERSION,
    read_manifest,
    restore_manager,
    verify_checkpoint,
    write_checkpoint,
)
from repro.errors import CheckpointError
from repro.hardware import FailureDomainTopology
from repro.serving import ShardManager
from repro.similarity.quantization import Quantizer


def topo8():
    return FailureDomainTopology(
        n_shards=8,
        shards_per_board=2,
        boards_per_channel=2,
        channels_per_power_domain=1,
    )


def dataset(rows=64, dims=6, seed=0):
    return np.random.default_rng(seed).random((rows, dims))


def manager8(data=None):
    if data is None:
        data = dataset()
    return ShardManager(data, 8, replication=2, topology=topo8())


class TestRoundTrip:
    def test_restored_answers_are_bit_identical(self, tmp_path):
        data = dataset(80, 8)
        queries = np.random.default_rng(7).random((6, 8))
        m = ShardManager(data, 8, replication=2, topology=topo8())
        before, _ = m.knn_batch(queries, 9)
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path, t_ns=123.0)
        restored = restore_manager(path)
        after, _ = restored.knn_batch(queries, 9)
        for x, y in zip(before, after):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)
            assert not y.degraded

    def test_restored_layout_matches_shard_for_shard(self, tmp_path):
        m = manager8()
        m.add_replica(2)  # mutate past the constructor's layout
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        restored = restore_manager(path)
        assert restored.replica_log == m.replica_log
        assert restored.replicas == m.replicas
        for ours, theirs in zip(m.shards, restored.shards):
            assert theirs.chunk_slices == ours.chunk_slices
            assert theirs.n_rows == ours.n_rows

    def test_endurance_counters_survive_the_crash(self, tmp_path):
        m = manager8()
        trackers = [s.endurance for s in m.shards if s.endurance is not None]
        assert trackers, "fleet exposes no endurance trackers"
        key = next(iter(trackers[0].writes))
        trackers[0].writes[key] += 17
        expected = dict(trackers[0].writes)
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        restored = restore_manager(path)
        back = restored.shards[0].endurance
        assert back.writes == expected

    def test_health_state_survives_and_can_be_reset(self, tmp_path):
        m = manager8()
        m.health.record_failure(4, 0.0, permanent=True)
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        restored = restore_manager(path)
        assert not restored.health.alive(4)
        fresh = restore_manager(path, restore_health=False)
        assert fresh.health.alive(4)

    def test_recovery_point_is_the_snapshot_time(self, tmp_path):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path, t_ns=4.5e6)
        assert m.last_checkpoint_ns == 4.5e6
        restored = restore_manager(path)
        assert restored.last_checkpoint_ns == 4.5e6
        assert restored.spread_report()["last_checkpoint_ns"] == 4.5e6

    def test_placement_metadata_round_trips(self, tmp_path):
        # a single-board fleet cannot spread, so construction records
        # violations — history that must come back verbatim, not be
        # re-derived (replay would double-count them)
        single_board = FailureDomainTopology(
            n_shards=4, shards_per_board=4
        )
        m = ShardManager(
            dataset(32), 4, replication=2, topology=single_board
        )
        assert m.placement_violations
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        restored = restore_manager(path)
        assert restored.placement_violations == m.placement_violations
        assert restored.topology == m.topology


class TestIntegrity:
    def test_tampered_array_is_refused(self, tmp_path):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        tampered = np.array(arrays["data"])
        tampered[0, 0] += 0.5
        arrays["data"] = tampered
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            restore_manager(path)

    def test_truncated_container_is_refused(self, tmp_path):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            read_manifest(path)

    def test_missing_array_is_refused(self, tmp_path):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        del arrays["assignments"]
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="missing arrays"):
            restore_manager(path)

    def test_version_mismatch_is_refused(self, tmp_path, monkeypatch):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        monkeypatch.setattr(
            checkpoint_mod, "CHECKPOINT_VERSION", CHECKPOINT_VERSION + 1
        )
        write_checkpoint(m, path)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="unsupported version"):
            read_manifest(path)

    def test_inconsistent_quantizer_is_refused(self, tmp_path):
        # swap the dataset under an unchanged manifest hash set: the
        # re-quantize oracle (not just the hashes) must catch it, so
        # rewrite the stored hashes to match the forged data
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        forged = np.array(arrays["data"])
        forged[:] = forged[::-1]
        arrays["data"] = forged
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        manifest["hashes"]["data"] = checkpoint_mod._digest(forged)
        mb = np.frombuffer(
            json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8
        )
        arrays["manifest"] = mb
        arrays["manifest_sha"] = np.frombuffer(
            checkpoint_mod._digest(mb).encode("ascii"), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="re-quantized"):
            restore_manager(path)

    def test_verify_checkpoint_reports_without_restoring(self, tmp_path):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path, t_ns=99.0)
        report = verify_checkpoint(path)
        assert report["version"] == CHECKPOINT_VERSION
        assert report["t_ns"] == 99.0
        assert report["n_shards"] == 8
        assert report["hashes_verified"] >= 3
        assert set(report["arrays"]) >= {"data", "assignments", "qint"}


class TestWriteProtocol:
    def test_no_tmp_file_survives_a_write(self, tmp_path):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_failed_write_leaves_the_old_checkpoint_intact(
        self, tmp_path, monkeypatch
    ):
        m = manager8()
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path, t_ns=1.0)
        golden = verify_checkpoint(path)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_mod.np, "savez_compressed", boom)
        with pytest.raises(OSError):
            write_checkpoint(m, path, t_ns=2.0)
        monkeypatch.undo()
        assert not os.path.exists(path + ".tmp")
        assert verify_checkpoint(path) == golden  # old snapshot intact
        assert read_manifest(path)["t_ns"] == 1.0

    def test_unfitted_quantizer_round_trips(self, tmp_path):
        # assume_normalized quantizers carry no per-dimension stats;
        # the container must simply omit them and restore cleanly
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        data = np.random.default_rng(1).choice(grid, size=(40, 4))
        m = ShardManager(
            data, 4, quantizer=Quantizer(assume_normalized=True)
        )
        q = np.random.default_rng(2).choice(grid, size=(3, 4))
        before, _ = m.knn_batch(q, 5)
        path = str(tmp_path / "ck.npz")
        write_checkpoint(m, path)
        restored = restore_manager(path)
        after, _ = restored.knn_batch(q, 5)
        for x, y in zip(before, after):
            assert np.array_equal(x.indices, y.indices)
            assert np.array_equal(x.scores, y.scores)


class TestCompatibility:
    """Checkpoints written before the manifest lost its ``reference`` key."""

    #: written by the previous release: 80x8 dataset (``dataset(80, 8,
    #: seed=11)``), 8 shards, replication 2, ``topo8()``, one
    #: ``add_replica(2)``; its manifest carries ``"reference": false``
    FIXTURE = os.path.join(
        os.path.dirname(__file__), "data", "v1-parent.ckpt.npz"
    )

    def test_old_manifest_restores_to_the_same_answers(self):
        old = read_manifest(self.FIXTURE)
        assert old["version"] == CHECKPOINT_VERSION
        assert old["reference"] is False
        restored = restore_manager(self.FIXTURE)
        fresh = ShardManager(
            dataset(80, 8, seed=11), 8, replication=2, topology=topo8()
        )
        fresh.add_replica(2)
        assert np.array_equal(restored.source_data, fresh.source_data)
        queries = np.random.default_rng(12).random((6, 8))
        for ks in (1, 9, 80):
            got, _ = restored.knn_batch(queries, ks)
            want, _ = fresh.knn_batch(queries, ks)
            for x, y in zip(got, want):
                assert np.array_equal(x.indices, y.indices)
                assert np.array_equal(x.scores, y.scores)
                assert (x.refined, x.pruned) == (y.refined, y.pruned)

    def test_new_manifests_carry_no_reference_key(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        manifest = write_checkpoint(manager8(), path)
        assert "reference" not in manifest
        assert "reference" not in read_manifest(path)
        assert manifest["version"] == CHECKPOINT_VERSION == 1

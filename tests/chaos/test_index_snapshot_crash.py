"""Index archives inside snapshots crash under the shim like any file.

``save_index_npz`` historically wrote straight to disk with
``np.savez`` — the one snapshot payload the fault shim could not see,
documented as a blind spot in :mod:`repro.storage.faults`.  It now
accepts ``fs=`` and ``write_snapshot`` routes staged index archives
through :meth:`FilesystemShim.write_bytes`, so these tests can (a)
prove the op actually appears in the shim stream, (b) crash at every
syscall of an index-bearing snapshot and require recovery to never
serve a torn index, and (c) surface injected ``ENOSPC`` as a regular
``OSError`` the caller can handle.
"""

import errno

import numpy as np
import pytest

from repro.core import (
    GroupingConfig,
    build_instance,
    build_simple_groups,
    instance_index,
)
from repro.core.persistence import load_index_npz, save_index_npz
from repro.core.weights import LBSWeights, SingleCoverage
from repro.storage import (
    CrashFS,
    DurableRepositoryStore,
    FaultPlan,
    SimulatedCrash,
)
from repro.storage.snapshot import (
    SnapshotArtifact,
    current_snapshot_path,
    load_snapshot,
)

from .harness import base_repository


def _artifact(repo):
    groups = build_simple_groups(repo, GroupingConfig())
    instance = build_instance(
        repo,
        budget=3,
        groups=groups,
        weight_scheme=LBSWeights(),
        coverage_scheme=SingleCoverage(),
    )
    index = instance_index(instance)
    assert index.vectorizable
    return SnapshotArtifact(
        config={"name": "default"}, groups=groups, index=index
    )


def _same_index(a, b) -> bool:
    return (
        tuple(a.users) == tuple(b.users)
        and a.group_keys == b.group_keys
        and np.array_equal(a.u_indptr, b.u_indptr)
        and np.array_equal(a.u_indices, b.u_indices)
        and np.array_equal(a.g_indptr, b.g_indptr)
        and np.array_equal(a.g_indices, b.g_indices)
        and np.array_equal(a.cov, b.cov)
        and np.array_equal(a.wei, b.wei)
        and np.array_equal(a.initial_gains, b.initial_gains)
    )


class TestShimRouting:
    def test_index_write_appears_in_op_stream(self, tmp_path):
        repo = base_repository()
        fs = CrashFS(FaultPlan())
        store = DurableRepositoryStore(tmp_path, fsync=True, fs=fs)
        store.initialize(repo)
        store.set_artifacts({"default": _artifact(repo)})
        store.snapshot()
        store.close()
        index_writes = [
            op for op in fs.ops if "write_bytes" in op and "index-" in op
        ]
        assert index_writes, (
            "the staged index archive never went through the shim: "
            f"{fs.ops}"
        )

    def test_shimmed_write_roundtrips(self, tmp_path):
        repo = base_repository()
        artifact = _artifact(repo)
        path = tmp_path / "index.npz"
        save_index_npz(artifact.index, path, fs=CrashFS(FaultPlan()))
        loaded = load_index_npz(path)
        loaded.validate()
        assert _same_index(loaded, artifact.index)

    def test_injected_enospc_surfaces_as_oserror(self, tmp_path):
        repo = base_repository()
        artifact = _artifact(repo)
        path = tmp_path / "index.npz"
        fs = CrashFS(FaultPlan(errno_at=0, errno_code=errno.ENOSPC))
        with pytest.raises(OSError) as excinfo:
            save_index_npz(artifact.index, path, fs=fs)
        assert excinfo.value.errno == errno.ENOSPC
        # The torn partial file must not pass verification.
        if path.exists() and path.stat().st_size:
            with pytest.raises(Exception):
                load_index_npz(path)


class TestIndexSnapshotCrashSweep:
    def test_crash_at_every_op_of_an_index_bearing_snapshot(
        self, tmp_path_factory
    ):
        """Power loss anywhere inside the snapshot step must leave a
        bootable store whose visible snapshot — old or new — loads
        cleanly; when the new one is visible its index must be intact
        and byte-equal to what was staged."""
        repo = base_repository()
        artifact = _artifact(repo)

        # Fault-free probe: op index range of the snapshot step.
        probe = tmp_path_factory.mktemp("probe")
        fs = CrashFS(FaultPlan())
        store = DurableRepositoryStore(probe, fsync=True, fs=fs)
        store.initialize(repo)
        store.set_artifacts({"default": artifact})
        start = fs.op_count
        store.snapshot()
        snapshot_ops = range(start, fs.op_count)
        store.close()
        assert any(
            "index-" in fs.ops[i] for i in snapshot_ops
        ), "probe run never staged the index archive"

        for crash_at in snapshot_ops:
            work = tmp_path_factory.mktemp(f"crash{crash_at:03d}")
            crash_fs = CrashFS(FaultPlan(crash_at=crash_at))
            store = DurableRepositoryStore(work, fsync=True, fs=crash_fs)
            try:
                store.initialize(repo)
                store.set_artifacts({"default": artifact})
                with pytest.raises(SimulatedCrash):
                    store.snapshot()
            finally:
                store.release_after_fork()
            crash_fs.lose_volatile()

            current = current_snapshot_path(work)
            assert current is not None, (
                f"crash at op {crash_at} left no usable snapshot"
            )
            state = load_snapshot(current)  # must never raise on a torn file
            recovered = state.artifacts.get("default")
            if recovered is not None and recovered.index is not None:
                recovered.index.validate()
                assert _same_index(recovered.index, artifact.index), (
                    f"crash at op {crash_at}: served index differs from "
                    f"the staged one"
                )
            # The store itself must boot on the surviving image.
            booted = DurableRepositoryStore(work, fsync=False)
            assert sorted(booted.repository.user_ids) == sorted(
                repo.user_ids
            )
            booted.close()

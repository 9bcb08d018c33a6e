"""A cloned image inherits its source's snapshot: differential tests.

``ImageStorage.copy(..., clone=True)`` records the clone's inodes and
journal floor, and the clone's first ``ImageStorage.snapshot`` starts
from the source's snapshot re-anchored onto those inodes
(:func:`repro.cas.diff.rebase_snapshot`) instead of walking the whole
clone.  The contract is the walker's usual one: the result equals a
fresh full walk and the reference pack — mapping, ``snapshot_digest``
and the next serialized diff — whatever happened to the source before
the clone, to the clone after it, or to the source after it (which must
fall back to the full walk), with or without a mount under the source.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cas.diff import (
    snapshot_and_diff,
    snapshot_digest,
    snapshot_of_archive,
    snapshot_tree,
)
from repro.archive import TarArchive
from repro.core.images import ImageStorage
from repro.errors import KernelError
from repro.kernel import Kernel, Syscalls, make_ext4, make_tmpfs
from repro.sim.opts import reference_engine, set_optimizations
from repro.sim.profile import COUNTERS

from .test_incremental_property import _apply, _seed, ops

batch = st.lists(ops, max_size=6)


@pytest.fixture(autouse=True)
def fast_paths():
    """Clone inheritance is a fast path: run with it on even under
    ``REPRO_SIM_REFERENCE=1`` (each check scopes its own oracle)."""
    previous = set_optimizations(True)
    yield
    set_optimizations(previous)


def _storage(proc, storage_dir="/store"):
    machine = SimpleNamespace(arch="x86_64", kernel=proc.kernel)
    return ImageStorage(machine, proc, storage_dir)


def _reference(sys, path):
    with reference_engine():
        return snapshot_of_archive(TarArchive.pack(sys, path))


def _full_walks(fn):
    before = COUNTERS.get("snapshot.walk_full")
    out = fn()
    return out, COUNTERS.get("snapshot.walk_full") - before


def _mount_under(sys, src, kind):
    """Put a mount at ``src/m`` whose contents differ from the directory
    under it but whose names do not; the clone copies the directory, not
    the mount."""
    sys.mkdir(f"{src}/m", 0o755)
    sys.write_file(f"{src}/m/f", b"underneath")
    sys.mkdir("/elsewhere", 0o755)
    if kind == "tmpfs":
        sys.mount_fs(make_tmpfs(), "/elsewhere")
    sys.write_file("/elsewhere/f", b"mounted")
    # bind: the same filesystem, so every snapshot entry has the clone's
    # device and only the mount table tells the trees apart
    sys.bind_mount("/elsewhere", f"{src}/m")


def _check_equal(sys, path, snap):
    fresh = snapshot_tree(sys, path)
    ref = _reference(sys, path)
    assert dict(snap) == dict(fresh) == ref
    assert snapshot_digest(snap) == snapshot_digest(fresh) \
        == snapshot_digest(ref)
    return ref


class TestCloneInheritsSnapshot:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(src_snapshotted=st.booleans(),
           mount=st.sampled_from([None, None, "tmpfs", "bind"]),
           before_clone=batch, clone_batch=batch, source_after=batch,
           next_batch=batch)
    def test_matches_fresh_walk_and_reference(
            self, src_snapshotted, mount, before_clone, clone_batch,
            source_after, next_batch):
        kernel = Kernel(make_ext4(), hostname="h")
        storage = _storage(kernel.init_process)
        sys = storage.sys
        src, dst = storage.path_of("src"), storage.path_of("clone")
        _seed(sys, src)
        if mount is not None:
            _mount_under(sys, src, mount)
        if src_snapshotted:
            storage.snapshot("src")
        for op in before_clone:
            _apply(sys, src, op)

        storage.copy("src", "clone", clone=True)
        res = sys.mnt_ns.resolve(src, sys.cred)
        floor = res.fs.gen
        for op in clone_batch:
            _apply(sys, dst, op)
        for op in source_after:
            _apply(sys, src, op)

        # the batches may mount and umount too: only a mount under the
        # source when the clone is first snapshotted refuses inheritance
        inherits = res.inode.tree_gen <= floor and not any(
            mp == src or mp.startswith(src + "/")
            for mp in sys.mnt_ns.mounts)
        if inherits and not src_snapshotted:
            storage.snapshot("src")  # so the count below is the clone's
        snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == (0 if inherits else 1)
        ref = _check_equal(sys, dst, snap)

        for op in next_batch:
            _apply(sys, dst, op)
        diff, cur = snapshot_and_diff(sys, dst, snap)
        with reference_engine():
            diff_ref, cur_ref = snapshot_and_diff(sys, dst, ref)
        assert dict(cur) == dict(cur_ref)
        assert diff.serialize() == diff_ref.serialize()


class TestCloneEdges:
    def _pair(self):
        kernel = Kernel(make_ext4(), hostname="h")
        storage = _storage(kernel.init_process)
        sys = storage.sys
        src = storage.path_of("src")
        _seed(sys, src)
        sys.write_file(f"{src}/b/y", b"other bytes")
        storage.snapshot("src")
        return storage, sys, src, storage.copy("src", "clone", clone=True)

    def test_unchanged_clone_is_inherited_without_a_walk(self):
        storage, sys, src, dst = self._pair()
        snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == 0
        assert snap.meta["a/x"][1] == sys.lstat(f"{dst}/a/x").st_ino
        _check_equal(sys, dst, snap)

    def test_rename_inside_the_clone_rereads_the_moved_inode(self):
        """A swap by rename leaves both files' own generations at or below
        the floor; only their (device, inode) anchors catch the move."""
        storage, sys, src, dst = self._pair()
        sys.rename(f"{dst}/a/x", f"{dst}/tmp")
        sys.rename(f"{dst}/b/y", f"{dst}/a/x")
        sys.rename(f"{dst}/tmp", f"{dst}/b/y")
        before = COUNTERS.get("digest.memo_miss")
        snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == 0
        # re-hashed: the two directories and the two moved files
        assert COUNTERS.get("digest.memo_miss") - before == 4
        _check_equal(sys, dst, snap)
        assert snap["a/x"] != storage.snapshot("src")["a/x"]

    def test_source_changed_after_the_clone_falls_back(self):
        storage, sys, src, dst = self._pair()
        sys.write_file(f"{src}/a/x", b"changed after the clone")
        snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == 1
        _check_equal(sys, dst, snap)

    def test_replaced_source_falls_back(self):
        """A tree renamed into the source's place after the clone has an
        old tree generation and the same paths; only the root inode
        recorded at clone time tells it apart."""
        kernel = Kernel(make_ext4(), hostname="h")
        storage = _storage(kernel.init_process)
        sys = storage.sys
        src = storage.path_of("src")
        _seed(sys, src)
        _seed(sys, "/spare")
        sys.write_file("/spare/a/x", b"not the source's bytes")
        dst = storage.copy("src", "clone", clone=True)
        sys.rename(src, "/old-src")
        sys.rename("/spare", src)
        snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == 1
        _check_equal(sys, dst, snap)

    def test_deleted_clone_forgets_its_records(self):
        storage, sys, src, dst = self._pair()
        storage.snapshot("clone")
        storage.delete("clone")
        sys.mkdir(dst, 0o755)
        sys.write_file(f"{dst}/only", b"new tree")
        snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == 1
        assert sorted(snap) == ["only"]

    def test_unreadable_source_file_names_the_clone_path(self):
        """The source's snapshot fails; the clone's full walk then fails
        on the clone's own path, exactly as without inheritance."""
        kernel = Kernel(make_ext4(), hostname="h")
        root = Syscalls(kernel.init_process)
        root.mkdir("/home", 0o755)
        root.mkdir("/home/alice", 0o755)
        root.chown("/home/alice", 1000, 1000)
        alice = kernel.login(1000, 1000, user="alice", home="/home/alice")
        storage = _storage(alice, "/home/alice/ch")
        sys = storage.sys
        src = storage.path_of("src")
        _seed(sys, src)
        sys.write_file(f"{src}/a/secret", b"x")
        sys.chmod(f"{src}/a/secret", 0o000)
        dst = storage.copy("src", "clone", clone=True)
        with pytest.raises(KernelError) as inherited:
            storage.snapshot("clone")
        with pytest.raises(KernelError) as direct:
            snapshot_tree(sys, dst)
        assert str(inherited.value) == str(direct.value)
        assert f"{dst}/a/secret" in str(inherited.value)

    def test_reference_engine_packs_the_clone(self):
        storage, sys, src, dst = self._pair()
        with reference_engine():
            snap, walks = _full_walks(lambda: storage.snapshot("clone"))
        assert walks == 1
        assert snap == _reference(sys, dst)

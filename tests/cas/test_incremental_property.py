"""Property tests pinning the incremental snapshot walker to the oracle.

The cold-build fast path's whole correctness story rests on one
contract: :func:`repro.cas.snapshot_and_diff` driven by the VFS change
journal returns **bit-identical** results to packing the whole tree and
diffing it from scratch — the same snapshot mapping, the same
:func:`snapshot_digest`, the same *serialized* diff archive.  Not
approximately: ``==`` on every byte, across random mutation sequences
covering writes, renames, deletions (whiteouts), hardlinks, mode/owner
changes, xattrs, mounts and umounts, fakeroot ownership lies, and
batches that change nothing at all.  If the journal ever misses a
mutation or a splice goes stale, these tests — not a golden transcript
three layers up — are what fails.  The walker runs on a fast kernel and
the oracle on a reference one (``Kernel(fast=False)``), each holding a
twin of the same tree that takes the same mutations.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archive import TarArchive, TarMember
from repro.cas import diff as diff_mod
from repro.cas.diff import (
    Snapshot,
    apply_diff_to_snapshot,
    snapshot_and_diff,
    snapshot_digest,
    snapshot_of_archive,
    snapshot_tree,
)
from repro.errors import KernelError
from repro.fakeroot import PSEUDO, FakerootSyscalls
from repro.kernel import FileType, Kernel, Syscalls, make_ext4, make_tmpfs
from repro.sim.profile import COUNTERS

ROOT = "/img"

#: Small closed path universe — collisions (reuse of the same path for a
#: different file type, rename over an existing entry) are the point.
RELS = ["a", "b", "c", "a/x", "a/y", "b/x", "b/y", "c/x", "a/x/q", "a/x/r"]

DATA = [b"", b"one", b"two two", b"\x00" * 64, b"payload " * 32]

ops = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(RELS),
              st.integers(0, len(DATA) - 1)),
    st.tuples(st.just("mkdir"), st.sampled_from(RELS)),
    st.tuples(st.just("unlink"), st.sampled_from(RELS)),
    st.tuples(st.just("rmtree"), st.sampled_from(RELS)),
    st.tuples(st.just("rename"), st.sampled_from(RELS),
              st.sampled_from(RELS)),
    # owner keeps rwx so the tree stays walkable by its owner (an
    # unreadable directory breaks reference and walker identically)
    st.tuples(st.just("chmod"), st.sampled_from(RELS),
              st.sampled_from([0o700, 0o750, 0o755, 0o2755, 0o4755])),
    st.tuples(st.just("chown"), st.sampled_from(RELS),
              st.sampled_from([0, 7, 1000]), st.sampled_from([0, 7])),
    st.tuples(st.just("symlink"), st.sampled_from(RELS),
              st.sampled_from(RELS)),
    st.tuples(st.just("hardlink"), st.sampled_from(RELS),
              st.sampled_from(RELS)),
    st.tuples(st.just("mknod"), st.sampled_from(RELS)),
    st.tuples(st.just("xattr"), st.sampled_from(RELS),
              st.sampled_from(["user.k", "security.capability"])),
    # a mount hides what is under it without touching the journal
    st.tuples(st.just("mount"), st.sampled_from(RELS)),
    st.tuples(st.just("umount"), st.sampled_from(RELS)),
    st.tuples(st.just("noop")),
)

batches = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=6)


def _apply(sys, root, op):
    """Run one mutation; failures (missing parents, type conflicts,
    permissions) are part of the model — both walkers see whatever state
    results."""
    kind = op[0]
    path = f"{root}/{op[1]}" if len(op) > 1 else root
    try:
        if kind == "write":
            sys.write_file(path, DATA[op[2]])
        elif kind == "mkdir":
            sys.mkdir(path, 0o755)
        elif kind == "unlink":
            sys.unlink(path)
        elif kind == "rmtree":
            sys.rm_tree(path)
        elif kind == "rename":
            sys.rename(path, f"{root}/{op[2]}")
        elif kind == "chmod":
            sys.chmod(path, op[2])
        elif kind == "chown":
            sys.chown(path, op[2], op[3])
        elif kind == "symlink":
            sys.symlink(op[2], path)
        elif kind == "hardlink":
            sys.link(path, f"{root}/{op[2]}")
        elif kind == "mknod":
            sys.mknod(path, FileType.CHR, 0o600, rdev=(1, 3))
        elif kind == "xattr":
            sys.setxattr(path, op[2], b"v")
        elif kind == "mount" and sys.lstat(path).ftype is FileType.DIR:
            sys.mount_fs(make_tmpfs(), path)
        elif kind == "umount":
            sys.umount(path)
    except KernelError:
        pass


def _seed(sys, root=ROOT):
    sys.mkdir(root, 0o755)
    sys.mkdir(f"{root}/a", 0o755)
    sys.mkdir(f"{root}/b", 0o755)
    sys.write_file(f"{root}/a/x", b"seed")
    sys.write_file(f"{root}/b/x", b"seed2")
    sys.symlink("a/x", f"{root}/c")


def _plain(fast):
    """Root's view of a seeded tree on a fresh fast or reference kernel."""
    kernel = Kernel(make_ext4(), hostname="h", fast=fast)
    sys = Syscalls(kernel.init_process)
    _seed(sys)
    return sys


def _check_batches(pair, batch_list, root=ROOT):
    """Replay mutation batches on both views of *pair* — a fast and a
    reference kernel's twin trees — comparing the journal walker against
    the reference oracle at every boundary."""
    sys, ref = pair
    prev_inc = {}
    prev_ref = {}
    for batch in batch_list:
        for op in batch:
            _apply(sys, root, op)
            _apply(ref, root, op)
        diff_inc, cur_inc = snapshot_and_diff(sys, root, prev_inc)
        diff_ref, cur_ref = snapshot_and_diff(ref, root, prev_ref)
        assert dict(cur_inc) == dict(cur_ref)
        assert snapshot_digest(cur_inc) == snapshot_digest(dict(cur_ref))
        assert diff_inc.serialize() == diff_ref.serialize()
        # the builder's cache-hit path: applying the diff to the previous
        # snapshot reproduces the new snapshot without walking
        assert dict(apply_diff_to_snapshot(prev_inc, diff_inc)) \
            == dict(cur_inc)
        prev_inc, prev_ref = cur_inc, cur_ref


class TestJournalWalkerParity:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batch_list=batches)
    def test_plain_kernel(self, batch_list):
        """Random mutation sequences through the raw kernel interface."""
        _check_batches((_plain(True), _plain(False)), batch_list)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batch_list=batches)
    def test_fakeroot_lies(self, batch_list):
        """The same sequences through a fakeroot wrapper: chown/mknod
        mutate only the lie database, yet must dirty the journal."""
        root = "/home/alice/img"  # writable by alice

        def alice(fast):
            kernel = Kernel(make_ext4(), hostname="h", fast=fast)
            root_sys = Syscalls(kernel.init_process)
            root_sys.mkdir("/home", 0o755)
            root_sys.mkdir("/home/alice", 0o755)
            root_sys.chown("/home/alice", 1000, 1000)
            proc = kernel.login(1000, 1000, user="alice", home="/home/alice")
            sys = FakerootSyscalls(Syscalls(proc), PSEUDO)
            _seed(sys, root)
            return sys

        _check_batches((alice(True), alice(False)), batch_list, root)


class TestJournalWalkerEdges:
    def test_empty_batch_is_empty_diff(self):
        """No mutations => empty diff and the early-exit reuses the
        previous snapshot object outright."""
        sys = _plain(True)  # the early exit is a fast path
        _, snap = snapshot_and_diff(sys, ROOT, {})
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert len(diff) == 0
        assert cur is snap

    def test_view_mismatch_falls_back(self):
        """A snapshot from one view never splices into another: digests
        still agree with the oracle after switching interfaces."""
        seen = []
        for fast in (True, False):
            sys = _plain(fast)
            _, snap = snapshot_and_diff(sys, ROOT, {})
            other = FakerootSyscalls(
                Syscalls(sys.kernel.init_process.fork(comm="fr")), PSEUDO)
            assert other.digest_view_key() != sys.digest_view_key()
            diff, cur = snapshot_and_diff(other, ROOT, snap)
            seen.append((dict(cur), diff.serialize()))
        assert seen[0] == seen[1]

    def test_umount_under_root_is_seen(self):
        """A file inside a mount under the root must leave the snapshot
        once the mount is gone, though the umount touches no inode."""
        sys = _plain(True)  # the early exit is a fast path
        sys.mkdir(f"{ROOT}/m", 0o755)
        sys.mount_fs(make_tmpfs(), f"{ROOT}/m")
        sys.write_file(f"{ROOT}/m/inner", b"x")
        sys.mkdir(f"{ROOT}/a/m", 0o755)  # and one a level down
        sys.mount_fs(make_tmpfs(), f"{ROOT}/a/m")
        sys.write_file(f"{ROOT}/a/m/inner", b"y")
        prev = snapshot_tree(sys, ROOT)
        assert prev.mounts == {"m", "a/m"}
        sys.umount(f"{ROOT}/m")
        sys.umount(f"{ROOT}/a/m")
        cur = snapshot_tree(sys, ROOT, prev)
        diff, _ = snapshot_and_diff(sys, ROOT, prev)
        ref = snapshot_of_archive(TarArchive.pack(sys, ROOT))  # the oracle
        assert sorted(cur) == sorted(ref)
        assert "m/inner" not in cur and "a/m/inner" not in cur
        assert sorted(m.path for m in diff) == ["a/m", "a/m/inner", "m",
                                                "m/inner"]
        assert cur.mounts == frozenset()

    def test_reference_snapshot_never_splices(self):
        """A reference-produced Snapshot has no view key and seeds a diff
        but not the fast path (here a fast kernel's twin tree)."""
        _, snap = snapshot_and_diff(_plain(False), ROOT, {})
        assert isinstance(snap, Snapshot)
        assert snap.view_key is None
        sys = _plain(True)
        sys.write_file(f"{ROOT}/new", b"x")
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert [m.path for m in diff] == ["new"]


def _memo_counts(batch_list, slack):
    """The walker's memo hits and misses over *batch_list* on a fresh
    kernel, with freed-inode entries dropped past *slack* x live inodes."""
    saved = diff_mod._MEMO_SLACK
    diff_mod._MEMO_SLACK = slack
    before = COUNTERS.snapshot()
    try:
        _check_batches((_plain(True), _plain(False)), batch_list)
    finally:
        diff_mod._MEMO_SLACK = saved
    delta = COUNTERS.delta(before)
    return delta.get("digest.memo_hit", 0), delta.get("digest.memo_miss", 0)


#: Layer members over the same path universe: every type, whiteouts
#: (mode-0 character devices), and type changes between layers.
_members = st.builds(
    lambda kind, rel, mode, data: (
        TarMember(rel, FileType.CHR, 0, 0, 0) if kind == "whiteout"
        else TarMember(rel, kind, mode, 0, 0, data=DATA[data],
                       target="a/x" if kind is FileType.SYMLINK else "",
                       xattrs=(("user.k", b"v"),)
                       if kind is FileType.DIR else ())),
    st.sampled_from([FileType.REG, FileType.DIR, FileType.SYMLINK,
                     FileType.FIFO, "whiteout"]),
    st.sampled_from(RELS), st.sampled_from([0o644, 0o755, 0o700]),
    st.integers(0, len(DATA) - 1))


class TestUnpackJournal:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(layers=st.lists(st.lists(_members, max_size=6), min_size=1,
                           max_size=3),
           as_diff=st.booleans())
    def test_walker_after_an_unpack_equals_the_full_walk(self, layers,
                                                         as_diff):
        """A layer unpack journals as one generation (every mutation it
        makes stamps the same one): the incremental walker, run on a tree
        snapshotted before the unpack, still equals the full walk."""
        pair = (_plain(True), _plain(False))
        _, prev_inc = snapshot_and_diff(pair[0], ROOT, {})
        prev_ref = prev_inc
        for members in layers:
            for sys in pair:
                fs = sys.kernel.root_fs
                gen = fs.gen
                try:
                    if as_diff:
                        TarArchive(members).apply_diff(sys, ROOT)
                    else:
                        TarArchive(members).extract(sys, ROOT)
                except KernelError:
                    pass
                assert fs.gen == gen + 1
            diff_inc, cur_inc = snapshot_and_diff(pair[0], ROOT, prev_inc)
            diff_ref, cur_ref = snapshot_and_diff(pair[1], ROOT, prev_ref)
            assert dict(cur_inc) == dict(cur_ref)
            assert diff_inc.serialize() == diff_ref.serialize()
            prev_inc, prev_ref = cur_inc, cur_ref


class TestDigestMemoBound:
    """Inode numbers are never reused, so memo entries for freed inodes
    can never hit: dropping them bounds the memo and changes no hit."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batch_list=batches)
    def test_dropping_freed_entries_changes_no_hit_or_miss(self, batch_list):
        assert _memo_counts(batch_list, 0) \
            == _memo_counts(batch_list, float("inf"))

    def test_clone_snapshot_delete_cycles_keep_the_memo_bounded(self):
        sys = _plain(True)  # the memo is a fast path
        for d in range(4):
            sys.mkdir(f"{ROOT}/d{d}", 0o755)
            for f in range(25):
                sys.write_file(f"{ROOT}/d{d}/f{f}", f"{d}/{f}".encode())
        filesystems = {m.fs for m in sys.mnt_ns.mounts.values()}
        for cycle in range(8):
            sys.clone_tree(ROOT, "/copy")
            snapshot_tree(sys, "/copy")  # every inode is new: all miss
            memo = diff_mod._memo_for(sys)[1]
            live = sum(fs.live_inodes for fs in filesystems)
            assert len(memo) <= 2 * live, cycle
            sys.rm_tree("/copy")

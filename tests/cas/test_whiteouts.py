"""Whiteout edge cases in the snapshot diff layer.

Deletions travel as character-device members with mode 0 (the overlayfs
convention).  These tests pin the awkward corners — a path deleted and
recreated as a different file type, a whole non-empty directory
disappearing, and the ordering contract (changed members first, in path
order, then whiteouts in path order) that keeps diff serializations —
and therefore cache blob digests — stable.
"""

import pytest

from repro.archive import TarMember
from repro.cas.diff import (
    apply_diff_to_snapshot,
    member_digest,
    snapshot_and_diff,
    snapshot_digest,
)
from repro.kernel import FileType, Kernel, Syscalls, make_ext4

ROOT = "/img"


@pytest.fixture(params=["optimized", "reference"])
def sys(request):
    """Run every case through both the journal walker (a fast kernel)
    and the oracle (a reference kernel)."""
    kernel = Kernel(make_ext4(), hostname="h",
                    fast=request.param == "optimized")
    s = Syscalls(kernel.init_process)
    s.mkdir(ROOT, 0o755)
    s.mkdir(f"{ROOT}/d", 0o755)
    s.write_file(f"{ROOT}/d/inner", b"one")
    s.write_file(f"{ROOT}/d/other", b"two")
    s.write_file(f"{ROOT}/top", b"three")
    return s


def _whiteout_paths(diff):
    return [m.path for m in diff
            if m.ftype is FileType.CHR and m.mode == 0]


def _changed_paths(diff):
    return [m.path for m in diff
            if not (m.ftype is FileType.CHR and m.mode == 0)]


class TestWhiteoutEdges:
    def test_delete_then_recreate_as_other_type(self, sys):
        """file -> dir and dir -> file at the same path: the diff carries
        the new member (no whiteout — the path still exists)."""
        _, snap = snapshot_and_diff(sys, ROOT, {})
        sys.unlink(f"{ROOT}/top")
        sys.mkdir(f"{ROOT}/top", 0o755)
        sys.write_file(f"{ROOT}/top/leaf", b"x")
        sys.unlink(f"{ROOT}/d/inner")
        sys.unlink(f"{ROOT}/d/other")
        sys.rmdir(f"{ROOT}/d")
        sys.write_file(f"{ROOT}/d", b"now a file")
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert _changed_paths(diff) == ["d", "top", "top/leaf"]
        assert diff.member("d").ftype is FileType.REG
        assert diff.member("top").ftype is FileType.DIR
        # the children of the erstwhile directory are whited out; the
        # retyped paths themselves are not
        assert _whiteout_paths(diff) == ["d/inner", "d/other"]
        assert dict(apply_diff_to_snapshot(snap, diff)) == dict(cur)

    def test_whiteout_of_non_empty_directory(self, sys):
        """Removing a whole subtree whites out the directory and every
        descendant, and the snapshot forgets all of them."""
        _, snap = snapshot_and_diff(sys, ROOT, {})
        sys.unlink(f"{ROOT}/d/inner")
        sys.unlink(f"{ROOT}/d/other")
        sys.rmdir(f"{ROOT}/d")
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert _changed_paths(diff) == []
        assert _whiteout_paths(diff) == ["d", "d/inner", "d/other"]
        applied = apply_diff_to_snapshot(snap, diff)
        assert dict(applied) == dict(cur)
        assert not any(p.startswith("d") for p in applied)

    def test_member_ordering_is_stable(self, sys):
        """Changed members in path order, then whiteouts in path order —
        the serialization (and so the cache blob digest) is canonical."""
        _, snap = snapshot_and_diff(sys, ROOT, {})
        sys.write_file(f"{ROOT}/zz", b"last name, first change")
        sys.write_file(f"{ROOT}/aa", b"first name, last change")
        sys.unlink(f"{ROOT}/top")
        sys.unlink(f"{ROOT}/d/other")
        diff, _cur = snapshot_and_diff(sys, ROOT, snap)
        assert [m.path for m in diff] == ["aa", "zz", "d/other", "top"]
        assert _changed_paths(diff) == sorted(_changed_paths(diff))
        assert _whiteout_paths(diff) == sorted(_whiteout_paths(diff))

    def test_empty_diff_roundtrip(self, sys):
        """No change: empty diff, identical digest, apply is a no-op."""
        _, snap = snapshot_and_diff(sys, ROOT, {})
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert len(diff) == 0
        assert snapshot_digest(cur) == snapshot_digest(snap)
        assert dict(apply_diff_to_snapshot(snap, diff)) == dict(snap)

    def test_whiteout_then_recreate_identical(self, sys):
        """Delete a file and write identical bytes back before the next
        boundary: metadata and content match, so the diff is empty even
        though the inode is new."""
        _, snap = snapshot_and_diff(sys, ROOT, {})
        sys.unlink(f"{ROOT}/top")
        sys.write_file(f"{ROOT}/top", b"three")
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert len(diff) == 0
        assert dict(cur) == dict(snap)


class TestXattrChanges:
    """Extended attributes are part of a member: a change to them alone
    (``RUN setcap ...``) must reach the layer diff, or a cached layer
    would drop the file capability."""

    def test_xattr_only_change_reaches_the_diff(self, sys):
        _, snap = snapshot_and_diff(sys, ROOT, {})
        sys.setxattr(f"{ROOT}/top", "security.capability", b"cap_net_raw+ep")
        diff, cur = snapshot_and_diff(sys, ROOT, snap)
        assert _changed_paths(diff) == ["top"]
        assert diff.member("top").xattrs == (
            ("security.capability", b"cap_net_raw+ep"),)
        assert dict(apply_diff_to_snapshot(snap, diff)) == dict(cur)
        sys.removexattr(f"{ROOT}/top", "security.capability")
        diff, back = snapshot_and_diff(sys, ROOT, cur)
        assert _changed_paths(diff) == ["top"]
        assert dict(back) == dict(snap)

    def test_symlink_digest_leaves_out_its_targets_xattrs(self, sys):
        """``listxattr`` follows a symlink, so the attributes listed for
        one are its target's; the target's change is the target's alone."""
        sys.symlink("top", f"{ROOT}/link")
        _, snap = snapshot_and_diff(sys, ROOT, {})
        sys.setxattr(f"{ROOT}/top", "user.k", b"v")
        diff, _cur = snapshot_and_diff(sys, ROOT, snap)
        assert _changed_paths(diff) == ["top"]


def test_a_member_without_xattrs_keeps_its_digest():
    """The digest every member without xattrs had before xattrs counted."""
    plain = TarMember(path="bin/ping", ftype=FileType.REG, mode=0o755,
                      uid=0, gid=0, data=b"elf ping")
    assert member_digest(plain) == (
        "4d92a2924b77ff07666db41124b5cd15c8162b5ec217ee11561132b219b65643")
    capped = TarMember(path="bin/ping", ftype=FileType.REG, mode=0o755,
                       uid=0, gid=0, data=b"elf ping",
                       xattrs=(("security.capability", b"cap_net_raw+ep"),))
    assert member_digest(capped) != member_digest(plain)

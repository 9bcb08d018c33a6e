"""Cross-cutting property-based tests of the core invariants DESIGN.md
calls out."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.archive import TarArchive
from repro.containers.storage import VfsDriver
from repro.fakeroot import FAKEROOT_CLASSIC, FakerootSyscalls
from repro.kernel import (
    FileType,
    IdMap,
    IdMapEntry,
    Kernel,
    Syscalls,
    UserNamespace,
    make_ext4,
)

_slow = settings(max_examples=25,
                 suppress_health_check=[HealthCheck.too_slow])


def _host_with_alice():
    k = Kernel(make_ext4())
    sys0 = Syscalls(k.init_process)
    sys0.mkdir_p("/home/alice")
    sys0.chown("/home/alice", 1000, 1000)
    return k


# -- chown visibility invariant ------------------------------------------------------

@_slow
@given(uid=st.integers(0, 65535), gid=st.integers(0, 65535))
def test_type2_chown_roundtrips_through_namespace(uid, gid):
    """In a Type II namespace, any successful chown to mapped IDs is
    reflected exactly by in-namespace stat, and the on-disk kernel ID is the
    map image of the namespace ID."""
    k = _host_with_alice()
    proc = k.login(1000, 1000, user="alice", home="/home/alice")
    sys = Syscalls(proc)
    sys.unshare_user()
    helper = Syscalls(k.init_process.fork())
    helper.write_uid_map([IdMapEntry(0, 1000, 1),
                          IdMapEntry(1, 3_000_000, 65535)], target=proc)
    helper.write_gid_map([IdMapEntry(0, 1000, 1),
                          IdMapEntry(1, 4_000_000, 65535)], target=proc)
    sys.write_file("/home/alice/f", b"")
    sys.chown("/home/alice/f", uid, gid)
    st_res = sys.stat("/home/alice/f")
    assert (st_res.st_uid, st_res.st_gid) == (uid, gid)
    ns = proc.cred.userns
    assert st_res.kuid == ns.uid_to_host(uid)
    assert st_res.kgid == ns.gid_to_host(gid)


@_slow
@given(uid=st.integers(1, 65535), gid=st.integers(1, 65535))
def test_type3_chown_nonzero_always_einval(uid, gid):
    """In a single-ID namespace, chown to any ID other than 0 fails EINVAL —
    the Figure 2 mechanism, for every possible target."""
    from repro.errors import Errno, KernelError
    k = _host_with_alice()
    proc = k.login(1000, 1000, user="alice", home="/home/alice")
    sys = Syscalls(proc)
    sys.setup_single_id_userns()
    sys.write_file("/home/alice/f", b"")
    with pytest.raises(KernelError) as exc:
        sys.chown("/home/alice/f", uid, gid)
    assert exc.value.errno == Errno.EINVAL


# -- fakeroot invariants ----------------------------------------------------------------

@_slow
@given(ops=st.lists(
    st.tuples(st.sampled_from(["chown", "chmod", "mknod"]),
              st.integers(0, 70000), st.integers(0, 0o777)),
    min_size=1, max_size=8))
def test_fakeroot_wrapped_view_consistent_and_invisible(ops):
    """Any sequence of faked operations: (1) the wrapper's view reflects the
    last write per field; (2) raw syscalls never see any of it (beyond what
    was really permitted)."""
    k = _host_with_alice()
    raw = Syscalls(k.login(1000, 1000, home="/home/alice"))
    fr = FakerootSyscalls(raw, FAKEROOT_CLASSIC)
    fr.write_file("/home/alice/f", b"")
    last_uid = None
    for op, arg1, arg2 in ops:
        if op == "chown":
            fr.chown("/home/alice/f", arg1, -1)
            last_uid = arg1
        elif op == "chmod":
            fr.chmod("/home/alice/f", arg2)
        else:
            name = f"/home/alice/dev{arg1}"
            if not fr.exists(name):
                fr.mknod(name, FileType.CHR, rdev=(1, arg1 % 256))
    if last_uid is not None:
        assert fr.stat("/home/alice/f").st_uid == last_uid
    assert raw.stat("/home/alice/f").kuid == 1000


# -- archive diff/apply invariant ----------------------------------------------------------

_tree_ops = st.lists(
    st.tuples(st.sampled_from(["write", "mkdir", "delete", "rmtree", "chmod",
                               "symlink", "mkfifo", "setxattr"]),
              st.sampled_from(["a", "b", "c", "d", "d/e", "d/f"]),
              st.binary(max_size=16)),
    max_size=12)


def _remove_tree(sys, path):
    if sys.lstat(path).ftype is FileType.DIR:
        for entry in sys.readdir(path):
            _remove_tree(sys, f"{path}/{entry.name}")
        sys.rmdir(path)
    else:
        sys.unlink(path)


@_slow
@given(ops=_tree_ops)
def test_diff_apply_reconstructs_tree(ops):
    """For any mutation sequence A -> B: apply_diff(diff(A,B), A) == B.
    This is the invariant the overlay driver's layer commits rest on.
    Paths change type among regular file, directory, symlink and FIFO,
    so every member lands on whatever an earlier one left."""
    k = Kernel(make_ext4())
    sys0 = Syscalls(k.init_process)
    for base in ("/t1", "/t2"):
        sys0.mkdir_p(f"{base}/d")
        sys0.write_file(f"{base}/a", b"base-a")
        sys0.write_file(f"{base}/d/e", b"base-e")

    driver = VfsDriver(sys0, "/storage")
    driver._snapshots["/t1"] = {}
    before, _ = driver._diff_since_snapshot("/t1")  # seed snapshot of A

    # mutate /t1 into B
    for op, path, data in ops:
        full = f"/t1/{path}"
        try:
            if op == "write":
                sys0.mkdir_p(full.rsplit("/", 1)[0])
                sys0.write_file(full, data)
            elif op == "mkdir":
                sys0.mkdir_p(full)
            elif op == "delete":
                if sys0.exists(full) and \
                        sys0.lstat(full).ftype is not FileType.DIR:
                    sys0.unlink(full)
            elif op == "rmtree":
                _remove_tree(sys0, full)
            elif op == "chmod":
                if sys0.exists(full):
                    sys0.chmod(full, 0o700)
            elif op == "symlink":
                sys0.symlink("a" if data else "nowhere", full)
            elif op == "mkfifo":
                sys0.mknod(full, FileType.FIFO, 0o640)
            elif op == "setxattr":
                sys0.setxattr(full, "user.tag", data)
        except Exception:
            pass

    diff, _ = driver._diff_since_snapshot("/t1")
    # apply the diff onto the untouched copy /t2
    diff.apply_diff(sys0, "/t2")

    def tree(root):
        return {(m.path, m.ftype, m.data, m.mode, m.xattrs, m.target)
                for m in TarArchive.pack(sys0, root)}
    assert tree("/t1") == tree("/t2")


# -- flatten idempotence over real images ----------------------------------------------------

def test_flatten_idempotent_over_base_image():
    from repro.distro import make_centos7_archive
    archive = make_centos7_archive()
    once = TarArchive([m.flattened() for m in archive])
    twice = TarArchive([m.flattened() for m in once])
    assert list(once) == list(twice)
    assert all((m.uid, m.gid) == (0, 0) and not m.mode & 0o6000
               for m in once)


# -- namespace display/translation duality ------------------------------------------------------

@_slow
@given(kuid=st.integers(0, 2**20))
def test_display_matches_translation(kuid):
    """uid_display(k) is uid_from_host(k) when mapped, 65534 otherwise."""
    ns = UserNamespace(UserNamespace.initial(), 1000, 1000)
    ns.set_uid_map(IdMap([IdMapEntry(0, 1000, 1),
                          IdMapEntry(1, 200000, 65536)]),
                   writer_euid=0, writer_privileged=True)
    inside = ns.uid_from_host(kuid)
    if inside is None:
        assert ns.uid_display(kuid) == 65534
    else:
        assert ns.uid_display(kuid) == inside
        assert ns.uid_to_host(inside) == kuid

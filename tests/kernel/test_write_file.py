"""``Syscalls.write_file`` walks a path once; the two-walk open it
replaced is kept here as its oracle.

The oracle resolves the whole path, and only when that fails with
ENOENT walks the parent again to create the file (``_prep_create``);
executable metadata is stamped afterwards on a third walk, as callers
did before ``write_file(..., exe=...)`` existed.  Two identical worlds
take the same random writes, one through each; every write must end
with the same error (errno, syscall and message), the same kernel
ticks and the same trees.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import Errno, KernelError
from repro.kernel import (
    FileType,
    Kernel,
    MountFlags,
    Syscalls,
    make_ext4,
    make_tmpfs,
)
from repro.kernel.vfs import may_access


def old_write_file(sys, path, data, *, append=False, mode=0o666, exe=None):
    """open(O_CREAT) as two walks: resolve, then on ENOENT the parent."""
    try:
        res = sys._resolve(path)
    except KernelError as err:
        if err.errno != Errno.ENOENT:
            raise
        rp = sys._prep_create(path, "open")
        uid, gid, _ = sys._new_ids(rp.dir_inode)
        eff = mode & ~sys.proc.umask & 0o777
        node = rp.fs.alloc(FileType.REG, eff, uid, gid,
                           now=sys.kernel.now(), data=bytes(data))
        rp.fs.link_child(rp.dir_inode, rp.name, node)
    else:
        node = res.inode
        if node.is_dir:
            raise KernelError(Errno.EISDIR, path, syscall="open")
        sys._check_writable_mount(res.mount, "open")
        if not may_access(sys.cred, node, write=True):
            raise KernelError(Errno.EACCES, path, syscall="open")
        node.data = bytes(node.data) + bytes(data) if append else bytes(data)
        node.mtime = sys.kernel.now()
        res.fs.touch(node)
    if exe is not None:
        res = sys.mnt_ns.resolve(path, sys.cred, cwd=sys.getcwd())
        res.inode.exe_impl, res.inode.exe_arch, res.inode.exe_static = exe
        res.fs.touch(res.inode)


class World:
    """Root and alice on a host whose tree has one of each case:

    ``/d`` (world-writable) holds a root-owned file ``f`` alice may not
    write, a file ``w`` she may, a symlink ``l`` to ``f``, a dangling
    symlink ``dang``, a symlink ``ld`` to ``/d`` and a directory
    ``sub``; ``/nox`` denies alice search, ``/now`` denies her writes;
    ``/ro`` is a read-only bind of ``/d/sub`` and ``/mnt`` a tmpfs;
    ``/file`` is a regular file, so ``/file/x`` has a file for parent."""

    def __init__(self):
        self.kernel = k = Kernel(make_ext4(), hostname="open", fast=True)
        root = Syscalls(k.init_process)
        for path, mode in (("/d", 0o777), ("/d/sub", 0o777),
                           ("/nox", 0o666), ("/now", 0o555),
                           ("/ro", 0o755), ("/mnt", 0o755)):
            root.mkdir(path, 0o777)
            root.chmod(path, mode)
        for path, mode in (("/d/f", 0o644), ("/d/w", 0o666),
                           ("/d/sub/f", 0o666), ("/nox/f", 0o666),
                           ("/now/f", 0o666), ("/file", 0o644)):
            root.write_file(path, b"old")
            root.chmod(path, mode)
        root.symlink("f", "/d/l")
        root.symlink("/nowhere", "/d/dang")
        root.symlink("/d", "/d/ld")
        root.bind_mount("/d/sub", "/ro", MountFlags(read_only=True))
        self.tmpfs = make_tmpfs()
        root.mount_fs(self.tmpfs, "/mnt")
        alice = Syscalls(k.login(1000, 1000, user="alice", home="/d"))
        self.sys = {"root": root, "alice": alice}

    def state(self):
        """Every inode of both filesystems, and the ticks."""
        tree = [(path, node.ftype, node.mode, node.uid, node.gid,
                 node.data, node.target, node.mtime, node.nlink,
                 node.exe_impl, node.exe_arch, node.exe_static)
                for fs in (self.kernel.root_fs, self.tmpfs)
                for path, node in fs.iter_tree()]
        return tree, self.kernel.ticks


def _outcome(fn):
    try:
        fn()
    except KernelError as err:
        return (err.errno, err.syscall, str(err))
    return "ok"


COMPS = ("d", "f", "w", "l", "dang", "ld", "sub", "nox", "now", "ro",
         "mnt", "file", "new", "..", ".")
EXE = ("sh", "x86_64", False)

path = st.builds(
    lambda absolute, comps: ("/" if absolute else "") + "/".join(comps),
    st.booleans(), st.lists(st.sampled_from(COMPS), min_size=1, max_size=3))
WRITES = st.tuples(st.sampled_from(("root", "alice")), path,
                   st.sampled_from((b"x", b"yy")), st.booleans(),
                   st.sampled_from((None, EXE)))


def check_parity(writes):
    new, old = World(), World()
    assert new.state() == old.state()
    for who, p, data, append, exe in writes:
        got = _outcome(lambda: new.sys[who].write_file(
            p, data, append=append, exe=exe))
        want = _outcome(lambda: old_write_file(
            old.sys[who], p, data, append=append, exe=exe))
        assert got == want, (who, p)
        assert new.state() == old.state(), (who, p)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(WRITES, min_size=1, max_size=6))
def test_one_walk_matches_the_two_walk_open(writes):
    check_parity(writes)


CASES = {
    "create": "/d/new",
    "rewrite": "/d/w",
    "missing-parent": "/d/nope/new",
    "parent-is-a-file": "/file/x",
    "parent-through-symlink-is-a-file": "/d/ld/f/x",
    "no-search": "/nox/f",
    "no-write": "/now/new",
    "existing-in-unwritable-dir": "/now/f",
    "not-writable": "/d/f",
    "erofs": "/ro/new",
    "erofs-existing": "/ro/f",
    "eisdir": "/d/sub",
    "root": "/",
    "root-dotdot": "/d/..",
    "final-dotdot": "/d/sub/..",
    "final-symlink": "/d/l",
    "symlink-in-prefix": "/d/ld/new",
    "dangling-symlink": "/d/dang",
    "mountpoint": "/mnt",
    "under-mountpoint": "/mnt/new",
    "relative": "sub/new",
}


@pytest.mark.parametrize("who,exe", list(itertools.product(
    ("root", "alice"), (None, EXE))))
@pytest.mark.parametrize("case", list(CASES))
def test_each_case_matches_the_two_walk_open(case, who, exe):
    check_parity([(who, CASES[case], b"x", False, exe)])


def test_nofollow_refuses_a_final_symlink_only():
    world = World()
    root = world.sys["root"]
    with pytest.raises(KernelError) as err:
        root.write_file("/d/l", b"x", follow=False)
    assert (err.value.errno, err.value.syscall) == (Errno.ELOOP, "open")
    assert root.read_file("/d/f") == b"old"
    root.write_file("/d/ld/w", b"x", follow=False)  # a symlink in the prefix
    assert root.read_file("/d/w") == b"x"


def test_one_counted_walk_per_write():
    """A create, a rewrite and a write through a final symlink each
    resolve the parent once, and nothing else; the old open walked a
    created file's path twice."""
    world = World()
    ns = world.kernel.init_process.mnt_ns
    calls = []
    for name in ("resolve", "resolve_parent"):
        real = getattr(ns, name)
        setattr(ns, name, lambda *a, _n=name, _f=real, **kw: (
            calls.append(_n), _f(*a, **kw))[1])
    root = world.sys["root"]
    root.write_file("/d/new", b"x", exe=EXE)
    root.write_file("/d/new", b"y", exe=EXE)
    root.write_file("/d/l", b"z")
    assert calls == ["resolve_parent"] * 3
    assert root.read_file("/d/f") == b"z"

"""The path-walk dentry cache against its oracle, the uncached walk.

Every step below mutates a small tree through syscalls (or writes
credentials directly, as other tests do), then resolves a fixed set of
probe paths for every process and mount namespace twice: through the
cache, and through a reference clone of the namespace
(``clone(fast=False)``), which runs the uncached loop on the same mount
table.  Both must return the same ``(mount, inode, canon)``, or fail
with the same errno and message.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import Errno, KernelError
from repro.kernel import (
    Cap,
    IdMapEntry,
    Kernel,
    Syscalls,
    make_ext4,
    make_tmpfs,
)

NAMES = ("a", "b", "l")
#: Mutations touch the top two levels, so probes one level deeper walk
#: through what changed inside their cached prefix.
PATHS = ["/" + "/".join(p) for n in (1, 2)
         for p in itertools.product(NAMES, repeat=n)]
PROBES = PATHS + [
    "/" + "/".join(p) for p in itertools.product(NAMES, repeat=3)] + [
    "/", "/a/", "/a/./b", "/a/b/..", "/a/l/../b", "/l/..", "a/b", "b/l"]
TARGETS = ("a", "b", "/a", "/a/b", "..", "../b", "l", "/l", "/a/b/l",
           "/nowhere")
MODES = (0o755, 0o700, 0o711, 0o750, 0o705, 0o000, 0o1777)
IDS = (-1, 0, 1000, 1001)
WHO = ("root", "alice", "bob", "worker", "child")
#: Who mutates the tree: root most often, since it may change anything.
MUTATORS = ("root", "root") + WHO


class World:
    """A host with alice and bob, a root-forked *worker* whose
    credentials the set*id steps change, and alice's *child* in a fresh
    user and mount namespace whose ID maps start unwritten."""

    def __init__(self):
        # the cached side runs fast, whatever the environment says
        self.kernel = k = Kernel(make_ext4(), hostname="walk", fast=True)
        root = Syscalls(k.init_process)
        root.mkdir("/home", 0o755)
        for path in ("/a", "/a/b", "/a/b/a", "/b"):
            root.mkdir(path, 0o777)
        root.chown("/a", 1000, 1000)
        root.chown("/a/b", 1001, 1001)
        root.symlink("/a/b", "/a/l")
        root.symlink("a", "/l")
        self.tmpfs = make_tmpfs()
        alice = k.login(1000, 1000, user="alice", home="/home/alice")
        bob = k.login(1001, 1001, user="bob", home="/home/bob")
        child = Syscalls(alice.fork(comm="child"))
        child.unshare_user()
        child.unshare_mount()
        self.sys = {
            "root": root,
            "alice": Syscalls(alice),
            "bob": Syscalls(bob),
            "worker": Syscalls(k.init_process.fork(comm="worker")),
            "child": child,
        }

    def probers(self):
        """(mount namespace, credentials) pairs to probe: everyone in the
        host namespace, and the child in its own."""
        host = self.kernel.init_process.mnt_ns
        return [(host, s.cred) for w, s in self.sys.items() if w != "child"] \
            + [(self.sys["child"].mnt_ns, self.sys["child"].cred)]


def _outcome(fn):
    try:
        res = fn()
    except KernelError as err:
        return ("error", err.errno, str(err))
    # a clone copies each Mount, so a mount is named by what it holds
    mount = (res.mount.mountpoint, id(res.mount.fs), res.mount.root_ino,
             res.mount.flags, res.mount.owning_userns)
    if hasattr(res, "dir_inode"):
        return ("ok", mount, id(res.dir_inode), res.name, res.dir_path)
    return ("ok", mount, id(res.inode), res.path)


def walks(ns, cred, path):
    """One probe's results: resolve, lstat-style resolve, resolve_parent."""
    return [
        _outcome(lambda: ns.resolve(path, cred, cwd="/a")),
        _outcome(lambda: ns.resolve(path, cred, follow=False, cwd="/a")),
        _outcome(lambda: ns.resolve_parent(path, cred, cwd="/a")),
    ]


def assert_cache_matches_reference(world):
    for ns, cred in world.probers():
        for path in PROBES:
            cached = walks(ns, cred, path)
            reference = walks(ns.clone(fast=False), cred, path)
            assert cached == reference, (path, cred)


def apply(world, step):
    op, who, *args = step
    sys = world.sys[who]
    cred = sys.cred
    if op == "groups":
        cred.groups = frozenset(args[0])
        return
    if op == "caps":
        cred.caps = frozenset(args[0])
        return
    call = {
        "chmod": lambda p, m: sys.chmod(p, m),
        "chown": lambda p, u, g: sys.chown(p, u, g),
        "lchown": lambda p, u, g: sys.lchown(p, u, g),
        "mkdir": lambda p: sys.mkdir(p, 0o755),
        "write": lambda p: sys.write_file(p, b"x"),
        "rmdir": sys.rmdir,
        "unlink": sys.unlink,
        "rename": sys.rename,
        "symlink": sys.symlink,
        "resymlink": lambda t, p: (sys.unlink(p), sys.symlink(t, p)),
        "mount": lambda p: sys.mount_fs(world.tmpfs, p),
        "umount": sys.umount,
        "set_root": sys.pivot_to,
        "setuid": sys.setuid,
        "setresgid": lambda g: sys.setresgid(g, g, g),
        "setgroups": sys.setgroups,
        "drop_caps": sys.drop_caps,
        "uid_map": lambda: sys.write_uid_map(
            [IdMapEntry(0, cred.euid, 1)]),
        "gid_map": lambda: (sys.deny_setgroups(), sys.write_gid_map(
            [IdMapEntry(0, cred.egid, 1)])),
    }[op]
    try:
        call(*args)
    except KernelError:
        pass  # a refused mutation is still a step


paths = st.sampled_from(PATHS)
who = st.sampled_from(MUTATORS)
ids = st.sampled_from(IDS)
groups = st.lists(st.sampled_from((0, 1000, 1001, 2000)), max_size=3)
caps = st.lists(st.sampled_from((Cap.DAC_OVERRIDE, Cap.DAC_READ_SEARCH,
                                 Cap.CHOWN, Cap.FOWNER)), max_size=2)
STEPS = st.one_of(
    st.tuples(st.just("chmod"), who, paths, st.sampled_from(MODES)),
    st.tuples(st.sampled_from(("chown", "lchown")), who, paths, ids, ids),
    st.tuples(st.sampled_from(("mkdir", "write", "rmdir", "unlink", "mount",
                               "umount", "set_root")), who, paths),
    st.tuples(st.just("rename"), who, paths, paths),
    st.tuples(st.sampled_from(("symlink", "resymlink")), who,
              st.sampled_from(TARGETS), paths),
    st.tuples(st.sampled_from(("setuid", "setresgid")), who, ids),
    st.tuples(st.just("setgroups"), who, groups),
    st.tuples(st.sampled_from(("drop_caps", "uid_map", "gid_map")), who),
    st.tuples(st.just("groups"), who, groups),
    st.tuples(st.just("caps"), who, caps),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(STEPS, min_size=1, max_size=12))
def test_cached_walks_match_the_reference(steps):
    world = World()
    assert_cache_matches_reference(world)
    for step in steps:
        apply(world, step)
        assert_cache_matches_reference(world)


@pytest.mark.parametrize("steps", [
    # the child's maps: written once, from unset to set
    [("uid_map", "child"), ("gid_map", "child")],
    # search permission on /a through its mode, its group, bob's groups
    [("chmod", "alice", "/a", 0o000), ("chmod", "alice", "/a", 0o070),
     ("groups", "bob", (1000,)), ("chown", "root", "/a", -1, 0),
     ("chown", "root", "/a", -1, 1000), ("groups", "bob", ()),
     ("chmod", "alice", "/a", 0o755)],
    # a regular file in the prefix, replaced by a directory
    [("write", "root", "/b/a"), ("unlink", "root", "/b/a"),
     ("mkdir", "root", "/b/a")],
    # a directory replaced by a symlink, and moved under another name
    [("rename", "root", "/a/b", "/b/b"), ("symlink", "root", "/b/b", "/a/b"),
     ("resymlink", "root", "/", "/a/b")],
    # a mount over a walked directory, pivot_root, then umount
    [("mount", "root", "/a/b"), ("mkdir", "root", "/a/b/a"),
     ("set_root", "child", "/a"), ("umount", "root", "/a/b")],
    # capabilities and IDs dropped in place
    [("caps", "root", ()), ("setuid", "worker", 1001),
     ("setgroups", "worker", ()), ("drop_caps", "root")],
], ids=["id-maps", "search-bits", "file-to-dir", "dir-to-symlink",
        "mounts", "creds"])
def test_fixed_histories_match_the_reference(steps):
    world = World()
    for step in steps:
        assert_cache_matches_reference(world)
        apply(world, step)
    assert_cache_matches_reference(world)


def test_the_cache_is_used():
    world = World()
    ns = world.kernel.init_process.mnt_ns
    cred = world.sys["alice"].cred
    first = ns.resolve("/a/b/a", cred)
    assert ns._dentries
    assert ns.resolve("/a/b/a", cred) == first


def test_symlink_budget_carries_across_the_cached_prefix():
    """/a/s1 reaches /a/d through 40 symlinks, the kernel's limit; one
    more symlink after the cached prefix must raise ELOOP, as it does on
    the uncached walk."""
    errors = {}
    for fast in (True, False):
        k = Kernel(make_ext4(), hostname="eloop", fast=fast)
        root = Syscalls(k.init_process)
        root.mkdir_p("/a/d")
        root.write_file("/a/d/t", b"t")
        root.symlink("/a/d/t", "/a/d/f")
        for i in range(1, 40):
            root.symlink(f"/a/s{i + 1}", f"/a/s{i}")
        root.symlink("/a/d", "/a/s40")
        ns, cred = k.init_process.mnt_ns, k.init_process.cred
        assert ns.resolve("/a/s1/t", cred).path == "/a/d/t"  # caches /a/s1
        assert bool(ns._dentries) is fast
        for walk in (lambda: ns.resolve("/a/s1/f", cred),
                     lambda: root.read_file("/a/s1/f")):
            with pytest.raises(KernelError) as err:
                walk()
            errors.setdefault(fast, []).append(
                (err.value.errno, str(err.value)))
    assert errors[True] == errors[False]
    assert {errno for errno, _ in errors[True]} == {Errno.ELOOP}

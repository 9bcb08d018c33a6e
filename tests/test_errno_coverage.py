"""Every errno the simulation can raise must be exercised by a test.

The test scans ``src/repro`` for ``KernelError(Errno.X, ...)`` raise sites,
then replays one trigger scenario per errno under the syscall tracer and
checks the tracer's per-errno counters.  A new raise site without a
matching trigger fails with the list of unexercised errnos — keeping the
errno surface (the paper's primary failure evidence: EPERM 1, EINVAL 22,
...) fully covered as the simulation grows.
"""

import re
from pathlib import Path

import pytest

from repro.errors import Errno, KernelError
from repro.kernel import (
    FileType,
    Kernel,
    MountFlags,
    Syscalls,
    make_ext4,
    make_nfs,
    make_tmpfs,
)
from repro.obs import attach_tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: matches the raise convention, including multi-line raises
RAISE_RE = re.compile(r"KernelError\(\s*Errno\.(\w+)")


def declared_errnos() -> set[str]:
    names: set[str] = set()
    for py in SRC.rglob("*.py"):
        names |= set(RAISE_RE.findall(py.read_text()))
    return names


def test_scan_finds_the_known_raise_sites():
    """Guard against the regex silently rotting."""
    declared = declared_errnos()
    assert {"EPERM", "EINVAL", "EACCES", "ENOENT", "EROFS",
            "ENOEXEC", "EUSERS", "ELOOP", "EIO"} <= declared


def expect(errno: Errno, fn, *args, **kwargs):
    with pytest.raises(KernelError) as exc:
        fn(*args, **kwargs)
    assert exc.value.errno == errno, exc.value


def test_every_raised_errno_is_exercised():
    k = Kernel(make_ext4(), hostname="cov")
    tracer = attach_tracer(k)
    root = Syscalls(k.init_process)
    root.mkdir("/etc", 0o755)
    root.mkdir("/bin", 0o755)
    root.mkdir("/tmp", 0o777)
    root.mkdir("/home", 0o755)
    root.mkdir("/home/alice", 0o755)
    root.chown("/home/alice", 1000, 1000)
    alice = k.login(1000, 1000, user="alice", home="/home/alice")
    asys = Syscalls(alice)

    # ENOENT: nothing there
    expect(Errno.ENOENT, root.stat, "/nope")
    # EACCES: alice cannot create under root-owned /etc
    expect(Errno.EACCES, asys.write_file, "/etc/x", b"")
    # EPERM: alice cannot give her file away (classic paper failure)
    asys.write_file("/home/alice/f", b"hi")
    expect(Errno.EPERM, asys.chown, "/home/alice/f", 0, 0)
    # EINVAL: unmapped ID inside a single-ID namespace (Fig. 3 seteuid 100)
    type3 = Syscalls(alice.fork(comm="type3"))
    type3.setup_single_id_userns()
    expect(Errno.EINVAL, type3.seteuid, 100)
    # ENOTDIR: path component is a regular file
    root.write_file("/tmp/f", b"x")
    expect(Errno.ENOTDIR, root.stat, "/tmp/f/sub")
    # EISDIR: truncate a directory
    expect(Errno.EISDIR, root.truncate, "/tmp", 0)
    # ENXIO: open a FIFO for writing with no reader
    root.mknod("/tmp/p", FileType.FIFO, 0o644)
    expect(Errno.ENXIO, root.write_file, "/tmp/p", b"x")
    # EEXIST: mkdir over an existing entry
    expect(Errno.EEXIST, root.mkdir, "/tmp", 0o777)
    # ENOTEMPTY: rmdir a populated directory
    expect(Errno.ENOTEMPTY, root.rmdir, "/tmp")
    # EXDEV: rename across filesystems
    root.mkdir("/ram", 0o755)
    root.mount_fs(make_tmpfs(), "/ram")
    expect(Errno.EXDEV, root.rename, "/tmp/f", "/ram/f")
    # EROFS: write through a read-only mount
    root.mkdir("/ro", 0o755)
    root.mount_fs(make_ext4("rofs"), "/ro", MountFlags(read_only=True))
    expect(Errno.EROFS, root.write_file, "/ro/x", b"")
    # EBUSY: unmounting the root filesystem
    expect(Errno.EBUSY, root.umount, "/")
    # ELOOP: symlink cycle
    root.symlink("/tmp/b", "/tmp/a")
    root.symlink("/tmp/a", "/tmp/b")
    expect(Errno.ELOOP, root.stat, "/tmp/a")
    # ENODATA: absent xattr
    expect(Errno.ENODATA, root.getxattr, "/tmp/f", "user.missing")
    # ENOTSUP: user.* xattrs on an NFS mount without xattr support (§6.2.1)
    root.mkdir("/nfs", 0o777)
    root.mount_fs(make_nfs(), "/nfs")
    root.write_file("/nfs/f", b"x")
    expect(Errno.ENOTSUP, root.setxattr, "/nfs/f", "user.k", b"v")
    # EUSERS: user namespace nesting beyond the kernel's 32 levels
    nester = Syscalls(alice.fork(comm="nester"))
    with pytest.raises(KernelError) as exc:
        for _ in range(40):
            nester.unshare_user()
    assert exc.value.errno == Errno.EUSERS
    # ENOSPC: the max_user_namespaces sysctl
    k.sysctl["user.max_user_namespaces"] = k.userns_count
    expect(Errno.ENOSPC, Syscalls(alice.fork(comm="nope")).unshare_user)
    del k.sysctl["user.max_user_namespaces"]  # restore default behaviour
    k.sysctl.setdefault("user.max_user_namespaces", 1 << 20)
    # ENOEXEC: binary built for a foreign ISA (the §4.2 laptop trap)
    root.write_file("/bin/prog", b"\x7fELF", mode=0o755)
    root._resolve("/bin/prog").inode.exe_arch = "aarch64"
    expect(Errno.ENOEXEC, root.prepare_exec, "/bin/prog")
    # EIO: directory entry pointing at a vanished inode
    root.write_file("/tmp/stale", b"x")
    res = root._resolve("/tmp/stale")
    del res.fs._inodes[res.inode.ino]
    expect(Errno.EIO, root.stat, "/tmp/stale")

    covered = set(tracer.metrics.errnos)
    missing = sorted(declared_errnos() - covered)
    assert not missing, (
        f"errnos raised somewhere in src/repro but never exercised through "
        f"a traced syscall: {missing} — add a trigger scenario here")

"""The fakeroot interception layer.

:class:`FakerootSyscalls` wraps a real :class:`~repro.kernel.Syscalls`,
"intercepting privileged and privileged-adjacent system calls and lying to
the wrapped process about their results" (paper §5.1):

* ``chown(2)`` never reaches the kernel; the requested ownership goes into
  the lie database and success is returned.
* ``mknod(2)`` for devices creates a plain file and records the device
  metadata as a lie.
* ``stat(2)`` *does* reach the kernel, then the result is adjusted: lies are
  overlaid, and — the basic illusion — the invoking user's own IDs display
  as root.
* ``chmod(2)`` is tried for real first (mode bits usually work for files you
  own); EPERM is converted into a recorded lie.
* identity calls report UID/GID 0.

It deliberately does **not** intercept ``setuid``/``setgroups`` — which is
why apt-get's sandbox still has to be disabled separately even under
fakeroot (paper Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import Errno, KernelError, ReproError
from ..kernel import FileType, StatResult, Syscalls
from ..kernel.mounts import DirFd
from ..obs.trace import instrument_syscalls
from .state import Lie, LieDatabase

__all__ = ["EngineSpec", "FakerootError", "FakerootSyscalls"]


class FakerootError(ReproError):
    """The wrapper itself failed to start or operate."""


@dataclass(frozen=True)
class EngineSpec:
    """One fakeroot implementation's characteristics (paper Table 1)."""

    name: str
    initial_release: str
    latest_version: str
    approach: str  # "LD_PRELOAD" or "ptrace"
    architectures: tuple[str, ...]  # ("any",) or explicit ISA list
    daemon: bool
    persistency: str  # "save/restore from file" or "database"
    intercepts_xattrs: bool = False

    @property
    def wraps_static_binaries(self) -> bool:
        """LD_PRELOAD implementations cannot wrap statically linked
        executables; ptrace(2) ones can (paper §5.1)."""
        return self.approach == "ptrace"

    def supports_arch(self, arch: str) -> bool:
        return "any" in self.architectures or arch in self.architectures

    def table_row(self) -> dict[str, str]:
        """Render as a Table 1 row."""
        return {
            "implementation": self.name,
            "initial release": self.initial_release,
            "latest version": self.latest_version,
            "approach": self.approach,
            "architectures": (
                "any" if "any" in self.architectures
                else ", ".join(self.architectures)
            ),
            "daemon?": "yes" if self.daemon else "no",
            "persistency": self.persistency,
        }


@instrument_syscalls("fakeroot")
class FakerootSyscalls(Syscalls):
    """A Syscalls proxy that fakes privileged operations.

    Parameters
    ----------
    inner:
        The real syscall interface of the wrapped process.
    engine:
        Which implementation's quirks to exhibit.
    db:
        Lie database (shared across invocations for persistent engines).
    """

    def __init__(self, inner: Syscalls, engine: EngineSpec,
                 db: Optional[LieDatabase] = None):
        if not engine.supports_arch(inner.kernel.arch):
            raise FakerootError(
                f"{engine.name}: architecture {inner.kernel.arch} not "
                f"supported (supports: {', '.join(engine.architectures)})"
            )
        super().__init__(inner.proc)
        self.inner = inner
        self.engine = engine
        self.db = db if db is not None else LieDatabase()

    def clone_for(self, proc):
        """Children inherit the wrapper (LD_PRELOAD env and traced
        children both propagate across fork), sharing the lie DB."""
        return type(self)(self.inner.clone_for(proc), self.engine, self.db)

    # -- helpers ---------------------------------------------------------------------

    def _key(self, path: str, *, follow: bool = True,
             dir_fd: Optional[DirFd] = None) -> tuple[int, int]:
        """The lie database key of what *path* names (beneath *dir_fd*
        when given), from the real stat."""
        st = self.inner.lstat(path, dir_fd=dir_fd) if not follow \
            else self.inner.stat(path, dir_fd=dir_fd)
        return st.st_dev, st.st_ino

    def _journal_touch(self, path: str, *, follow: bool = True,
                       dir_fd: Optional[DirFd] = None) -> None:
        """Record a lie mutation in the VFS change journal.  Lies change
        what this wrapper's stat/pack view reports for the inode even
        though no kernel write happened, so snapshot walkers must see the
        inode as dirty.  Resolved directly against the mount table — a
        syscall here would perturb the wrapped process's trace."""
        try:
            res = self.inner._resolve(path, follow=follow, dir_fd=dir_fd)
        except KernelError:
            return
        res.fs.touch(res.inode)

    def digest_view_key(self) -> tuple:
        """Fakeroot views are partitioned by engine, lie database, and the
        wrapped identity (the base illusion maps the invoker's IDs to
        root), never shared with the plain kernel view; composing the
        inner key keeps namespace ID display in the partition too."""
        return ("fakeroot", type(self).__name__, self.engine.name, self.db,
                self.inner.cred.euid,
                self.inner.cred.egid) + self.inner.digest_view_key()

    # -- identity: pretend to be root ---------------------------------------------------

    def getuid(self) -> int:
        return 0

    def geteuid(self) -> int:
        return 0

    def getgid(self) -> int:
        return 0

    def getegid(self) -> int:
        return 0

    # -- ownership lies ------------------------------------------------------------------

    def chown(self, path: str, uid: int, gid: int, *, follow: bool = True,
              dir_fd: Optional[DirFd] = None) -> None:
        """Fake success without ever issuing the real call."""
        dev, ino = self._key(path, follow=follow, dir_fd=dir_fd)
        self.db.record(dev, ino, Lie(
            uid=uid if uid != -1 else None,
            gid=gid if gid != -1 else None,
        ))
        self._journal_touch(path, follow=follow, dir_fd=dir_fd)

    def lchown(self, path: str, uid: int, gid: int) -> None:
        self.chown(path, uid, gid, follow=False)

    def chmod(self, path: str, mode: int, *,
              dir_fd: Optional[DirFd] = None) -> None:
        """Try the real chmod; record a lie when the kernel refuses, and
        always remember setuid/setgid bits (the kernel may silently strip
        them for foreign groups)."""
        try:
            self.inner.chmod(path, mode, dir_fd=dir_fd)
        except KernelError as err:
            if err.errno not in (Errno.EPERM, Errno.EACCES):
                raise
        dev, ino = self._key(path, dir_fd=dir_fd)
        self.db.record(dev, ino, Lie(mode=mode & 0o7777))
        self._journal_touch(path, dir_fd=dir_fd)

    def mknod(self, path: str, ftype: FileType, mode: int = 0o644,
              rdev: tuple[int, int] = (0, 0), *,
              dir_fd: Optional[DirFd] = None) -> None:
        """Device nodes become plain files plus a lie (paper Figure 7)."""
        if ftype in (FileType.CHR, FileType.BLK):
            self.inner.mknod(path, FileType.REG, mode, dir_fd=dir_fd)
            dev, ino = self._key(path, follow=False, dir_fd=dir_fd)
            self.db.record(dev, ino, Lie(uid=0, gid=0, ftype=ftype, rdev=rdev,
                                         mode=mode & 0o7777))
            self._journal_touch(path, follow=False, dir_fd=dir_fd)
        else:
            self.inner.mknod(path, ftype, mode, rdev, dir_fd=dir_fd)

    # -- xattr lies (engine-dependent; the package-coverage differentiator) --------------

    def setxattr(self, path: str, name: str, value: bytes, *,
                 dir_fd: Optional[DirFd] = None) -> None:
        if name.startswith(("security.", "trusted.")):
            if not self.engine.intercepts_xattrs:
                # classic fakeroot: pass through; the kernel will refuse
                self.inner.setxattr(path, name, value, dir_fd=dir_fd)
                return
            dev, ino = self._key(path, dir_fd=dir_fd)
            self.db.record(dev, ino, Lie(xattrs=((name, bytes(value)),)))
            self._journal_touch(path, dir_fd=dir_fd)
            return
        self.inner.setxattr(path, name, value, dir_fd=dir_fd)

    def getxattr(self, path: str, name: str) -> bytes:
        dev, ino = self._key(path)
        lie = self.db.get(dev, ino)
        if lie is not None:
            for lname, lvalue in lie.xattrs:
                if lname == name:
                    return lvalue
        return self.inner.getxattr(path, name)

    # -- stat overlay -------------------------------------------------------------------

    def _overlay(self, st: StatResult) -> StatResult:
        lie = self.db.get(st.st_dev, st.st_ino)
        uid, gid = st.st_uid, st.st_gid
        mode, ftype, rdev = st.st_mode, st.ftype, st.st_rdev
        # Base illusion: the invoking user's IDs display as root.
        me = self.inner.geteuid()
        mg = self.inner.getegid()
        if uid == me:
            uid = 0
        if gid == mg:
            gid = 0
        if lie is not None:
            if lie.uid is not None:
                uid = lie.uid
            if lie.gid is not None:
                gid = lie.gid
            if lie.ftype is not None:
                ftype = lie.ftype
            if lie.rdev is not None:
                rdev = lie.rdev
            if lie.mode is not None:
                mode = (mode & ~0o7777) | lie.mode
        return StatResult(
            st_ino=st.st_ino, st_dev=st.st_dev, st_mode=mode,
            st_nlink=st.st_nlink, st_uid=uid, st_gid=gid, st_size=st.st_size,
            st_rdev=rdev, st_mtime=st.st_mtime, ftype=ftype,
            kuid=st.kuid, kgid=st.kgid,
            st_gen=st.st_gen, st_tree_gen=st.st_tree_gen,
            exe_impl=st.exe_impl, exe_arch=st.exe_arch,
            exe_static=st.exe_static,
        )

    def stat(self, path: str, *, dir_fd: Optional[DirFd] = None
             ) -> StatResult:
        return self._overlay(self.inner.stat(path, dir_fd=dir_fd))

    def lstat(self, path: str, *, dir_fd: Optional[DirFd] = None
              ) -> StatResult:
        return self._overlay(self.inner.lstat(path, dir_fd=dir_fd))

    def ftype_at(self, path: str, *, dir_fd: Optional[DirFd] = None
                 ) -> Optional[FileType]:
        """Untraced :meth:`lstat` type: a faked device answers with its
        lie's, so an unpack replaces it (:meth:`unlink` forgets the lie)."""
        try:
            res = self._resolve(path, follow=False, dir_fd=dir_fd,
                                missing_ok=True)
        except KernelError:
            return None
        lie = res and self.db.get(res.fs.device_id, res.inode.ino)
        return lie.ftype if lie and lie.ftype else res and res.inode.ftype

    # -- db maintenance on unlink --------------------------------------------------------

    def unlink(self, path: str, *, dir_fd: Optional[DirFd] = None) -> None:
        try:
            st = self.inner.lstat(path, dir_fd=dir_fd)
        except KernelError:
            st = None
        self.inner.unlink(path, dir_fd=dir_fd)
        if st is not None and st.st_nlink <= 1:
            self.db.forget(st.st_dev, st.st_ino)

    # -- persistence (fakeroot -s / -i; pseudo's database) --------------------------------

    def _root_dev(self) -> int:
        # Read the mount table directly: a stat() here would perturb the
        # wrapped process's syscall trace.
        return self.inner.mnt_ns.mounts["/"].fs.device_id

    def save_state(self, path: str) -> None:
        """fakeroot -s: persist the lie database to *path* (inside the
        wrapped filesystem view).

        Device numbers are host-specific, so the root filesystem's device
        is stored as 0: saved databases are byte-identical across hosts
        for the common case of lies confined to one filesystem, which is
        what makes build-cache layer diffs portable.
        """
        root = self._root_dev()
        portable = LieDatabase()
        for (dev, ino), lie in self.db:
            portable.record(0 if dev == root else dev, ino, lie)
        self.inner.write_file(path, portable.dump())

    def load_state(self, path: str) -> None:
        """fakeroot -i: merge a previously saved database."""
        loaded = LieDatabase.load(self.inner.read_file(path))
        root = self._root_dev()
        by_device = {m.fs.device_id: m.fs
                     for m in self.inner.mnt_ns.mounts.values()}
        for (dev, ino), lie in loaded:
            dev = root if dev == 0 else dev
            self.db.record(dev, ino, lie)
            fs = by_device.get(dev)
            if fs is not None and ino in fs._inodes:
                fs.touch(fs.inode(ino))

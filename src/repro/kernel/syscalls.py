"""The system-call layer.

A :class:`Syscalls` instance is bound to one process and exposes the calls
the paper's analysis turns on, with faithful privilege/errno semantics:

* ``chown(2)``: needs CAP_CHOWN *in the caller's user namespace* **and** the
  inode's IDs mapped there (``capable_wrt_inode_uidgid``); target IDs that
  don't map raise EINVAL.  This is exactly why Figure 2's
  ``cpio: chown`` fails in a Type III container and succeeds in Type II.
* ``setgroups(2)``: EPERM in unprivileged user namespaces (Figure 3 line
  "setgroups 65534 failed ... (1: Operation not permitted)").
* ``setresuid(2)`` & friends: EINVAL (22) for IDs with no mapping (Figure 3
  line "seteuid 100 failed - seteuid (22: Invalid argument)").
* uid_map/gid_map writes: once-only, single-ID unless the writer holds
  CAP_SETUID/CAP_SETGID in the parent namespace, and the unprivileged
  gid_map path demands setgroups be denied first (§2.1.4).

The fakeroot implementations in :mod:`repro.fakeroot` interpose on this
class, which mirrors how the real tools interpose on libc/ptrace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..errors import Errno, KernelError
from ..obs.trace import instrument_syscalls
from .capabilities import Cap
from .idmap import IdMap, IdMapEntry
from .mounts import DirFd, MountFlags, Resolved, ResolvedParent, normpath
from .process import Process
from .userns import UserNamespace
from .vfs import (
    FileType,
    Filesystem,
    Inode,
    capable_wrt_inode,
    copy_tree,
    ids_mapped,
    may_access,
)

__all__ = ["Syscalls", "StatResult", "DirEntry"]


@dataclass(frozen=True)
class StatResult:
    """stat(2) result.  st_uid/st_gid are translated into the *caller's*
    user namespace (unmapped IDs show as the overflow IDs, i.e. nobody /
    nogroup — paper §2.1.1 case 3).  ``kuid``/``kgid`` expose the raw kernel
    IDs for tests and host-side tooling."""

    st_ino: int
    st_dev: int
    st_mode: int
    st_nlink: int
    st_uid: int
    st_gid: int
    st_size: int
    st_rdev: tuple[int, int]
    st_mtime: int
    ftype: FileType
    kuid: int
    kgid: int
    #: Change-journal generations (simulation-side statx extension): the
    #: inode's own last-mutation generation and, for directories, the
    #: newest generation anywhere in the subtree below it.
    st_gen: int = 0
    st_tree_gen: int = 0
    #: Executable simulation metadata, surfaced here so archivers get it
    #: from the stat they already issued instead of resolving the path a
    #: second time.
    exe_impl: Optional[str] = None
    exe_arch: str = "noarch"
    exe_static: bool = False


@dataclass(frozen=True)
class DirEntry:
    name: str
    ftype: FileType


@instrument_syscalls("kernel")
class Syscalls:
    """System calls as invoked by one process."""

    def __init__(self, proc: Process):
        self.proc = proc

    def clone_for(self, proc: Process) -> "Syscalls":
        """The syscall interface a forked child gets.  Wrappers that are
        inherited across fork (seccomp filters, LD_PRELOAD environments)
        override this to re-wrap the child."""
        return Syscalls(proc)

    # convenience accessors -----------------------------------------------------

    @property
    def cred(self):
        return self.proc.cred

    @property
    def kernel(self):
        return self.proc.kernel

    @property
    def mnt_ns(self):
        return self.proc.mnt_ns

    def _resolve(self, path: str, *, follow: bool = True,
                 dir_fd: Optional[DirFd] = None,
                 missing_ok: bool = False) -> Optional[Resolved]:
        """Walk *path* (beneath *dir_fd* when given).  With *missing_ok*,
        a plain name missing from *dir_fd* gives None instead of
        ENOENT."""
        if dir_fd is None:
            return self.mnt_ns.resolve(path, self.cred, follow=follow,
                                       cwd=self.proc.cwd)
        rp = self._in_dir(path, dir_fd)
        if rp is None:
            return self.mnt_ns.resolve(path, self.cred, follow=follow,
                                       at=dir_fd)
        res = self.mnt_ns.resolve_final(rp, self.cred, follow=follow)
        if res is None and not missing_ok:
            raise KernelError(Errno.ENOENT, f"{dir_fd.canon}/{path}")
        return res

    def _resolve_parent(self, path: str,
                        dir_fd: Optional[DirFd] = None) -> ResolvedParent:
        if dir_fd is None:
            return self.mnt_ns.resolve_parent(path, self.cred,
                                              cwd=self.proc.cwd)
        rp = self._in_dir(path, dir_fd)
        if rp is None:
            return self.mnt_ns.resolve_parent(path, self.cred, at=dir_fd)
        return rp

    def _in_dir(self, path: str, dir_fd: DirFd) -> Optional[ResolvedParent]:
        """Bring *dir_fd* up to date (:meth:`_reopen`); then, if *path* is
        one plain name, the parent state of its walk: the directory
        itself, no walk.  None when *path* needs a walk."""
        for fs, gen in dir_fd.gens:
            if fs.walk_gen != gen:
                self._reopen(dir_fd)
                break
        if not path or "/" in path or path == "." or path == "..":
            return None
        return ResolvedParent(dir_fd.mount, dir_fd.inode, path,
                              dir_fd.canon or "/", 0, dir_fd.root)

    def _reopen(self, fd: DirFd) -> None:
        """Walk *fd*'s path again (its base first), as a path-walk cache
        re-walks a stale entry: a directory chmod-ed, deleted or replaced
        since *fd* was opened is seen as the walk now sees it."""
        crossed: set[Filesystem] = set()
        base = fd.base
        if base is None:
            res = self.mnt_ns.resolve(fd.rel, self.cred, crossed=crossed)
        else:
            rp = self._in_dir(fd.rel, base)
            if rp is None:
                res = self.mnt_ns.resolve(fd.rel, self.cred, at=base,
                                          crossed=crossed)
            else:
                res = self.mnt_ns.resolve_final(rp, self.cred,
                                                crossed=crossed)
                if res is None:
                    raise KernelError(Errno.ENOENT,
                                      f"{base.canon}/{fd.rel}")
                crossed.add(res.fs)
        if not res.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, res.path)
        own = base.gens if base is not None else ()
        known = {fs for fs, _ in own}
        fd.mount, fd.inode = res.mount, res.inode
        fd.canon = "" if res.path == "/" else res.path
        fd.gens = own + tuple((fs, fs.walk_gen) for fs in crossed
                              if fs not in known)

    def open_dir(self, path: str, *,
                 dir_fd: Optional[DirFd] = None) -> DirFd:
        """``open(path, O_PATH | O_DIRECTORY)``: a handle on the directory
        at *path* that the ``dir_fd=`` forms of the path calls walk from
        (:class:`~repro.kernel.mounts.DirFd`).  Without *dir_fd* the
        handle is its own root: walks from it, and from every directory
        opened beneath it, stay inside it, as ``openat2(...,
        RESOLVE_IN_ROOT)`` keeps them.  Like :meth:`ftype_at`, one path
        walk (none for one plain name beneath *dir_fd*) and no traced
        syscall."""
        if dir_fd is None:
            rel = path if path.startswith("/") else \
                f"{self.proc.cwd.rstrip('/')}/{path}"
            fd = DirFd(None, None, "", path, None, rel)
        else:
            fd = DirFd(None, None, "", dir_fd.join(path), dir_fd, path)
        self._reopen(fd)
        return fd

    @staticmethod
    def _at(path: str, dir_fd: Optional[DirFd]) -> str:
        """*path* as a message names it: joined onto *dir_fd*'s path."""
        return path if dir_fd is None else dir_fd.join(path)

    def _check_writable_mount(self, res_mount, call: str = "") -> None:
        if res_mount.flags.read_only or res_mount.fs.features.read_only:
            raise KernelError(Errno.EROFS, res_mount.mountpoint, syscall=call)

    # -- identity ---------------------------------------------------------------

    def getuid(self) -> int:
        return self.cred.userns.uid_display(self.cred.ruid)

    def geteuid(self) -> int:
        return self.cred.userns.uid_display(self.cred.euid)

    def getgid(self) -> int:
        return self.cred.userns.gid_display(self.cred.rgid)

    def getegid(self) -> int:
        return self.cred.userns.gid_display(self.cred.egid)

    def getgroups(self) -> list[int]:
        ns = self.cred.userns
        return sorted(ns.gid_display(g) for g in self.cred.groups)

    def getpid(self) -> int:
        """PID as seen in the caller's PID namespace."""
        return self.proc.ns_pid

    def getppid(self) -> int:
        parent = self.kernel.processes.get(self.proc.ppid)
        if parent is None:
            return 0
        if self.proc.pid_ns is not None and \
                parent.pid_ns is not self.proc.pid_ns:
            return 0  # parent outside the namespace shows as 0
        return parent.ns_pid

    # -- set*id family ------------------------------------------------------------

    def _uid_to_kernel(self, ns_uid: int, call: str) -> int:
        kuid = self.cred.userns.uid_to_host(ns_uid)
        if kuid is None:
            raise KernelError(Errno.EINVAL,
                              f"uid {ns_uid} not mapped in user namespace",
                              syscall=call)
        return kuid

    def _gid_to_kernel(self, ns_gid: int, call: str) -> int:
        kgid = self.cred.userns.gid_to_host(ns_gid)
        if kgid is None:
            raise KernelError(Errno.EINVAL,
                              f"gid {ns_gid} not mapped in user namespace",
                              syscall=call)
        return kgid

    def setuid(self, uid: int) -> None:
        kuid = self._uid_to_kernel(uid, "setuid")
        c = self.cred
        if c.has_cap(Cap.SETUID):
            c.ruid = c.euid = c.suid = c.fsuid = kuid
        elif kuid in (c.ruid, c.suid):
            c.euid = c.fsuid = kuid
        else:
            raise KernelError(Errno.EPERM, syscall="setuid")

    def seteuid(self, euid: int) -> None:
        kuid = self._uid_to_kernel(euid, "seteuid")
        c = self.cred
        if c.has_cap(Cap.SETUID) or kuid in (c.ruid, c.euid, c.suid):
            c.euid = c.fsuid = kuid
        else:
            raise KernelError(Errno.EPERM, syscall="seteuid")

    def setreuid(self, ruid: int, euid: int) -> None:
        # Same semantics as setresuid(ruid, euid, -1), but reported under
        # its own name — a failing transcript must say "setreuid", not the
        # syscall it happens to share code with.
        c = self.cred
        new = {}
        for label, val in (("ruid", ruid), ("euid", euid)):
            if val == -1:
                continue
            new[label] = self._uid_to_kernel(val, "setreuid")
        if not c.has_cap(Cap.SETUID):
            allowed = {c.ruid, c.euid, c.suid}
            for v in new.values():
                if v not in allowed:
                    raise KernelError(Errno.EPERM, syscall="setreuid")
        c.ruid = new.get("ruid", c.ruid)
        c.euid = new.get("euid", c.euid)
        c.fsuid = c.euid

    def setresuid(self, ruid: int, euid: int, suid: int) -> None:
        c = self.cred
        new = {}
        for label, val in (("ruid", ruid), ("euid", euid), ("suid", suid)):
            if val == -1:
                continue
            new[label] = self._uid_to_kernel(val, "setresuid")
        if not c.has_cap(Cap.SETUID):
            allowed = {c.ruid, c.euid, c.suid}
            for v in new.values():
                if v not in allowed:
                    raise KernelError(Errno.EPERM, syscall="setresuid")
        c.ruid = new.get("ruid", c.ruid)
        c.euid = new.get("euid", c.euid)
        c.suid = new.get("suid", c.suid)
        c.fsuid = c.euid

    def setgid(self, gid: int) -> None:
        kgid = self._gid_to_kernel(gid, "setgid")
        c = self.cred
        if c.has_cap(Cap.SETGID):
            c.rgid = c.egid = c.sgid = c.fsgid = kgid
        elif kgid in (c.rgid, c.sgid):
            c.egid = c.fsgid = kgid
        else:
            raise KernelError(Errno.EPERM, syscall="setgid")

    def setegid(self, egid: int) -> None:
        kgid = self._gid_to_kernel(egid, "setegid")
        c = self.cred
        if c.has_cap(Cap.SETGID) or kgid in (c.rgid, c.egid, c.sgid):
            c.egid = c.fsgid = kgid
        else:
            raise KernelError(Errno.EPERM, syscall="setegid")

    def setresgid(self, rgid: int, egid: int, sgid: int) -> None:
        c = self.cred
        new = {}
        for label, val in (("rgid", rgid), ("egid", egid), ("sgid", sgid)):
            if val == -1:
                continue
            new[label] = self._gid_to_kernel(val, "setresgid")
        if not c.has_cap(Cap.SETGID):
            allowed = {c.rgid, c.egid, c.sgid}
            for v in new.values():
                if v not in allowed:
                    raise KernelError(Errno.EPERM, syscall="setresgid")
        c.rgid = new.get("rgid", c.rgid)
        c.egid = new.get("egid", c.egid)
        c.sgid = new.get("sgid", c.sgid)
        c.fsgid = c.egid

    def setgroups(self, groups: Sequence[int]) -> None:
        """setgroups(2), with the user-namespace gate of paper §2.1.4.

        In a user namespace setgroups(2) is permitted only if the namespace's
        /proc/<pid>/setgroups file says "allow" (impossible for namespaces
        whose gid_map was installed unprivileged) and the caller holds
        CAP_SETGID in it.
        """
        c = self.cred
        ns = c.userns
        if not ns.is_initial and ns.setgroups != "allow":
            raise KernelError(Errno.EPERM,
                              "setgroups disabled in this user namespace",
                              syscall="setgroups")
        if not c.has_cap(Cap.SETGID):
            raise KernelError(Errno.EPERM, syscall="setgroups")
        kgids = frozenset(self._gid_to_kernel(g, "setgroups") for g in groups)
        c.groups = kgids

    # -- capabilities -------------------------------------------------------------

    def has_cap(self, cap: Cap, target_ns: Optional[UserNamespace] = None) -> bool:
        return self.cred.has_cap(cap, target_ns)

    def drop_caps(self) -> None:
        self.cred.caps = frozenset()

    # -- namespaces ----------------------------------------------------------------

    def unshare_user(self) -> UserNamespace:
        """unshare(CLONE_NEWUSER): enter a fresh user namespace.

        Available to *unprivileged* processes (this is the foundation of
        Type III containers); the caller gets all capabilities in the new
        namespace, whose UID/GID maps start empty.
        """
        ns = self.kernel.create_userns(
            self.cred.userns, self.cred.euid, self.cred.egid
        )
        self.cred.enter_userns(ns, full_caps=True)
        return ns

    def unshare_mount(self) -> None:
        """unshare(CLONE_NEWNS): private copy of the mount table."""
        self.proc.mnt_ns = self.proc.mnt_ns.clone()

    def unshare_uts(self) -> None:
        """unshare(CLONE_NEWUTS): private hostname, owned by the caller's
        user namespace (so container root may sethostname)."""
        if not self.cred.has_cap(Cap.SYS_ADMIN):
            raise KernelError(Errno.EPERM, syscall="unshare")
        from .process import UtsNamespace
        self.proc.uts = UtsNamespace(self.gethostname(), self.cred.userns)

    def gethostname(self) -> str:
        if self.proc.uts is not None:
            return self.proc.uts.hostname
        return self.kernel.hostname

    def sethostname(self, name: str) -> None:
        """sethostname(2): CAP_SYS_ADMIN in the UTS namespace's owner."""
        if len(name) > 64:
            raise KernelError(Errno.EINVAL, syscall="sethostname")
        uts = self.proc.uts
        owner = uts.owning_userns if uts is not None \
            else self.kernel.init_userns
        if not self.cred.has_cap(Cap.SYS_ADMIN, owner):
            raise KernelError(Errno.EPERM, syscall="sethostname")
        if uts is not None:
            uts.hostname = name
        else:
            self.kernel.hostname = name

    def deny_setgroups(self, target: Optional[Process] = None) -> None:
        """Write "deny" to /proc/<pid>/setgroups."""
        tgt = target or self.proc
        tgt.cred.userns.deny_setgroups()

    def write_uid_map(
        self,
        entries: Iterable[IdMapEntry],
        target: Optional[Process] = None,
    ) -> None:
        """Write /proc/<pid>/uid_map.

        Privileged multi-range writes require CAP_SETUID in the target
        namespace's *parent* (what setcap'd newuidmap(1) has); otherwise the
        unprivileged single-ID rule applies.
        """
        tgt = target or self.proc
        ns = tgt.cred.userns
        if ns.parent is None:
            raise KernelError(Errno.EPERM, "cannot write initial ns uid_map",
                              syscall="write_uid_map")
        privileged = self.cred.has_cap(Cap.SETUID, ns.parent)
        ents = list(entries)
        if not privileged and self._is_autosub_grant(ents, self.cred.euid):
            privileged = True  # §6.2.4: kernel-granted unique range
        ns.set_uid_map(IdMap(ents), writer_euid=self.cred.euid,
                       writer_privileged=privileged)

    def write_gid_map(
        self,
        entries: Iterable[IdMapEntry],
        target: Optional[Process] = None,
    ) -> None:
        tgt = target or self.proc
        ns = tgt.cred.userns
        if ns.parent is None:
            raise KernelError(Errno.EPERM, "cannot write initial ns gid_map",
                              syscall="write_gid_map")
        privileged = self.cred.has_cap(Cap.SETGID, ns.parent)
        ents = list(entries)
        if (not privileged
                and self._is_autosub_grant(ents, self.cred.egid,
                                           range_uid=self.cred.euid)
                and ns.setgroups == "deny"):
            # §6.2.4 kernel grant — but only with setgroups already denied,
            # to keep the §2.1.4 group-drop attack closed
            privileged = True
        ns.set_gid_map(IdMap(ents), writer_egid=self.cred.egid,
                       writer_privileged=privileged)

    def _is_autosub_grant(self, entries: list[IdMapEntry], own_id: int,
                          *, range_uid: Optional[int] = None) -> bool:
        """The §6.2.4 policy: 'host UID maps to container root and
        guaranteed-unique host UIDs map to all other container UIDs'.

        Accepted shape when ``user.autosub_userns`` is enabled: exactly two
        entries — the caller's own ID at inside 0, plus the caller's
        kernel-derived unique range at inside 1.
        """
        if not self.kernel.sysctl.get("user.autosub_userns"):
            return False
        if len(entries) != 2:
            return False
        start, count = self.kernel.autosub_range(
            self.cred.euid if range_uid is None else range_uid)
        own, sub = entries
        return (
            own.inside_start == 0 and own.count == 1
            and own.outside_start == own_id
            and sub.inside_start == 1 and sub.count == count
            and sub.outside_start == start
        )

    def setup_auto_userns(self) -> UserNamespace:
        """The full §6.2.4 dance: an unprivileged process gets a Type II
        quality map with *no helper tools at all* — the kernel policy
        guarantees uniqueness of the subordinate range."""
        uid, gid = self.cred.euid, self.cred.egid
        start, count = self.kernel.autosub_range(uid)
        ns = self.unshare_user()
        self.write_uid_map([IdMapEntry(0, uid, 1),
                            IdMapEntry(1, start, count)])
        self.deny_setgroups()
        self.write_gid_map([IdMapEntry(0, gid, 1),
                            IdMapEntry(1, start, count)])
        return ns

    def setup_single_id_userns(self, *, inside_uid: int = 0,
                               inside_gid: int = 0) -> UserNamespace:
        """The full Type III dance: unshare + deny setgroups + single-ID maps.

        Maps the invoking user's (only) IDs to ``inside_uid``/``inside_gid``
        (paper §2.1.3: "the process has precisely the same access within the
        container as on the host").
        """
        outside_uid = self.cred.euid
        outside_gid = self.cred.egid
        ns = self.unshare_user()
        self.write_uid_map([IdMapEntry(inside_uid, outside_uid, 1)])
        self.deny_setgroups()
        self.write_gid_map([IdMapEntry(inside_gid, outside_gid, 1)])
        return ns

    # -- mounts ----------------------------------------------------------------------

    def _require_mount_cap(self, call: str = "mount") -> None:
        if not self.cred.has_cap(Cap.SYS_ADMIN):
            raise KernelError(Errno.EPERM, f"{call} requires CAP_SYS_ADMIN",
                              syscall=call)

    def mount_fs(self, fs: Filesystem, mountpoint: str,
                 flags: MountFlags = MountFlags()) -> None:
        """Mount *fs* at *mountpoint* (tmpfs/proc-style FS_USERNS_MOUNT)."""
        self._require_mount_cap()
        self._resolve(mountpoint)  # must exist
        self.mnt_ns.add_mount(mountpoint, fs, flags=flags,
                              owning_userns=self.cred.userns)

    def bind_mount(self, source: str, mountpoint: str,
                   flags: MountFlags = MountFlags()) -> None:
        self._require_mount_cap()
        src = self._resolve(source)
        self._resolve(mountpoint)
        self.mnt_ns.add_mount(mountpoint, src.fs, root_ino=src.inode.ino,
                              flags=flags, owning_userns=self.cred.userns)

    def pivot_to(self, source: str) -> None:
        """Make *source* the root of this process's mount namespace
        (the essence of ch-run's container entry)."""
        self._require_mount_cap("pivot_root")
        src = self._resolve(source)
        if not src.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, source, syscall="pivot_root")
        self.mnt_ns.set_root(src.fs, src.inode.ino,
                             owning_userns=self.cred.userns)
        self.proc.cwd = "/"

    def mount_image(self, fs: Filesystem) -> None:
        """Mount the image filesystem *fs* read-only and make it the root
        of this process's mount namespace: squashfuse plus pivot_root,
        how ch-run and unprivileged Singularity enter a single-file
        image instead of an unpacked tree."""
        self._require_mount_cap("mount")
        self.mnt_ns.set_root(fs, owning_userns=self.cred.userns,
                             flags=MountFlags(read_only=True))
        self.proc.cwd = "/"

    def umount(self, mountpoint: str) -> None:
        self._require_mount_cap("umount")
        self.mnt_ns.remove_mount(mountpoint)

    # -- cwd -------------------------------------------------------------------------

    def chdir(self, path: str) -> None:
        res = self._resolve(path)
        if not res.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path, syscall="chdir")
        if not may_access(self.cred, res.inode, execute=True):
            raise KernelError(Errno.EACCES, path, syscall="chdir")
        self.proc.cwd = res.path

    def getcwd(self) -> str:
        return self.proc.cwd

    def umask(self, new: int) -> int:
        old = self.proc.umask
        self.proc.umask = new & 0o777
        return old

    # -- metadata ----------------------------------------------------------------------

    def _stat_of(self, res: Resolved) -> StatResult:
        node = res.inode
        ns = self.cred.userns
        return StatResult(
            st_ino=node.ino,
            st_dev=res.fs.device_id,
            st_mode=node.st_mode,
            st_nlink=node.nlink,
            st_uid=ns.uid_display(node.uid),
            st_gid=ns.gid_display(node.gid),
            st_size=node.size,
            st_rdev=node.rdev,
            st_mtime=node.mtime,
            ftype=node.ftype,
            kuid=node.uid,
            kgid=node.gid,
            st_gen=node.gen,
            st_tree_gen=node.tree_gen,
            exe_impl=node.exe_impl,
            exe_arch=node.exe_arch,
            exe_static=node.exe_static,
        )

    def digest_view_key(self) -> tuple:
        """Identity of this interface's *view* of file metadata, used to
        partition the member-digest memo: two interfaces may share cached
        digests only if they would stat identical results for the same
        (device, inode, generation).  Wrappers that lie about metadata
        (fakeroot) override this with their lie-database identity.

        The uid/gid map entries are part of the key: ID *display* depends
        on them, and a map written after a walk must invalidate the view."""
        ns = self.cred.userns
        return ("kernel", ns,
                ns.uid_map.entries if ns.uid_map is not None else None,
                ns.gid_map.entries if ns.gid_map is not None else None)

    def stat(self, path: str, *, dir_fd: Optional[DirFd] = None
             ) -> StatResult:
        return self._stat_of(self._resolve(path, dir_fd=dir_fd))

    def lstat(self, path: str, *, dir_fd: Optional[DirFd] = None
              ) -> StatResult:
        return self._stat_of(self._resolve(path, follow=False,
                                           dir_fd=dir_fd))

    def exists(self, path: str) -> bool:
        return self.ftype_at(path) is not None

    def ftype_at(self, path: str, *, dir_fd: Optional[DirFd] = None
                 ) -> Optional[FileType]:
        """The type of what *path* names, a final symlink not followed
        (an lstat's ``ftype``), or None when nothing is there.  Like
        :meth:`exists`, one path walk and no traced syscall."""
        try:
            res = self._resolve(path, follow=False, dir_fd=dir_fd,
                                missing_ok=True)
        except KernelError:
            return None
        return None if res is None else res.inode.ftype

    def access(self, path: str, *, read: bool = False, write: bool = False,
               execute: bool = False) -> bool:
        try:
            res = self._resolve(path)
        except KernelError:
            return False
        return may_access(self.cred, res.inode, read=read, write=write,
                          execute=execute)

    def readlink(self, path: str) -> str:
        res = self._resolve(path, follow=False)
        if res.inode.ftype is not FileType.SYMLINK:
            raise KernelError(Errno.EINVAL, path, syscall="readlink")
        return res.inode.target

    def readdir(self, path: str, *, dir_fd: Optional[DirFd] = None
                ) -> list[DirEntry]:
        res = self._resolve(path, dir_fd=dir_fd)
        path = self._at(path, dir_fd)
        if not res.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path, syscall="readdir")
        if not may_access(self.cred, res.inode, read=True):
            raise KernelError(Errno.EACCES, path, syscall="readdir")
        out = []
        for name in sorted(res.inode.entries):
            child = res.fs.inode(res.inode.entries[name])
            out.append(DirEntry(name, child.ftype))
        return out

    # -- creation -----------------------------------------------------------------------

    def _prep_create(self, path: str, call: str,
                     dir_fd: Optional[DirFd] = None) -> ResolvedParent:
        rp = self._resolve_parent(path, dir_fd)
        self._may_create(rp, self._at(path, dir_fd), call)
        return rp

    def _may_create(self, rp, path: str, call: str) -> None:
        """The checks for creating *rp*'s final name: a writable mount,
        write and search permission on the directory, no entry yet."""
        self._check_writable_mount(rp.mount, call)
        if not may_access(self.cred, rp.dir_inode, write=True, execute=True):
            raise KernelError(Errno.EACCES, path, syscall=call)
        if rp.fs.lookup(rp.dir_inode, rp.name) is not None:
            raise KernelError(Errno.EEXIST, path, syscall=call)

    def _new_ids(self, parent_dir: Inode) -> tuple[int, int, bool]:
        """(uid, gid, inherit_sgid) for a new inode, honouring setgid dirs."""
        uid = self.cred.fsuid
        if parent_dir.mode & 0o2000:  # setgid directory
            return uid, parent_dir.gid, True
        return uid, self.cred.fsgid, False

    def mkdir(self, path: str, mode: int = 0o777, *,
              dir_fd: Optional[DirFd] = None) -> None:
        rp = self._prep_create(path, "mkdir", dir_fd)
        uid, gid, sgid = self._new_ids(rp.dir_inode)
        eff = mode & ~self.proc.umask & 0o777
        if sgid:
            eff |= 0o2000
        node = rp.fs.alloc(FileType.DIR, eff, uid, gid, now=self.kernel.now())
        rp.fs.link_child(rp.dir_inode, rp.name, node)

    def mkdir_p(self, path: str, mode: int = 0o777) -> None:
        """mkdir -p convenience (not a real syscall, but constantly needed)."""
        if not path.startswith("/"):
            path = self.proc.cwd.rstrip("/") + "/" + path
        parts = [c for c in normpath(path).split("/") if c]
        cur = ""
        for part in parts:
            cur += "/" + part
            if not self.exists(cur):
                self.mkdir(cur, mode)

    def rm_tree(self, path: str) -> None:
        """rm -r convenience (not a real syscall): depth first, an lstat
        per entry, readdir and rmdir per directory, unlink per other
        entry."""
        if self.lstat(path).ftype is FileType.DIR:
            for entry in self.readdir(path):
                self.rm_tree(f"{path}/{entry.name}")
            self.rmdir(path)
        else:
            self.unlink(path)

    def mknod(self, path: str, ftype: FileType, mode: int = 0o644,
              rdev: tuple[int, int] = (0, 0), *,
              dir_fd: Optional[DirFd] = None) -> None:
        """mknod(2).  Device nodes require CAP_MKNOD in the *initial* user
        namespace — a container root cannot create them, which is exactly the
        operation fakeroot(1) fakes in Figure 7."""
        if ftype in (FileType.CHR, FileType.BLK):
            if not (self.cred.userns.is_initial and self.cred.has_cap(Cap.MKNOD)):
                raise KernelError(Errno.EPERM, self._at(path, dir_fd),
                                  syscall="mknod")
        elif ftype not in (FileType.REG, FileType.FIFO, FileType.SOCK):
            raise KernelError(Errno.EINVAL, self._at(path, dir_fd),
                              syscall="mknod")
        rp = self._prep_create(path, "mknod", dir_fd)
        uid, gid, _ = self._new_ids(rp.dir_inode)
        eff = mode & ~self.proc.umask & 0o777
        node = rp.fs.alloc(ftype, eff, uid, gid, now=self.kernel.now(), rdev=rdev)
        rp.fs.link_child(rp.dir_inode, rp.name, node)

    def symlink(self, target: str, path: str, *,
                dir_fd: Optional[DirFd] = None) -> None:
        rp = self._prep_create(path, "symlink", dir_fd)
        uid, gid, _ = self._new_ids(rp.dir_inode)
        node = rp.fs.alloc(FileType.SYMLINK, 0o777, uid, gid,
                           now=self.kernel.now(), target=target)
        rp.fs.link_child(rp.dir_inode, rp.name, node)

    def link(self, existing: str, path: str) -> None:
        src = self._resolve(existing, follow=False)
        if src.inode.is_dir:
            raise KernelError(Errno.EPERM, existing, syscall="link")
        rp = self._prep_create(path, "link")
        if rp.fs is not src.fs:
            raise KernelError(Errno.EXDEV, path, syscall="link")
        rp.fs.link_child(rp.dir_inode, rp.name, src.inode)

    # -- file I/O ---------------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        res = self._resolve(path)
        node = res.inode
        if node.is_dir:
            raise KernelError(Errno.EISDIR, path, syscall="open")
        if not may_access(self.cred, node, read=True):
            raise KernelError(Errno.EACCES, path, syscall="open")
        if node.ftype is FileType.CHR:
            return b""  # /dev/null & friends read empty
        return bytes(node.data)

    def write_file(self, path: str, data: bytes, *, append: bool = False,
                   mode: int = 0o666, follow: bool = True,
                   exe: Optional[tuple[Optional[str], str, bool]] = None,
                   dir_fd: Optional[DirFd] = None) -> None:
        """open(O_WRONLY|O_CREAT[|O_APPEND|O_TRUNC][|O_NOFOLLOW]) + write
        + close.

        The path is walked once: its parent directory (through the
        dentry cache), then the final name from there.  ``follow=False``
        is O_NOFOLLOW: a final symlink fails with ELOOP.  A FIFO or socket
        fails with ENXIO, as a non-blocking open with no reader does.
        *exe*, an ``(impl, arch, static)`` triple, stamps the written file's
        executable metadata (see :class:`~repro.kernel.vfs.Inode`)."""
        if isinstance(data, str):  # tolerate text for userland convenience
            data = data.encode()
        try:
            rp = self._resolve_parent(path, dir_fd)
        except KernelError as err:
            if err.errno is not Errno.EBUSY:
                raise
            raise KernelError(Errno.EISDIR, self._at(path, dir_fd),
                              syscall="open") from None
        path = self._at(path, dir_fd)
        try:
            res = self.mnt_ns.resolve_final(rp, self.cred, follow=follow)
        except KernelError as err:
            if err.errno is not Errno.ENOENT:
                raise
            # a dangling final symlink: O_CREAT fails on the link
            # itself (EROFS, EACCES, else EEXIST)
            self._may_create(rp, path, "open")
            raise
        if res is None:
            self._may_create(rp, path, "open")
            uid, gid, _ = self._new_ids(rp.dir_inode)
            eff = mode & ~self.proc.umask & 0o777
            node = rp.fs.alloc(FileType.REG, eff, uid, gid,
                               now=self.kernel.now(), data=bytes(data))
            if exe is not None:
                node.exe_impl, node.exe_arch, node.exe_static = exe
            rp.fs.link_child(rp.dir_inode, rp.name, node)
            return
        node = res.inode
        if node.ftype is FileType.SYMLINK:  # only reached with follow=False
            raise KernelError(Errno.ELOOP, path, syscall="open")
        if node.is_dir:
            raise KernelError(Errno.EISDIR, path, syscall="open")
        if node.ftype in (FileType.FIFO, FileType.SOCK):
            raise KernelError(Errno.ENXIO, path, syscall="open")
        self._check_writable_mount(res.mount, "open")
        if not may_access(self.cred, node, write=True):
            raise KernelError(Errno.EACCES, path, syscall="open")
        if node.ftype is FileType.CHR:
            return  # writes to devices vanish
        node.data = bytes(node.data) + bytes(data) if append else bytes(data)
        if exe is not None:
            node.exe_impl, node.exe_arch, node.exe_static = exe
        node.mtime = self.kernel.now()
        res.fs.touch(node)

    def truncate(self, path: str, length: int = 0) -> None:
        res = self._resolve(path)
        if res.inode.is_dir:
            raise KernelError(Errno.EISDIR, path, syscall="truncate")
        self._check_writable_mount(res.mount, "truncate")
        if not may_access(self.cred, res.inode, write=True):
            raise KernelError(Errno.EACCES, path, syscall="truncate")
        res.inode.data = bytes(res.inode.data[:length])
        res.fs.touch(res.inode)

    # -- removal / rename -----------------------------------------------------------------

    def _check_sticky(self, dir_inode: Inode, victim: Inode, path: str,
                      call: str) -> None:
        if dir_inode.mode & 0o1000:  # sticky directory (e.g. /tmp)
            c = self.cred
            if (
                c.fsuid != victim.uid
                and c.fsuid != dir_inode.uid
                and not capable_wrt_inode(c, victim, Cap.FOWNER)
            ):
                raise KernelError(Errno.EPERM, path, syscall=call)

    def unlink(self, path: str, *, dir_fd: Optional[DirFd] = None) -> None:
        rp = self._resolve_parent(path, dir_fd)
        path = self._at(path, dir_fd)
        self._check_writable_mount(rp.mount, "unlink")
        if not may_access(self.cred, rp.dir_inode, write=True, execute=True):
            raise KernelError(Errno.EACCES, path, syscall="unlink")
        victim = rp.fs.lookup(rp.dir_inode, rp.name)
        if victim is None:
            raise KernelError(Errno.ENOENT, path, syscall="unlink")
        if victim.is_dir:
            raise KernelError(Errno.EISDIR, path, syscall="unlink")
        self._check_sticky(rp.dir_inode, victim, path, "unlink")
        rp.fs.unlink_child(rp.dir_inode, rp.name)

    def rmdir(self, path: str, *, dir_fd: Optional[DirFd] = None) -> None:
        rp = self._resolve_parent(path, dir_fd)
        path = self._at(path, dir_fd)
        self._check_writable_mount(rp.mount, "rmdir")
        if not may_access(self.cred, rp.dir_inode, write=True, execute=True):
            raise KernelError(Errno.EACCES, path, syscall="rmdir")
        victim = rp.fs.lookup(rp.dir_inode, rp.name)
        if victim is None:
            raise KernelError(Errno.ENOENT, path, syscall="rmdir")
        if not victim.is_dir:
            raise KernelError(Errno.ENOTDIR, path, syscall="rmdir")
        if victim.entries:
            raise KernelError(Errno.ENOTEMPTY, path, syscall="rmdir")
        self._check_sticky(rp.dir_inode, victim, path, "rmdir")
        rp.fs.unlink_child(rp.dir_inode, rp.name)

    def rename(self, old: str, new: str) -> None:
        rp_old = self._resolve_parent(old)
        rp_new = self._resolve_parent(new)
        self._check_writable_mount(rp_old.mount, "rename")
        self._check_writable_mount(rp_new.mount, "rename")
        if rp_old.fs is not rp_new.fs:
            raise KernelError(Errno.EXDEV, new, syscall="rename")
        for rp in (rp_old, rp_new):
            if not may_access(self.cred, rp.dir_inode, write=True, execute=True):
                raise KernelError(Errno.EACCES, old, syscall="rename")
        victim = rp_old.fs.lookup(rp_old.dir_inode, rp_old.name)
        if victim is None:
            raise KernelError(Errno.ENOENT, old, syscall="rename")
        existing = rp_new.fs.lookup(rp_new.dir_inode, rp_new.name)
        if existing is victim:
            return  # the same entry, or two links to one inode: a no-op
        self._check_sticky(rp_old.dir_inode, victim, old, "rename")
        if victim.is_dir and rp_new.fs.is_within(rp_new.dir_inode, victim):
            raise KernelError(Errno.EINVAL, f"{new}: inside {old}",
                              syscall="rename")
        if existing is not None:
            if victim.is_dir and not existing.is_dir:
                raise KernelError(Errno.ENOTDIR, new, syscall="rename")
            if existing.is_dir and not victim.is_dir:
                raise KernelError(Errno.EISDIR, new, syscall="rename")
            if existing.is_dir and existing.entries:
                raise KernelError(Errno.ENOTEMPTY, new, syscall="rename")
            rp_new.fs.unlink_child(rp_new.dir_inode, rp_new.name)
        rp_old.fs.unlink_child(rp_old.dir_inode, rp_old.name)
        # unlink_child may have dropped nlink to 0; resurrect for re-link
        rp_new.fs._inodes[victim.ino] = victim
        victim.nlink = max(victim.nlink, 0)
        rp_new.fs.link_child(rp_new.dir_inode, rp_new.name, victim)

    def clone_tree(self, src: str, dst: str) -> None:
        """Clone the directory tree at *src* to *dst*, preserving all
        metadata, in one call — the reflink / overlayfs lower-dir sharing
        fast path caching builders use to materialize FROM.  Data blocks
        are shared, so the cost is O(1) in syscalls rather than O(files)
        of a userspace copy; like reflinks, it cannot cross filesystems.
        The whole copy is one journal generation plus the touch linking
        it in (:func:`~repro.kernel.vfs.copy_tree`), whatever its size."""
        res = self._resolve(src)
        if not res.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, src, syscall="clone_tree")
        if not may_access(self.cred, res.inode, read=True, execute=True):
            raise KernelError(Errno.EACCES, src, syscall="clone_tree")
        rp = self._prep_create(dst, "clone_tree")
        if rp.fs is not res.fs:
            raise KernelError(Errno.EXDEV, dst, syscall="clone_tree")
        copy_tree(res.fs, res.inode.ino, rp.fs, rp.dir_inode.ino, rp.name,
                  now=self.kernel.now())

    # -- ownership & permissions (the heart of the paper) ----------------------------------

    def chown(self, path: str, uid: int, gid: int, *, follow: bool = True,
              dir_fd: Optional[DirFd] = None) -> None:
        """chown(2)/lchown(2).  *uid*/*gid* are namespace-relative; -1 means
        "leave unchanged".

        Failure modes reproduced from the paper:

        * target ID unmapped in the caller's namespace → EINVAL (the
          Type III ``cpio: chown`` failure of Figure 2);
        * caller lacks CAP_CHOWN wrt the inode → EPERM;
        * NFS-style server-side ID enforcement → EPERM even for mapped IDs
          (§4.2: shared-filesystem container storage).
        """
        res = self._resolve(path, follow=follow, dir_fd=dir_fd)
        path = self._at(path, dir_fd)
        self._check_writable_mount(res.mount, "chown")
        node = res.inode
        c = self.cred
        ns = c.userns

        kuid: Optional[int] = None
        kgid: Optional[int] = None
        if uid != -1:
            kuid = ns.uid_to_host(uid)
            if kuid is None:
                raise KernelError(Errno.EINVAL,
                                  f"uid {uid} not mapped", syscall="chown")
        if gid != -1:
            kgid = ns.gid_to_host(gid)
            if kgid is None:
                raise KernelError(Errno.EINVAL,
                                  f"gid {gid} not mapped", syscall="chown")

        uid_changes = kuid is not None and kuid != node.uid
        gid_changes = kgid is not None and kgid != node.gid

        privileged = capable_wrt_inode(c, node, Cap.CHOWN)
        if not privileged:
            # Unprivileged rules: owner may "change" uid to itself (no-op)
            # and may chgrp to a group it belongs to.
            if c.fsuid != node.uid:
                raise KernelError(Errno.EPERM, path, syscall="chown")
            if uid_changes:
                raise KernelError(Errno.EPERM, path, syscall="chown")
            if gid_changes and not c.in_group(kgid):
                raise KernelError(Errno.EPERM, path, syscall="chown")

        if res.fs.features.remote_id_enforcement and (uid_changes or gid_changes):
            # The filesystem server cannot see client user namespaces; it
            # applies its own check against the caller's kernel IDs.
            if c.euid != 0:
                raise KernelError(
                    Errno.EPERM,
                    f"{path}: server rejected ownership change "
                    f"({res.fs.label} has no user-namespace knowledge)",
                    syscall="chown",
                )

        if node.is_dir and (uid_changes or gid_changes):
            res.fs.walk_gen += 1  # the owner gates search permission
        if kuid is not None:
            node.uid = kuid
        if kgid is not None:
            node.gid = kgid
        # POSIX: chown clears setuid/setgid unless the caller has CAP_FSETID.
        if (uid_changes or gid_changes) and not capable_wrt_inode(
            c, node, Cap.FSETID
        ):
            if node.ftype is FileType.REG:
                node.mode &= ~0o6000
        node.ctime = self.kernel.now()
        res.fs.touch(node)

    def lchown(self, path: str, uid: int, gid: int) -> None:
        self.chown(path, uid, gid, follow=False)

    def chmod(self, path: str, mode: int, *,
              dir_fd: Optional[DirFd] = None) -> None:
        res = self._resolve(path, dir_fd=dir_fd)
        path = self._at(path, dir_fd)
        self._check_writable_mount(res.mount, "chmod")
        node = res.inode
        c = self.cred
        if c.fsuid != node.uid and not capable_wrt_inode(c, node, Cap.FOWNER):
            raise KernelError(Errno.EPERM, path, syscall="chmod")
        eff = mode & 0o7777
        # Setting setgid on a file whose group you're not in silently drops it.
        if (
            eff & 0o2000
            and not node.is_dir
            and not c.in_group(node.gid)
            and not capable_wrt_inode(c, node, Cap.FSETID)
        ):
            eff &= ~0o2000
        if node.is_dir and node.mode != eff:
            res.fs.walk_gen += 1  # the mode gates search permission
        node.mode = eff
        node.ctime = self.kernel.now()
        res.fs.touch(node)

    # -- extended attributes ------------------------------------------------------------------

    def setxattr(self, path: str, name: str, value: bytes, *,
                 dir_fd: Optional[DirFd] = None) -> None:
        """setxattr(2).  ``user.*`` needs filesystem support (the
        fuse-overlayfs-on-NFS failure of §6.1); ``security.*``/``trusted.*``
        need privilege."""
        res = self._resolve(path, dir_fd=dir_fd)
        path = self._at(path, dir_fd)
        self._check_writable_mount(res.mount, "setxattr")
        node = res.inode
        c = self.cred
        if name.startswith("user."):
            if not res.fs.features.user_xattrs:
                raise KernelError(
                    Errno.ENOTSUP,
                    f"{res.fs.label} does not support user xattrs",
                    syscall="setxattr",
                )
            if node.ftype not in (FileType.REG, FileType.DIR):
                raise KernelError(Errno.EPERM, path, syscall="setxattr")
            if not may_access(c, node, write=True):
                raise KernelError(Errno.EACCES, path, syscall="setxattr")
        elif name.startswith("security.capability"):
            # File capabilities are checked against the *superblock's* user
            # namespace: a rootless container can set them only on
            # filesystems it owns (e.g. fuse-overlayfs), never on host
            # ext4 — which is why Type II + overlay installs file-caps
            # packages fine while Type III on a plain directory cannot.
            fs_ns = res.fs.owning_userns or self.kernel.init_userns
            if not (c.has_cap(Cap.SETFCAP, fs_ns) and ids_mapped(c, node)):
                raise KernelError(Errno.EPERM, path, syscall="setxattr")
        elif name.startswith("trusted."):
            if not (c.userns.is_initial and c.has_cap(Cap.SYS_ADMIN)):
                raise KernelError(Errno.EPERM, path, syscall="setxattr")
        node.xattrs[name] = bytes(value)
        res.fs.touch(node)

    def getxattr(self, path: str, name: str) -> bytes:
        res = self._resolve(path)
        if name.startswith("user.") and not res.fs.features.user_xattrs:
            raise KernelError(Errno.ENOTSUP, name, syscall="getxattr")
        try:
            return res.inode.xattrs[name]
        except KeyError:
            raise KernelError(Errno.ENODATA, name, syscall="getxattr")

    def listxattr(self, path: str) -> list[str]:
        res = self._resolve(path)
        return sorted(res.inode.xattrs)

    def removexattr(self, path: str, name: str) -> None:
        res = self._resolve(path)
        self._check_writable_mount(res.mount, "removexattr")
        if not may_access(self.cred, res.inode, write=True):
            raise KernelError(Errno.EACCES, path, syscall="removexattr")
        res.inode.xattrs.pop(name, None)
        res.fs.touch(res.inode)

    # -- exec support ------------------------------------------------------------------------

    def prepare_exec(self, path: str) -> tuple[Inode, Resolved]:
        """execve(2) front half: resolve, check x permission and ISA.

        Returns the inode so the userland executor can dispatch; raises
        ENOEXEC for foreign-architecture binaries (how an x86-64 image
        fails on Astra's aarch64 nodes)."""
        res = self._resolve(path)
        node = res.inode
        if node.is_dir:
            raise KernelError(Errno.EISDIR, path, syscall="execve")
        if node.ftype is not FileType.REG:
            raise KernelError(Errno.EACCES, path, syscall="execve")
        if not may_access(self.cred, node, execute=True):
            raise KernelError(Errno.EACCES, path, syscall="execve")
        if node.exe_arch not in ("noarch", self.kernel.arch):
            raise KernelError(
                Errno.ENOEXEC,
                f"{path}: built for {node.exe_arch}, node is {self.kernel.arch}",
                syscall="execve",
            )
        return node, res

"""Mount namespaces and path resolution.

A :class:`MountNamespace` is a table of mounts (mountpoint path → filesystem
subtree).  Containers get their own mount namespace whose root is a bind of
the image tree (paper §2.1: "the mount namespace gives a process its own
mounts and filesystem tree, allowing the container to run a different
distribution than the host").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import Errno, KernelError
from ..sim import opts as _opts
from .cred import Credentials
from .userns import UserNamespace
from .vfs import FileType, Filesystem, Inode, may_access

__all__ = ["MountFlags", "Mount", "MountNamespace", "Resolved", "normpath"]

_MAX_SYMLINKS = 40  # kernel ELOOP limit
#: Entries one namespace's dentry cache holds before it starts over.
_DENTRY_LIMIT = 4096


def normpath(path: str) -> str:
    """Normalize an absolute path: collapse //, /./, resolve lexical '..'."""
    if not path.startswith("/"):
        raise KernelError(Errno.EINVAL, f"path not absolute: {path!r}")
    out: list[str] = []
    for comp in path.split("/"):
        if comp in ("", "."):
            continue
        if comp == "..":
            if out:
                out.pop()
        else:
            out.append(comp)
    return "/" + "/".join(out)


@dataclass(frozen=True)
class MountFlags:
    """Per-mount flags."""

    read_only: bool = False
    nosuid: bool = False
    nodev: bool = False


@dataclass
class Mount:
    """One row of the mount table.

    ``root_ino`` permits bind mounts: the mount's root may be any directory
    of ``fs``, not just the filesystem root.
    """

    mountpoint: str
    fs: Filesystem
    root_ino: int
    flags: MountFlags = field(default_factory=MountFlags)
    owning_userns: Optional[UserNamespace] = None

    @property
    def effective_nosuid(self) -> bool:
        """Mounts created by non-initial user namespaces are implicitly nosuid."""
        if self.flags.nosuid:
            return True
        ns = self.owning_userns
        return ns is not None and not ns.is_initial


@dataclass(frozen=True)
class Resolved:
    """Result of a path walk."""

    mount: Mount
    inode: Inode
    path: str  # canonical (symlink-free) path

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs


@dataclass(frozen=True)
class ResolvedParent:
    """Result of resolving a path up to (but excluding) its final component."""

    mount: Mount
    dir_inode: Inode
    name: str
    dir_path: str
    links: int = 0  # symlinks followed on the way (the ELOOP budget)

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs


class MountNamespace:
    """A mount table plus the path-walking machinery."""

    def __init__(self, root_fs: Filesystem, *,
                 root_flags: MountFlags = MountFlags(),
                 owning_userns: Optional[UserNamespace] = None):
        self._dentries: dict[tuple, tuple] = {}
        self._mounts: dict[str, Mount] = {}
        self._mounts["/"] = Mount("/", root_fs, root_fs.root_ino, root_flags,
                                  owning_userns)

    # -- mount table manipulation -------------------------------------------------

    @property
    def mounts(self) -> dict[str, Mount]:
        return dict(self._mounts)

    def clone(self) -> "MountNamespace":
        """CLONE_NEWNS: a copy of the mount table (filesystems shared)."""
        dup = MountNamespace.__new__(MountNamespace)
        dup._dentries = {}
        dup._mounts = {
            p: Mount(m.mountpoint, m.fs, m.root_ino, m.flags, m.owning_userns)
            for p, m in self._mounts.items()
        }
        return dup

    def add_mount(
        self,
        mountpoint: str,
        fs: Filesystem,
        *,
        root_ino: int | None = None,
        flags: MountFlags = MountFlags(),
        owning_userns: Optional[UserNamespace] = None,
    ) -> Mount:
        mp = normpath(mountpoint)
        mount = Mount(mp, fs, fs.root_ino if root_ino is None else root_ino,
                      flags, owning_userns)
        self._mounts[mp] = mount
        self._dentries.clear()
        return mount

    def remove_mount(self, mountpoint: str) -> None:
        mp = normpath(mountpoint)
        if mp == "/":
            raise KernelError(Errno.EBUSY, "cannot unmount /")
        if mp not in self._mounts:
            raise KernelError(Errno.EINVAL, f"not a mountpoint: {mp}")
        del self._mounts[mp]
        self._dentries.clear()

    def set_root(self, fs: Filesystem, root_ino: int | None = None, *,
                 owning_userns: Optional[UserNamespace] = None,
                 flags: MountFlags = MountFlags()) -> None:
        """pivot_root-style: replace the root mount (container entry)."""
        self._mounts = {
            "/": Mount("/", fs, fs.root_ino if root_ino is None else root_ino,
                       flags, owning_userns)
        }
        self._dentries.clear()

    # -- path walking --------------------------------------------------------------

    def _rewalk(self, canon: str) -> tuple[Mount, Inode]:
        """Re-walk an already-canonical path, ``""`` being the root (no
        symlinks, no permission checks)."""
        mount = self._mounts["/"]
        inode = mount.fs.inode(mount.root_ino)
        cur = ""
        for name in canon.split("/")[1:]:
            cur = f"{cur}/{name}"
            m = self._mounts.get(cur)
            if m is not None:
                mount, inode = m, m.fs.inode(m.root_ino)
                continue
            child = mount.fs.lookup(inode, name)
            if child is None:
                raise KernelError(Errno.ENOENT, cur)
            inode = child
        return mount, inode

    def resolve(
        self,
        path: str,
        cred: Credentials,
        *,
        follow: bool = True,
        cwd: str = "/",
    ) -> Resolved:
        """Walk *path*, enforcing search permission, following symlinks.

        ``follow=False`` gives lstat-style behaviour for the final component.
        Relative paths are resolved against *cwd*.
        """
        mount, inode, canon = self._walk(path, cred, follow_final=follow, cwd=cwd)
        return Resolved(mount, inode, canon)

    def resolve_parent(
        self, path: str, cred: Credentials, *, cwd: str = "/"
    ) -> ResolvedParent:
        """Resolve everything but the final component (for create/unlink).

        The parent is walked physically, like :meth:`resolve`: ``..``
        after a symlink climbs from the symlink's target, not from the
        symlink.  A final ``..`` names the directory it leads to.
        """
        if not path.startswith("/"):
            path = cwd.rstrip("/") + "/" + path
        comps = [c for c in path.split("/") if c not in ("", ".")]
        if comps and comps[-1] == "..":
            canon = self._walk(path, cred, follow_final=True, cwd="/")[2]
            comps = canon.split("/")[1:] if canon != "/" else []
        if not comps:
            raise KernelError(Errno.EBUSY, "cannot operate on /")
        mount, dir_inode, canon, links = self._walk_prefix(comps, cred)
        if not dir_inode.is_dir:
            # the canonical name, as :meth:`resolve` reports it
            raise KernelError(Errno.ENOTDIR, canon or "/")
        return ResolvedParent(mount, dir_inode, comps[-1], canon or "/",
                              links)

    def resolve_final(
        self, rp: ResolvedParent, cred: Credentials, *, follow: bool = True
    ) -> Optional[Resolved]:
        """Finish the walk :meth:`resolve_parent` began: step to *rp*'s
        final name as :meth:`resolve` would, without walking the parent
        again.  None when the name is not in its directory; a final
        symlink whose target is missing still raises ENOENT."""
        walked = self._follow(
            [rp.name], cred, follow, rp.mount, rp.dir_inode,
            "" if rp.dir_path == "/" else rp.dir_path, rp.links,
            missing_ok=True)
        if walked is None:
            return None
        mount, inode, canon, _links = walked
        return Resolved(mount, inode, canon or "/")

    def _walk(
        self, path: str, cred: Credentials, *, follow_final: bool, cwd: str
    ) -> tuple[Mount, Inode, str]:
        """Walk *path*: the parent directory through the dentry cache
        (:meth:`_walk_prefix`), then the final component uncached.

        The cache sees the mutations syscalls make (the invalidation
        points listed on :meth:`_walk_prefix`).  Inode fields (``mode``,
        ``uid``, ``gid``, ``entries``, ``target``) and ID maps written
        directly, not through a syscall, are outside its contract: a walk
        may miss them until something else invalidates the entry.
        Credential fields may be written directly, since the key holds
        their values, not the :class:`Credentials` object.
        """
        if not path:
            raise KernelError(Errno.ENOENT, "empty path")
        if not path.startswith("/"):
            path = cwd.rstrip("/") + "/" + path
        comps = [c for c in path.split("/") if c not in ("", ".")]
        mount, inode, canon, links = self._walk_prefix(comps, cred)
        mount, inode, canon, links = self._follow(
            comps[-1:], cred, follow_final, mount, inode, canon, links)
        return mount, inode, canon or "/"

    def _walk_prefix(
        self, comps: list[str], cred: Credentials
    ) -> tuple[Mount, Inode, str, int]:
        """Walk every component of *comps* but the last, following symlinks.

        Returns ``(mount, inode, canon, links)``: the state the walk of the
        final component starts from, ``canon`` being the canonical path
        (``""`` for the root) and ``links`` the symlinks followed so far
        (the ELOOP budget carries over to the final step).

        With the engine fast paths on (:mod:`repro.sim.opts`), a path of
        two or more components and no ``..`` goes through the dentry
        cache.  Its key is the credential values :func:`may_access` reads
        plus the prefix; only walks that end on a directory are stored,
        each with the ``walk_gen`` of every filesystem it crossed.  An
        entry is used only while all those generations hold; the mount
        table methods drop the whole cache.  ``walk_gen`` moves on a
        directory's chmod/chown that changes its mode or owner and on
        the unlink of a directory or symlink (rmdir, unlink, rename), the
        mutations that can change a successful walk.  ID-map writes need
        no bump: a map is written once, so it can only add mapped IDs,
        which can only widen ``CAP_DAC_OVERRIDE``.  The reference engine
        runs the uncached loop; it is the oracle for the cache.
        """
        key = None
        if _opts.ENABLED and len(comps) > 1 and ".." not in comps:
            key = (cred.fsuid, cred.fsgid, cred.groups, cred.caps,
                   cred.userns, *comps[:-1])
            entry = self._dentries.get(key)
            if entry is not None:
                for fs, gen in entry[4]:
                    if fs.walk_gen != gen:
                        break
                else:
                    return entry[:4]
        root = self._mounts["/"]
        crossed = {root.fs} if key is not None else None
        mount, inode, canon, links = self._follow(
            comps[-2::-1], cred, True, root, root.fs.inode(root.root_ino),
            "", 0, crossed)
        if key is not None and inode.is_dir:
            if len(self._dentries) >= _DENTRY_LIMIT:
                self._dentries.clear()
            self._dentries[key] = (
                mount, inode, canon, links,
                tuple((fs, fs.walk_gen) for fs in crossed))
        return mount, inode, canon, links

    def _follow(
        self, pending: list[str], cred: Credentials, follow_final: bool,
        mount: Mount, inode: Inode, canon: str, links: int,
        crossed: Optional[set[Filesystem]] = None, *,
        missing_ok: bool = False,
    ) -> Optional[tuple[Mount, Inode, str, int]]:
        """The per-component walk: pop names off the *pending* stack from
        the given state, checking search permission, mounts and symlinks.
        Filesystems the walk enters are added to *crossed*.  With
        *missing_ok*, a last pending name absent from its directory gives
        None, unless the walk reached it through a symlink."""
        while pending:
            name = pending.pop()
            if name == "..":
                if canon:
                    canon = canon[:canon.rindex("/")]
                    mount, inode = self._rewalk(canon)
                    if crossed is not None:
                        crossed.add(mount.fs)
                continue
            if not inode.is_dir:
                raise KernelError(Errno.ENOTDIR, canon or "/")
            candidate = f"{canon}/{name}"
            if not may_access(cred, inode, execute=True):
                raise KernelError(Errno.EACCES, candidate)
            m = self._mounts.get(candidate)
            if m is not None:
                mount, inode = m, m.fs.inode(m.root_ino)
                if crossed is not None:
                    crossed.add(m.fs)
                canon = candidate
                continue
            child = mount.fs.lookup(inode, name)
            if child is None:
                if missing_ok and not pending:
                    return None
                raise KernelError(Errno.ENOENT, candidate)
            if child.ftype is FileType.SYMLINK and (pending or follow_final):
                missing_ok = False
                links += 1
                if links > _MAX_SYMLINKS:
                    raise KernelError(Errno.ELOOP, candidate)
                target = child.target
                tcomps = [c for c in target.split("/") if c not in ("", ".")]
                pending.extend(reversed(tcomps))
                if target.startswith("/"):
                    canon = ""
                    mount = self._mounts["/"]
                    inode = mount.fs.inode(mount.root_ino)
                    if crossed is not None:
                        crossed.add(mount.fs)
                continue
            canon = candidate
            inode = child

        return mount, inode, canon, links

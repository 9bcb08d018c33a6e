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
from .cred import Credentials
from .userns import UserNamespace
from .vfs import FileType, Filesystem, Inode, may_access

__all__ = ["DirFd", "MountFlags", "Mount", "MountNamespace", "Resolved",
           "normpath"]

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


@dataclass(slots=True)
class Resolved:
    """Result of a path walk."""

    mount: Mount
    inode: Inode
    path: str  # canonical (symlink-free) path

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs


@dataclass(eq=False)
class DirFd:
    """An open directory, what ``open(path, O_PATH | O_DIRECTORY)``
    returns: the ``dir_fd`` of the ``*at`` forms of the syscalls.

    A path given relative to it is walked from it, never from ``/``, and
    the walk is confined to :attr:`root` the way ``openat2(...,
    RESOLVE_IN_ROOT)`` confines it: ``..`` stops at the root, and an
    absolute path or symlink target starts over at it.  A directory
    opened without a ``dir_fd`` is its own root; one opened beneath
    another shares that one's root.

    ``path`` is the name the opener gave it, relative names joined on
    (:meth:`join`): how traces and error messages show an ``*at`` call's
    path.  ``canon`` is its canonical path, ``""`` for ``/``.  *base*
    and *rel* say how it was reached (*rel* walked from *base*, or from
    ``/`` when *base* is None), and ``gens`` holds the ``walk_gen`` of
    every filesystem those walks crossed: while they all hold, walking
    *rel* again would reach the same directory with the same permission
    checks, and when one moves the syscalls walk it again.
    """

    mount: Mount
    inode: Inode
    canon: str
    path: str
    base: Optional["DirFd"]
    rel: str
    gens: tuple = ()
    root: Optional["DirFd"] = None  # set by __post_init__

    def __post_init__(self):
        if self.root is None:
            self.root = self.base.root if self.base is not None else self
        self._prefix = self.path.rstrip("/") + "/"

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs

    def join(self, name: str) -> str:
        """*name*, relative to this directory, as its opener would name
        it."""
        return self._prefix + name


@dataclass(slots=True)
class ResolvedParent:
    """Result of resolving a path up to (but excluding) its final component."""

    mount: Mount
    dir_inode: Inode
    name: str
    dir_path: str
    links: int = 0  # symlinks followed on the way (the ELOOP budget)
    root: Optional[DirFd] = None  # where the rest of the walk is confined

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs


class MountNamespace:
    """A mount table plus the path-walking machinery.

    *fast* chooses the cached path walk or the reference loop (see
    :meth:`_walk_prefix`); the kernel passes its own choice, and clones
    keep it."""

    def __init__(self, root_fs: Filesystem, *,
                 root_flags: MountFlags = MountFlags(),
                 owning_userns: Optional[UserNamespace] = None,
                 fast: bool = True):
        #: the dentry cache; None on a reference namespace
        self._dentries: Optional[dict[tuple, tuple]] = {} if fast else None
        self._mounts: dict[str, Mount] = {}
        self._mounts["/"] = Mount("/", root_fs, root_fs.root_ino, root_flags,
                                  owning_userns)

    # -- mount table manipulation -------------------------------------------------

    @property
    def mounts(self) -> dict[str, Mount]:
        return dict(self._mounts)

    def clone(self, *, fast: Optional[bool] = None) -> "MountNamespace":
        """CLONE_NEWNS: a copy of the mount table (filesystems shared),
        with this namespace's fast-or-reference choice unless *fast*
        gives one."""
        if fast is None:
            fast = self._dentries is not None
        dup = MountNamespace.__new__(MountNamespace)
        dup._dentries = {} if fast else None
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
        if self._dentries:
            self._dentries.clear()
        return mount

    def remove_mount(self, mountpoint: str) -> None:
        mp = normpath(mountpoint)
        if mp == "/":
            raise KernelError(Errno.EBUSY, "cannot unmount /")
        if mp not in self._mounts:
            raise KernelError(Errno.EINVAL, f"not a mountpoint: {mp}")
        del self._mounts[mp]
        if self._dentries:
            self._dentries.clear()

    def set_root(self, fs: Filesystem, root_ino: int | None = None, *,
                 owning_userns: Optional[UserNamespace] = None,
                 flags: MountFlags = MountFlags()) -> None:
        """pivot_root-style: replace the root mount (container entry)."""
        self._mounts = {
            "/": Mount("/", fs, fs.root_ino if root_ino is None else root_ino,
                       flags, owning_userns)
        }
        if self._dentries:
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
        at: Optional[DirFd] = None,
        crossed: Optional[set[Filesystem]] = None,
    ) -> Resolved:
        """Walk *path*, enforcing search permission, following symlinks.

        ``follow=False`` gives lstat-style behaviour for the final component.
        Relative paths are resolved against *cwd*; with *at*, *path* is
        walked beneath that directory instead (:class:`DirFd`), uncached.
        Filesystems the walk enters are added to *crossed*.
        """
        if at is not None:
            comps, start = self._beneath(path, at)
            mount, inode, canon, _ = self._follow(
                comps[::-1], cred, follow, *start, 0, crossed, root=at.root)
            return Resolved(mount, inode, canon or "/")
        mount, inode, canon = self._walk(path, cred, follow_final=follow,
                                         cwd=cwd, crossed=crossed)
        return Resolved(mount, inode, canon)

    def resolve_parent(
        self, path: str, cred: Credentials, *, cwd: str = "/",
        at: Optional[DirFd] = None,
    ) -> ResolvedParent:
        """Resolve everything but the final component (for create/unlink).

        The parent is walked physically, like :meth:`resolve`: ``..``
        after a symlink climbs from the symlink's target, not from the
        symlink.  A final ``..`` names the directory it leads to.  With
        *at*, the walk is confined beneath that directory, as for
        :meth:`resolve`.
        """
        if at is not None:
            return self._parent_beneath(path, cred, at)
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
        self, rp: ResolvedParent, cred: Credentials, *, follow: bool = True,
        crossed: Optional[set[Filesystem]] = None,
    ) -> Optional[Resolved]:
        """Finish the walk :meth:`resolve_parent` began: step to *rp*'s
        final name as :meth:`resolve` would, without walking the parent
        again.  None when the name is not in its directory; a final
        symlink whose target is missing still raises ENOENT."""
        name, inode = rp.name, rp.dir_inode
        if name != ".." and inode.is_dir:
            # the common step inline: a searchable directory, no mount
            # on the name, and no symlink to follow
            candidate = f"{'' if rp.dir_path == '/' else rp.dir_path}/{name}"
            if may_access(cred, inode, execute=True) \
                    and candidate not in self._mounts:
                child = rp.mount.fs.lookup(inode, name)
                if child is None:
                    return None
                if not follow or child.ftype is not FileType.SYMLINK:
                    return Resolved(rp.mount, child, candidate)
        walked = self._follow(
            [rp.name], cred, follow, rp.mount, rp.dir_inode,
            "" if rp.dir_path == "/" else rp.dir_path, rp.links, crossed,
            missing_ok=True, root=rp.root)
        if walked is None:
            return None
        mount, inode, canon, _links = walked
        return Resolved(mount, inode, canon or "/")

    @staticmethod
    def _beneath(path: str, at: DirFd) -> tuple[list[str], tuple]:
        """*path*'s components and the ``(mount, inode, canon)`` its walk
        beneath *at* starts from: *at*, or *at*'s root for an absolute
        path."""
        if not path:
            raise KernelError(Errno.ENOENT, "empty path")
        start = at.root if path.startswith("/") else at
        comps = [c for c in path.split("/") if c not in ("", ".")]
        return comps, (start.mount, start.inode, start.canon)

    def _parent_beneath(self, path: str, cred: Credentials,
                        at: DirFd) -> ResolvedParent:
        """:meth:`resolve_parent` for a *path* walked beneath *at*."""
        comps, start = self._beneath(path, at)
        root = at.root
        if comps and comps[-1] == "..":
            canon = self._follow(comps[::-1], cred, True, *start, 0,
                                 root=root)[2]
            comps = canon[len(root.canon):].split("/")[1:]
            start = (root.mount, root.inode, root.canon)
        if not comps:
            raise KernelError(Errno.EBUSY, "cannot operate on the root")
        mount, dir_inode, canon, links = self._follow(
            comps[-2::-1], cred, True, *start, 0, root=root)
        if not dir_inode.is_dir:
            raise KernelError(Errno.ENOTDIR, canon or "/")
        return ResolvedParent(mount, dir_inode, comps[-1], canon or "/",
                              links, root)

    def _walk(
        self, path: str, cred: Credentials, *, follow_final: bool, cwd: str,
        crossed: Optional[set[Filesystem]] = None,
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
        mount, inode, canon, links = self._walk_prefix(comps, cred, crossed)
        mount, inode, canon, links = self._follow(
            comps[-1:], cred, follow_final, mount, inode, canon, links,
            crossed)
        return mount, inode, canon or "/"

    def _walk_prefix(
        self, comps: list[str], cred: Credentials,
        crossed: Optional[set[Filesystem]] = None,
    ) -> tuple[Mount, Inode, str, int]:
        """Walk every component of *comps* but the last, following symlinks.

        Returns ``(mount, inode, canon, links)``: the state the walk of the
        final component starts from, ``canon`` being the canonical path
        (``""`` for the root) and ``links`` the symlinks followed so far
        (the ELOOP budget carries over to the final step).  Filesystems
        the walk enters (a cached one included) are added to *crossed*.

        On a fast namespace (the kernel's ``fast``), a path of
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
        which can only widen ``CAP_DAC_OVERRIDE``.  A reference namespace
        (``fast=False``) runs the uncached loop; it is the oracle for the
        cache.
        """
        dentries = self._dentries
        key = None
        if dentries is not None and len(comps) > 1 and ".." not in comps:
            key = (cred.fsuid, cred.fsgid, cred.groups, cred.caps,
                   cred.userns, *comps[:-1])
            entry = dentries.get(key)
            if entry is not None:
                for fs, gen in entry[4]:
                    if fs.walk_gen != gen:
                        break
                else:
                    if crossed is not None:
                        crossed.update(fs for fs, _ in entry[4])
                    return entry[:4]
        root = self._mounts["/"]
        seen = {root.fs} if key is not None or crossed is not None else None
        mount, inode, canon, links = self._follow(
            comps[-2::-1], cred, True, root, root.fs.inode(root.root_ino),
            "", 0, seen)
        if key is not None and inode.is_dir:
            if len(dentries) >= _DENTRY_LIMIT:
                dentries.clear()
            dentries[key] = (
                mount, inode, canon, links,
                tuple((fs, fs.walk_gen) for fs in seen))
        if crossed is not None:
            crossed |= seen
        return mount, inode, canon, links

    def _follow(
        self, pending: list[str], cred: Credentials, follow_final: bool,
        mount: Mount, inode: Inode, canon: str, links: int,
        crossed: Optional[set[Filesystem]] = None, *,
        missing_ok: bool = False, root: Optional[DirFd] = None,
    ) -> Optional[tuple[Mount, Inode, str, int]]:
        """The per-component walk: pop names off the *pending* stack from
        the given state, checking search permission, mounts and symlinks.
        Filesystems the walk enters are added to *crossed*.  With
        *missing_ok*, a last pending name absent from its directory gives
        None, unless the walk reached it through a symlink.  With *root*
        the walk is confined beneath it (:class:`DirFd`): ``..`` at the
        root stays there and an absolute symlink target restarts there."""
        top = "" if root is None else root.canon
        while pending:
            name = pending.pop()
            if name == "..":
                if canon != top:
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
                    if root is not None:
                        mount, inode, canon = root.mount, root.inode, top
                    else:
                        canon = ""
                        mount = self._mounts["/"]
                        inode = mount.fs.inode(mount.root_ino)
                    if crossed is not None:
                        crossed.add(mount.fs)
                continue
            canon = candidate
            inode = child

        return mount, inode, canon, links

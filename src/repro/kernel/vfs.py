"""Virtual filesystem: inodes, directories, permission evaluation.

Inodes store *kernel* UIDs/GIDs.  Permission evaluation follows UNIX
semantics exactly as the paper relies on in §2.1.4: the classes are checked
in the order user, group, other — and the **first match governs**, so a
group-deny (e.g. ``rwx---r-x``) can deny a group member something "other"
would be allowed.
"""

from __future__ import annotations

import enum
import itertools
import stat as _stat
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..errors import Errno, KernelError
from .capabilities import Cap
from .cred import Credentials
from .userns import UserNamespace

__all__ = [
    "FileType",
    "Inode",
    "Filesystem",
    "FsFeatures",
    "mode_to_string",
    "copy_tree",
]

_device_ids = itertools.count(1)


class FileType(enum.Enum):
    """Inode types."""

    REG = "regular file"
    DIR = "directory"
    SYMLINK = "symbolic link"
    CHR = "character device"
    BLK = "block device"
    FIFO = "fifo"
    SOCK = "socket"


_TYPE_CHAR = {
    FileType.REG: "-",
    FileType.DIR: "d",
    FileType.SYMLINK: "l",
    FileType.CHR: "c",
    FileType.BLK: "b",
    FileType.FIFO: "p",
    FileType.SOCK: "s",
}

_ST_MODE_BITS = {
    FileType.REG: _stat.S_IFREG,
    FileType.DIR: _stat.S_IFDIR,
    FileType.SYMLINK: _stat.S_IFLNK,
    FileType.CHR: _stat.S_IFCHR,
    FileType.BLK: _stat.S_IFBLK,
    FileType.FIFO: _stat.S_IFIFO,
    FileType.SOCK: _stat.S_IFSOCK,
}


def mode_to_string(ftype: FileType, mode: int) -> str:
    """Render a mode like ls -l: ``-rw-r--r--``, honouring suid/sgid/sticky."""
    chars = list(_TYPE_CHAR[ftype])
    for shift, (r, w, x) in ((6, "rwx"), (3, "rwx"), (0, "rwx")):
        bits = (mode >> shift) & 0o7
        chars.append(r if bits & 4 else "-")
        chars.append(w if bits & 2 else "-")
        chars.append(x if bits & 1 else "-")
    out = chars
    if mode & 0o4000:  # setuid
        out[3] = "s" if out[3] == "x" else "S"
    if mode & 0o2000:  # setgid
        out[6] = "s" if out[6] == "x" else "S"
    if mode & 0o1000:  # sticky
        out[9] = "t" if out[9] == "x" else "T"
    return "".join(out)


@dataclass
class Inode:
    """A filesystem object.

    ``uid``/``gid`` are kernel IDs.  ``mode`` holds the 12 permission bits
    (rwxrwxrwx + setuid/setgid/sticky).  Executables carry simulation
    metadata: ``exe_impl`` names a registered userland implementation,
    ``exe_arch`` is the ISA the binary was compiled for, and ``exe_static``
    marks statically linked binaries (which LD_PRELOAD wrappers cannot
    intercept — paper §5.1).
    """

    ino: int
    ftype: FileType
    mode: int
    uid: int
    gid: int
    nlink: int = 1
    data: bytes = b""
    entries: dict[str, int] = field(default_factory=dict)
    target: str = ""  # symlink target
    rdev: tuple[int, int] = (0, 0)  # (major, minor) for devices
    xattrs: dict[str, bytes] = field(default_factory=dict)
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    exe_impl: Optional[str] = None
    exe_arch: str = "noarch"
    exe_static: bool = False
    #: Change-journal generation counters (monotonic per filesystem).
    #: ``gen`` is the generation of the last mutation touching this inode
    #: itself; ``tree_gen`` additionally reflects mutations anywhere below
    #: a directory, so a snapshot walker can skip whole clean subtrees.
    gen: int = 0
    tree_gen: int = 0

    @property
    def size(self) -> int:
        if self.ftype is FileType.REG:
            return len(self.data)
        if self.ftype is FileType.SYMLINK:
            return len(self.target)
        return 0

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIR

    @property
    def st_mode(self) -> int:
        """Full st_mode word (type bits | permission bits)."""
        return _ST_MODE_BITS[self.ftype] | (self.mode & 0o7777)


@dataclass(frozen=True)
class FsFeatures:
    """Feature/behaviour flags distinguishing filesystem types.

    ``user_xattrs``: whether the ``user.*`` xattr namespace works.  Default
    NFS/Lustre lack it, which is what breaks rootless Podman's
    fuse-overlayfs on shared filesystems (paper §6.1).

    ``remote_id_enforcement``: network filesystems where the *server*
    decides whether a file may be created/chowned with a foreign UID; client
    user namespaces are invisible to it (paper §4.2).
    """

    user_xattrs: bool = True
    remote_id_enforcement: bool = False
    read_only: bool = False


class Filesystem:
    """A mounted filesystem instance: a pool of inodes with a root directory.

    ``owning_userns`` is the user namespace that owns the superblock; it
    feeds mount-level privilege decisions (e.g. implicit nosuid for mounts
    owned by non-initial namespaces).
    """

    def __init__(
        self,
        fstype: str,
        *,
        features: FsFeatures = FsFeatures(),
        owning_userns: Optional[UserNamespace] = None,
        root_uid: int = 0,
        root_gid: int = 0,
        root_mode: int = 0o755,
        label: str = "",
    ):
        self.fstype = fstype
        self.features = features
        self.owning_userns = owning_userns
        self.label = label or fstype
        self.device_id = next(_device_ids)
        self._inodes: dict[int, Inode] = {}
        self._next_ino = itertools.count(2)
        #: Change journal: one monotonic generation counter per superblock.
        #: Every mutating operation bumps it and stamps the touched inode;
        #: directory ``tree_gen`` is propagated to ancestors via
        #: ``_parents`` so "anything changed below here since gen G?" is a
        #: single integer comparison.
        self.gen = 0
        #: Set while :meth:`one_generation` holds ``gen`` open.
        self._held = False
        #: Dentry-cache generation: moves only on mutations that can change
        #: an existing path walk (see ``MountNamespace._walk_prefix``).
        self.walk_gen = 0
        self._parents: dict[int, set[int]] = {}
        root = Inode(
            ino=1, ftype=FileType.DIR, mode=root_mode, uid=root_uid, gid=root_gid,
            nlink=2,
        )
        self._inodes[1] = root
        self.root_ino = 1

    # -- inode management --------------------------------------------------------

    def inode(self, ino: int) -> Inode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise KernelError(Errno.EIO, f"stale inode {ino} on {self.label}")

    @property
    def root(self) -> Inode:
        return self.inode(self.root_ino)

    def has_inode(self, ino: int) -> bool:
        """Is inode *ino* still allocated (not freed by its last unlink)?"""
        return ino in self._inodes

    @property
    def live_inodes(self) -> int:
        """How many inodes are allocated."""
        return len(self._inodes)

    def alloc(
        self,
        ftype: FileType,
        mode: int,
        uid: int,
        gid: int,
        *,
        now: int = 0,
        **extra,
    ) -> Inode:
        """Allocate a fresh unlinked inode."""
        if self.features.read_only:
            raise KernelError(Errno.EROFS, self.label)
        ino = next(self._next_ino)
        if not self._held:
            self.gen += 1
        node = Inode(
            ino=ino, ftype=ftype, mode=mode & 0o7777, uid=uid, gid=gid,
            nlink=0, atime=now, mtime=now, ctime=now,
            gen=self.gen, tree_gen=self.gen, **extra,
        )
        self._inodes[ino] = node
        return node

    def touch(self, node: Inode) -> int:
        """Journal one mutation of *node*: bump the superblock generation,
        stamp the inode, and propagate ``tree_gen`` to every ancestor
        directory, stopping at an ancestor already at this generation
        (whose own ancestors are, too).  Outside :meth:`one_generation`
        every touch stamps a strictly newer generation, so the
        propagation reaches the root each time (O(depth) per touch) and
        the stop only keeps a hardlinked inode's shared ancestors (a
        "diamond" of parent edges) from being visited twice.  Inside it
        every touch stamps the one open generation: the first reaches
        the root, and a later one stops at the first ancestor an earlier
        one stamped, usually the parent directory."""
        if not self._held:
            self.gen += 1
        g = self.gen
        node.gen = g
        stack = [node.ino]
        while stack:
            ino = stack.pop()
            cur = self._inodes.get(ino)
            if cur is None or cur.tree_gen >= g:
                continue
            cur.tree_gen = g
            stack.extend(self._parents.get(ino, ()))
        node.tree_gen = g
        return g

    @contextmanager
    def one_generation(self):
        """Journal every mutation in the block as one generation: the
        block opens a new ``gen`` and every :meth:`touch` and
        :meth:`alloc` in it stamps that one (a nested block joins the
        open one).  A snapshot taken before the block sees all of it as
        newer, one taken after sees none of it; nothing may snapshot
        inside it.  The generation closes however the block ends."""
        if self._held:
            yield
            return
        self.gen += 1
        self._held = True
        try:
            yield
        finally:
            self._held = False

    def freeze(self) -> None:
        """Make this filesystem read-only for good, as a SquashFS image
        is: every later mutation through the syscalls fails with EROFS
        and :meth:`alloc` refuses.  Nothing can move its generations or
        ``walk_gen`` after this, so one frozen filesystem can be mounted
        in many kernels at once."""
        self.features = replace(self.features, read_only=True)

    @staticmethod
    def check_link(parent: Inode, name: str) -> None:
        """Raise what :meth:`link_child` would for entry *name* in
        *parent*: ENOTDIR, EEXIST or EINVAL (a bad name)."""
        if not parent.is_dir:
            raise KernelError(Errno.ENOTDIR)
        if name in parent.entries:
            raise KernelError(Errno.EEXIST, name)
        if not name or "/" in name or name in (".", ".."):
            raise KernelError(Errno.EINVAL, f"bad entry name {name!r}")

    def link_child(self, parent: Inode, name: str, child: Inode) -> None:
        """Add a directory entry; maintains nlink."""
        self.check_link(parent, name)
        parent.entries[name] = child.ino
        child.nlink += 1
        if child.is_dir:
            child.nlink += 1  # the child's own "." entry
            parent.nlink += 1  # the child's ".." entry
        self._parents.setdefault(child.ino, set()).add(parent.ino)
        self.touch(parent)

    def unlink_child(self, parent: Inode, name: str) -> Inode:
        """Remove a directory entry; drops dangling inodes."""
        try:
            ino = parent.entries.pop(name)
        except KeyError:
            raise KernelError(Errno.ENOENT, name)
        child = self.inode(ino)
        if child.ftype is FileType.DIR or child.ftype is FileType.SYMLINK:
            self.walk_gen += 1
        child.nlink -= 1
        if child.is_dir:
            child.nlink -= 1  # its "." entry
            parent.nlink -= 1
        parents = self._parents.get(ino)
        if parents is not None:
            # A hardlinked inode may still be reachable through another
            # directory; only this parent edge goes away.
            if child.is_dir or child.nlink <= 0 or not any(
                    e == ino for e in parent.entries.values()):
                parents.discard(parent.ino)
        if child.nlink <= 0:
            self._inodes.pop(ino, None)
            self._parents.pop(ino, None)
        self.touch(parent)
        return child

    def is_within(self, node: Inode, top: Inode) -> bool:
        """Is directory *node* the directory *top* or below it?"""
        ino = node.ino
        while ino != top.ino:
            parents = self._parents.get(ino)
            if not parents:
                return False
            ino = next(iter(parents))  # a directory has one parent
        return True

    def lookup(self, parent: Inode, name: str) -> Optional[Inode]:
        ino = parent.entries.get(name)
        return None if ino is None else self.inode(ino)

    def iter_tree(self, start_ino: int | None = None) -> Iterator[tuple[str, Inode]]:
        """Yield (path-relative, inode) pairs depth-first from *start_ino*."""
        start = self.inode(start_ino if start_ino is not None else self.root_ino)
        # an explicit stack (children pushed in reverse name order) keeps
        # the recursive pre-order without a generator per directory level
        stack = [(name, self.inode(ino))
                 for name, ino in sorted(start.entries.items(), reverse=True)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if node.ftype is FileType.DIR:
                stack.extend(
                    (f"{path}/{name}", self.inode(ino))
                    for name, ino in sorted(node.entries.items(),
                                            reverse=True))

    def total_bytes(self, start_ino: int | None = None) -> int:
        """Total regular-file bytes under *start_ino* (storage accounting)."""
        return sum(
            node.size for _, node in self.iter_tree(start_ino)
            if node.ftype is FileType.REG
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Filesystem {self.label} ({self.fstype}) inodes={len(self._inodes)}>"


# -- permission evaluation --------------------------------------------------------


def ids_mapped(cred: Credentials, inode: Inode) -> bool:
    """privileged_wrt_inode_uidgid(): are the inode's IDs visible in cred's ns?

    Capability-based overrides (CAP_DAC_OVERRIDE, CAP_CHOWN, CAP_FOWNER...)
    only apply when the inode's uid *and* gid both map into the caller's user
    namespace.  This single rule is why a container root can freely modify
    image files (mapped) but not /proc entries owned by unmapped host root
    (paper §4.1.1, Figure 5).
    """
    return (
        cred.userns.uid_from_host(inode.uid) is not None
        and cred.userns.gid_from_host(inode.gid) is not None
    )


def capable_wrt_inode(cred: Credentials, inode: Inode, cap: Cap) -> bool:
    """capable_wrt_inode_uidgid(): cap in own ns + inode IDs mapped."""
    return cred.has_cap(cap) and ids_mapped(cred, inode)


def may_access(
    cred: Credentials,
    inode: Inode,
    *,
    read: bool = False,
    write: bool = False,
    execute: bool = False,
) -> bool:
    """Evaluate UNIX permissions for *cred* on *inode*.

    Checked classes in order user, group, other; first match governs
    (paper §2.1.4).  CAP_DAC_OVERRIDE bypasses rw checks (and x on
    directories / files with any x bit), subject to the inode IDs being
    mapped in the caller's namespace.  The capabilities can only add
    access the class bits deny, so they are consulted only then (a path
    walk's search checks mostly pass on the bits alone).
    """
    want = 0
    if read:
        want |= 4
    if write:
        want |= 2
    if execute:
        want |= 1

    if cred.fsuid == inode.uid:
        bits = (inode.mode >> 6) & 0o7
    elif cred.in_group(inode.gid):
        bits = (inode.mode >> 3) & 0o7
    else:
        bits = inode.mode & 0o7
    if (bits & want) == want:
        return True

    if capable_wrt_inode(cred, inode, Cap.DAC_OVERRIDE):
        # even root needs one x bit to exec a regular file
        return not (execute and inode.ftype is FileType.REG
                    and not inode.mode & 0o111)
    return (
        not write
        and not execute
        and capable_wrt_inode(cred, inode, Cap.DAC_READ_SEARCH)
    )


# -- raw tree copy (driver-level, bypasses permissions) ----------------------------


def copy_tree(
    src_fs: Filesystem,
    src_ino: int,
    dst_fs: Filesystem,
    dst_parent_ino: int,
    name: str,
    *,
    now: int = 0,
) -> Inode:
    """Copy a subtree preserving all metadata, as one journal generation.

    This is a *driver-level* operation (no permission checks): it models what
    storage drivers do inside their own context, e.g. the vfs driver
    duplicating a layer (paper §4.1).  Returns the new root inode of the copy.

    One iterative pass in sorted pre-order (so inode numbers follow a
    per-entry recursive copy) builds the copy unlinked: every new inode
    gets one fresh generation as its ``gen`` and ``tree_gen``, and its
    entries, ``nlink`` and parent edge are set directly.  Linking the
    top under *dst_parent_ino* then journals the whole copy with one
    touch, so a copy costs two generations however many inodes it has:
    every copied inode is at or below the filesystem's ``gen`` right
    after the copy, and every ancestor's ``tree_gen`` is above any
    generation before it.  Each path gets its own inode (hardlinks are
    not shared), ``atime``/``ctime`` are *now*.  Every check comes
    before the first allocation, so a failed copy leaves no inode behind.
    """
    src = src_fs.inode(src_ino)
    parent = dst_fs.inode(dst_parent_ino)
    if dst_fs.features.read_only:
        raise KernelError(Errno.EROFS, dst_fs.label)
    dst_fs.check_link(parent, name)
    dst_fs.gen += 1
    g = dst_fs.gen
    inodes, parents, next_ino = dst_fs._inodes, dst_fs._parents, dst_fs._next_ino
    src_inode = src_fs.inode
    top = None
    # (source inode, parent of its copy, entry name): pushed in reverse
    # name order, so pops run in sorted pre-order
    stack: list[tuple[Inode, Optional[Inode], str]] = [(src, None, name)]
    while stack:
        src, up, entry = stack.pop()
        is_dir = src.ftype is FileType.DIR
        node = Inode(
            ino=next(next_ino), ftype=src.ftype, mode=src.mode & 0o7777,
            uid=src.uid, gid=src.gid, nlink=0, data=src.data,
            target=src.target, rdev=src.rdev, xattrs=dict(src.xattrs),
            atime=now, mtime=src.mtime, ctime=now, exe_impl=src.exe_impl,
            exe_arch=src.exe_arch, exe_static=src.exe_static,
            gen=g, tree_gen=g,
        )
        inodes[node.ino] = node
        if is_dir:
            stack.extend((src_inode(ino), node, child)
                         for child, ino in sorted(src.entries.items(),
                                                  reverse=True))
        if up is None:
            top = node  # its nlink and parent edge come from link_child
            continue
        up.entries[entry] = node.ino
        parents[node.ino] = {up.ino}
        if is_dir:
            node.nlink = 2
            up.nlink += 1
        else:
            node.nlink = 1
    dst_fs.link_child(parent, name, top)
    return top

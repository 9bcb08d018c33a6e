"""A tar-like archive format for the simulated filesystem.

Used for package payloads (rpm's cpio, deb's data.tar), image layers, and
registry blobs.  Members carry full ownership/mode metadata, so the paper's
ownership-flattening discussion (§6.1 item 2: Charliecloud pushes root:root
with setuid/setgid cleared) is observable in the archives themselves.

Packing goes through a :class:`~repro.kernel.Syscalls` interface — so when
packed under a fakeroot wrapper, the *lies* are what gets archived.  That is
precisely fakeroot's historical purpose: "users to create archives with
files in them with root permissions/ownership" (§5.1), and the §6.2.2
"preserve file ownership" recommendation falls out for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .errors import Errno, KernelError, ReproError
from .kernel import FileType, Filesystem, Syscalls
from .kernel.mounts import DirFd

__all__ = ["TarMember", "TarArchive", "ArchiveError", "member_of",
           "pack_image", "decode_image"]


class ArchiveError(ReproError):
    """Malformed archive or failed pack/extract."""


_FTYPE_CODE = {
    FileType.REG: "f", FileType.DIR: "d", FileType.SYMLINK: "l",
    FileType.CHR: "c", FileType.BLK: "b", FileType.FIFO: "p",
    FileType.SOCK: "s",
}
_CODE_FTYPE = {v: k for k, v in _FTYPE_CODE.items()}
_DEVICES = (FileType.CHR, FileType.BLK)


@dataclass(frozen=True)
class TarMember:
    """One archive entry.  ``uid``/``gid`` are numeric as in real tar."""

    path: str  # relative, no leading slash
    ftype: FileType
    mode: int
    uid: int
    gid: int
    data: bytes = b""
    target: str = ""
    rdev: tuple[int, int] = (0, 0)
    exe_impl: Optional[str] = None
    exe_arch: str = "noarch"
    exe_static: bool = False
    xattrs: tuple[tuple[str, bytes], ...] = ()

    @property
    def is_whiteout(self) -> bool:
        """A layer diff's deletion marker: a character device with mode 0
        (the overlayfs whiteout)."""
        return self.ftype is FileType.CHR and self.mode == 0

    def flattened(self) -> "TarMember":
        """Ownership flattened to root:root, setuid/setgid cleared — what
        Charliecloud does on push 'to avoid leaking site IDs' (§6.1)."""
        return replace(self, uid=0, gid=0, mode=self.mode & ~0o6000)


def member_of(sys: Syscalls, full: str, relpath: str, st=None) -> TarMember:
    """Build the archive member for one path as seen through *sys*.

    The single implementation shared by :meth:`TarArchive.pack` and the
    incremental snapshot walker, so both produce bit-identical members.
    The path is resolved once: metadata (including executable simulation
    metadata) rides on the ``lstat`` result, and only regular files pay
    for a content read."""
    if st is None:
        st = sys.lstat(full)
    data = b""
    target = ""
    if st.ftype is FileType.REG:
        data = sys.read_file(full)
    elif st.ftype is FileType.SYMLINK:
        target = sys.readlink(full)
    xattrs = []
    try:
        for name in sys.listxattr(full):
            xattrs.append((name, sys.getxattr(full, name)))
    except KernelError:
        pass
    return TarMember(
        path=relpath, ftype=st.ftype, mode=st.st_mode & 0o7777,
        uid=st.st_uid, gid=st.st_gid, data=data, target=target,
        rdev=st.st_rdev, exe_impl=st.exe_impl, exe_arch=st.exe_arch,
        exe_static=st.exe_static, xattrs=tuple(sorted(xattrs)),
    )


class TarArchive:
    """An ordered collection of members."""

    def __init__(self, members: Iterable[TarMember] = ()):
        self.members: list[TarMember] = list(members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member(self, path: str) -> TarMember:
        for m in self.members:
            if m.path == path:
                return m
        raise ArchiveError(f"no member {path!r}")

    def total_bytes(self) -> int:
        return sum(len(m.data) for m in self.members)

    # -- digests -----------------------------------------------------------------

    def digest(self) -> str:
        """Content-addressed identity (sha256 over the serialization)."""
        return "sha256:" + hashlib.sha256(self.serialize()).hexdigest()

    # -- pack / extract -----------------------------------------------------------

    @classmethod
    def pack(cls, sys: Syscalls, root: str, *, flatten: bool = False
             ) -> "TarArchive":
        """Archive the tree under *root* as seen through *sys*.

        Seen *through sys* matters: under a fakeroot wrapper, stat lies
        (ownership, device nodes) are captured into the archive.
        """
        members: list[TarMember] = []

        def walk(dirpath: str, rel: str) -> None:
            for entry in sys.readdir(dirpath):
                full = f"{dirpath.rstrip('/')}/{entry.name}"
                relpath = f"{rel}/{entry.name}" if rel else entry.name
                st = sys.lstat(full)
                members.append(member_of(sys, full, relpath, st))
                if st.ftype is FileType.DIR:
                    walk(full, relpath)

        walk(root, "")
        archive = cls(members)
        if flatten:
            archive = cls([m.flattened() for m in members])
        return archive

    def extract(self, sys: Syscalls, dest: Union[str, "_Dirs"], *,
                preserve_owner: bool = False,
                on_chown_error: str = "raise") -> list[str]:
        """Unpack under *dest* through *sys*.  *dest* is a path, or the
        directories :meth:`extract_layers` keeps open for a whole stack.

        ``preserve_owner=False`` is what unprivileged tar does: "downstream
        Type III users that pull the image will change ownership to
        themselves anyway, like tar(1)" (§5.2).  With ``preserve_owner=True``
        each member is chowned — which in a Type III container fails for
        unmapped IDs; ``on_chown_error`` may be "raise", "warn" (collect) or
        "ignore".  Returns the list of chown warnings.

        Layers unpack in order onto one tree, so a member may land on
        what an earlier layer left.  A whiteout member
        (:attr:`TarMember.is_whiteout`) deletes its path, a directory
        with everything below it, instead of being created: the mode-0
        character device it is could not be made without CAP_MKNOD
        anyway.  A member replaces whatever is in the way at its own path
        (a directory with everything below it) instead of going through
        it, except that a directory member keeps a directory and a
        regular member writes into a regular file.

        Every member stays inside *dest*: *dest* is opened once
        (:meth:`~repro.kernel.Syscalls.open_dir`) and each member's path
        is walked beneath it, as ``openat2(..., RESOLVE_IN_ROOT)`` walks
        it.  A symlinked directory above a member is followed, as tar(1)
        follows it, but ``..`` stops at *dest* and an absolute target
        starts over at *dest*: after an earlier layer's
        ``x -> /home/alice``, member ``x/.bashrc`` goes to
        ``dest/home/alice/.bashrc``, or fails with ENOENT if that
        directory is missing.  A whiteout whose directory does not
        resolve deletes nothing.
        """
        dirs = dest if isinstance(dest, _Dirs) else _Dirs(sys, dest)
        return self._unpack(sys, dirs, preserve_owner, on_chown_error)

    @staticmethod
    def extract_layers(layers: Iterable["TarArchive"], sys: Syscalls,
                       dest: str, *, preserve_owner: bool = False,
                       on_chown_error: str = "raise") -> list[str]:
        """:meth:`extract` each of *layers* under *dest*, in order, through
        one set of open directories: *dest* is opened once for the whole
        stack, and a directory an earlier layer opened serves the later
        ones too (the kernel walks it again if a layer moved a
        ``walk_gen`` it depends on).  Each layer is still one
        :meth:`extract` call and its own journal generation.  Returns
        every layer's chown warnings."""
        dirs = _Dirs(sys, dest)
        warnings: list[str] = []
        for layer in layers:
            warnings += layer.extract(sys, dirs,
                                      preserve_owner=preserve_owner,
                                      on_chown_error=on_chown_error)
        return warnings

    def apply_diff(self, sys: Syscalls, dest: str) -> None:
        """Apply this archive as a build-cache hit's *diff*: the unpack of
        :meth:`extract`, keeping owners where the kernel permits it, so a
        warm build reproduces the tree its cold build made."""
        self._unpack(sys, _Dirs(sys, dest), True, "ignore")

    def _unpack(self, sys: Syscalls, dirs: "_Dirs", preserve_owner: bool,
                on_chown_error: str) -> list[str]:
        """The member loop of :meth:`extract` and :meth:`apply_diff`.

        Each call names its member beneath an open directory
        (``dir_fd=``): the member's parent from *dirs*, so a member whose
        directory is already open costs no path walk.  The whole layer
        is one journal generation on the destination's filesystem
        (:meth:`~repro.kernel.Filesystem.one_generation`)."""
        warnings: list[str] = []
        with dirs.top.fs.one_generation():
            for m in self.members:
                if m.is_whiteout:
                    self._whiteout(sys, dirs, m.path)
                    continue
                at, name = dirs.parent(m.path)
                if m.ftype is FileType.DIR:
                    ftype = sys.ftype_at(name, dir_fd=at)
                    if ftype is not FileType.DIR:
                        if ftype is not None:
                            dirs.forget(m.path)
                            self._remove(sys, at, name, ftype)
                        sys.mkdir(name, 0o755, dir_fd=at)
                elif m.ftype is FileType.SYMLINK:
                    ftype = sys.ftype_at(name, dir_fd=at)
                    if ftype is not None:
                        dirs.forget(m.path)
                        self._remove(sys, at, name, ftype)
                    sys.symlink(m.target, name, dir_fd=at)
                else:
                    self._create(sys, dirs, at, name, m)
                if m.ftype is not FileType.SYMLINK:
                    sys.chmod(name, m.mode, dir_fd=at)
                if preserve_owner and m.ftype is not FileType.SYMLINK:
                    try:
                        sys.chown(name, m.uid, m.gid, follow=False,
                                  dir_fd=at)
                    except KernelError as err:
                        msg = (f"tar: {m.path}: chown to {m.uid}:{m.gid} "
                               f"failed: {err.strerror}")
                        if on_chown_error == "raise":
                            raise ArchiveError(msg) from err
                        if on_chown_error == "warn":
                            warnings.append(msg)
                for xname, value in m.xattrs:
                    try:
                        sys.setxattr(name, xname, value, dir_fd=at)
                    except KernelError:
                        warnings.append(
                            f"tar: {m.path}: setxattr {xname} failed")
        return warnings

    #: What a member's first call says is in its way: a symlink (O_NOFOLLOW
    #: open), a directory, a FIFO or socket, anything (mknod's EEXIST).
    _IN_THE_WAY = (Errno.ELOOP, Errno.EISDIR, Errno.ENXIO, Errno.EEXIST)

    @classmethod
    def _create(cls, sys: Syscalls, dirs: "_Dirs", at: DirFd, name: str,
                m: TarMember) -> None:
        """Make a regular or special member in one syscall.  If that fails
        because something is in the way (:attr:`_IN_THE_WAY`), it is
        deleted (:meth:`_remove`) and the call retried, as tar(1)
        unlinks and retries a refused open.  A device in a regular
        member's way is deleted first: writing one would succeed and
        keep the device."""
        if m.ftype is FileType.REG and \
                sys.ftype_at(name, dir_fd=at) in _DEVICES:
            sys.unlink(name, dir_fd=at)
        try:
            cls._make(sys, at, name, m)
        except KernelError as err:
            ftype = sys.ftype_at(name, dir_fd=at) \
                if err.errno in cls._IN_THE_WAY else None
            if ftype is None:
                raise
            dirs.forget(m.path)
            cls._remove(sys, at, name, ftype)
            cls._make(sys, at, name, m)

    @staticmethod
    def _make(sys: Syscalls, at: DirFd, name: str, m: TarMember) -> None:
        if m.ftype is FileType.REG:
            sys.write_file(name, m.data, follow=False,
                           exe=(m.exe_impl, m.exe_arch, m.exe_static),
                           dir_fd=at)
        else:
            sys.mknod(name, m.ftype, m.mode & 0o777, rdev=m.rdev, dir_fd=at)

    @classmethod
    def _whiteout(cls, sys: Syscalls, dirs: "_Dirs", rel: str) -> None:
        """Delete what whiteout *rel* names, a directory with everything
        below it.  When its directory does not resolve beneath *dest*,
        when it names no entry (``.``, ``..``) and when the path is
        already gone, the whiteout does nothing."""
        parent, _, name = rel.rpartition("/")
        if not _one_name(name):
            return
        try:
            at = dirs.open(parent)
        except KernelError:
            return
        try:
            ftype = sys.lstat(name, dir_fd=at).ftype
        except KernelError:
            return
        dirs.forget(rel)
        cls._remove(sys, at, name, ftype)

    @classmethod
    def _remove(cls, sys: Syscalls, at: DirFd, name: str,
                ftype: FileType) -> None:
        """Delete *name*, of type *ftype*, beneath *at*: a directory with
        everything below it."""
        if ftype is FileType.DIR:
            entries = sys.readdir(name, dir_fd=at)
            if entries:
                below = sys.open_dir(name, dir_fd=at)
                for entry in entries:
                    cls._remove(sys, below, entry.name, entry.ftype)
            sys.rmdir(name, dir_fd=at)
        else:
            sys.unlink(name, dir_fd=at)

    # -- serialization ---------------------------------------------------------------

    def serialize(self) -> bytes:
        """Deterministic byte encoding (header line + hex payload per member)."""
        out = []
        for m in self.members:
            xattr_part = ";".join(f"{n}={v.hex()}" for n, v in m.xattrs)
            header = "|".join([
                m.path, _FTYPE_CODE[m.ftype], oct(m.mode), str(m.uid),
                str(m.gid), m.target, f"{m.rdev[0]},{m.rdev[1]}",
                m.exe_impl or "", m.exe_arch, "1" if m.exe_static else "0",
                xattr_part,
            ])
            out.append(header + "\n" + m.data.hex() + "\n")
        return "".join(out).encode()

    @classmethod
    def deserialize(cls, blob: bytes) -> "TarArchive":
        lines = blob.decode().splitlines()
        if len(lines) % 2:
            raise ArchiveError("truncated archive")
        members = []
        for i in range(0, len(lines), 2):
            parts = lines[i].split("|")
            if len(parts) != 11:
                raise ArchiveError(f"bad member header: {lines[i]!r}")
            (path, code, mode_s, uid_s, gid_s, target, rdev_s,
             impl, arch, static_s, xattr_part) = parts
            try:
                rmaj, rmin = rdev_s.split(",")
                xattrs = tuple(
                    (n, bytes.fromhex(v))
                    for n, _, v in (x.partition("=")
                                    for x in xattr_part.split(";") if x)
                )
                members.append(TarMember(
                    path=path, ftype=_CODE_FTYPE[code], mode=int(mode_s, 8),
                    uid=int(uid_s), gid=int(gid_s),
                    data=bytes.fromhex(lines[i + 1]),
                    target=target, rdev=(int(rmaj), int(rmin)),
                    exe_impl=impl or None, exe_arch=arch,
                    exe_static=static_s == "1", xattrs=xattrs,
                ))
            except (ValueError, KeyError) as exc:
                raise ArchiveError(f"bad member {path!r}: {exc}") from exc
        return cls(members)


#: The path an image blob (:func:`pack_image`) gives its root directory's
#: member: :meth:`TarArchive.pack` leaves the root out.
IMAGE_ROOT = "."


def pack_image(sys: Syscalls, root: str, *, flatten: bool = False) -> bytes:
    """ch-convert: the tree under *root*, as seen through *sys*, as one
    single-file image blob to mount (:func:`decode_image`) instead of
    unpacking.

    The blob is a serialized archive: the root directory's own member
    first (path :data:`IMAGE_ROOT`, so a mount gets its owner, mode and
    xattrs), then :meth:`TarArchive.pack` of the tree.  With *flatten*
    every member, the root's too, is :meth:`TarMember.flattened`: a
    SIF."""
    members = [member_of(sys, root, IMAGE_ROOT),
               *TarArchive.pack(sys, root).members]
    if flatten:
        members = [m.flattened() for m in members]
    return TarArchive(members).serialize()


def decode_image(blob: bytes, *, label: str = "image") -> Filesystem:
    """The read-only :class:`~repro.kernel.Filesystem` an image blob of
    :func:`pack_image` holds: what squashfuse serves from a SquashFS
    file or a SIF.

    Each member becomes one inode, built with ``alloc`` and
    ``link_child`` in one journal generation; its uid and gid become the
    inode's kernel IDs (the packer's view from the initial user
    namespace).  The filesystem is then frozen
    (:meth:`~repro.kernel.Filesystem.freeze`), so every write to it
    fails with EROFS.  Only a clean packed tree decodes: a blob whose
    first member is not the root directory, a whiteout, a second member
    at one path, or a member whose parent directory did not come before
    it raises :class:`ArchiveError`."""
    members = TarArchive.deserialize(blob).members
    if not members or members[0].path != IMAGE_ROOT \
            or members[0].ftype is not FileType.DIR:
        raise ArchiveError(f"{label}: not an image: no root directory "
                           f"member first")
    top = members[0]
    fs = Filesystem("squashfs", root_uid=top.uid, root_gid=top.gid,
                    root_mode=top.mode, label=label)
    fs.root.xattrs.update(top.xattrs)
    inodes = {"": fs.root}
    with fs.one_generation():
        for m in members[1:]:
            parent_path, _, name = m.path.rpartition("/")
            parent = inodes.get(parent_path)
            if m.is_whiteout:
                raise ArchiveError(f"{label}: {m.path!r}: whiteout in an "
                                   f"image")
            if m.path in inodes:
                raise ArchiveError(f"{label}: {m.path!r}: second member at "
                                   f"one path")
            if parent is None or not parent.is_dir or not _one_name(name):
                raise ArchiveError(f"{label}: {m.path!r}: no parent "
                                   f"directory before it")
            node = fs.alloc(m.ftype, m.mode, m.uid, m.gid, data=m.data,
                            target=m.target, rdev=m.rdev,
                            exe_impl=m.exe_impl, exe_arch=m.exe_arch,
                            exe_static=m.exe_static, xattrs=dict(m.xattrs))
            fs.link_child(parent, name, node)
            inodes[m.path] = node
    fs.freeze()
    return fs


def _one_name(name: str) -> bool:
    """Does *name* (no ``/`` in it) name one directory entry?"""
    return name not in ("", ".", "..")


class _Dirs:
    """The directories one unpack has opened beneath *dest*, by
    member-relative path.

    :attr:`top` is *dest*, opened once.  On a fast kernel
    (``Kernel.fast``) every directory a member's parent path names is
    opened once, one entry from its own parent, and kept: a member below
    it costs no walk.  The kernel walks a kept directory again when a
    ``walk_gen`` it depends on has moved (a directory chmod-ed, deleted
    or replaced), so search permission holds as for a walk from *dest*.  A reference kernel keeps nothing: every call walks
    its member's whole path from *dest*, the loop the cache is checked
    against."""

    def __init__(self, sys: Syscalls, dest: str):
        self.sys = sys
        self.top = sys.open_dir(dest)
        self._open: Optional[dict[str, DirFd]] = \
            {} if sys.kernel.fast else None

    def open(self, rel: str) -> DirFd:
        """The directory at *rel* beneath :attr:`top`; raises the walk's
        KernelError."""
        if not rel:
            return self.top
        cache = self._open
        if cache is None:
            return self.sys.open_dir(rel, dir_fd=self.top)
        fd = cache.get(rel)
        if fd is None:
            parent, _, name = rel.rpartition("/")
            fd = self.sys.open_dir(name, dir_fd=self.open(parent)) \
                if _one_name(name) else self.sys.open_dir(rel,
                                                          dir_fd=self.top)
            cache[rel] = fd
        return fd

    def parent(self, rel: str) -> tuple[DirFd, str]:
        """``(dir_fd, name)`` for member path *rel*: its open parent and
        final name, or, when that parent does not resolve, :attr:`top`
        and the whole path (the member's own call then reports the
        walk's error)."""
        if self._open is not None:
            parent, _, name = rel.rpartition("/")
            if _one_name(name):
                try:
                    return self.open(parent), name
                except KernelError:
                    pass
        return self.top, rel

    def forget(self, rel: str) -> None:
        """Drop the directories kept at *rel* and below it: a member
        replaces or deletes what is there."""
        cache = self._open
        if cache:
            below = rel + "/"
            for key in [k for k in cache
                        if k == rel or k.startswith(below)]:
                del cache[key]

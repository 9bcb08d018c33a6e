"""ch-image storage: plain directory trees, fully unprivileged.

Charliecloud keeps images as ordinary directories under
``/var/tmp/<user>.ch/img`` — no storage driver, no mounts, no helpers.  On
pull, "any downstream Type III users ... will change ownership to
themselves anyway, like tar(1)" (paper §5.2): extraction does not preserve
ownership, so the whole tree belongs to the invoking user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..archive import TarArchive
from ..cas.diff import (
    Snapshot,
    rebase_snapshot,
    snapshot_digest,
    snapshot_tree,
)
from ..errors import BuildError, KernelError, RegistryError
from ..kernel import Process, Syscalls
from ..containers.oci import ImageConfig, ImageRef
from ..containers.registry import Registry

__all__ = ["ImageStorage", "DEFAULT_HUB"]

DEFAULT_HUB = "docker.io"


@dataclass(frozen=True)
class _Clone:
    """What ``copy(..., clone=True)`` records so that the clone's first
    snapshot can start from its source's instead of a full walk."""

    src: str  # the source tag
    src_root: tuple[int, int]  # (device, inode) of the source root
    root: tuple[int, int]  # (device, inode) of the clone root
    floor: int  # the filesystem's generation right after the clone
    inos: dict[str, int]  # clone path (relative) -> inode


class ImageStorage:
    """One user's ch-image storage directory."""

    def __init__(self, machine, user_proc: Process,
                 storage_dir: Optional[str] = None):
        self.machine = machine
        self.user_proc = user_proc
        self.sys = Syscalls(user_proc)
        user = user_proc.environ.get("USER", "user")
        self.root = storage_dir or f"/var/tmp/{user}.ch"
        self.img_dir = f"{self.root}/img"
        self.sys.mkdir_p(self.img_dir)
        self._configs: dict[str, ImageConfig] = {}
        self._digests: dict[str, str] = {}  # name -> identity digest
        #: name -> (root (device, inode), the last snapshot taken of it)
        self._snapshots: dict[str, tuple[tuple[int, int], dict]] = {}
        self._clones: dict[str, _Clone] = {}

    # -- naming ---------------------------------------------------------------------

    def path_of(self, name: str) -> str:
        flat = name.replace("/", "%").replace(":", "+")
        return f"{self.img_dir}/{flat}"

    def exists(self, name: str) -> bool:
        return self.sys.exists(self.path_of(name))

    def list_images(self) -> list[str]:
        try:
            entries = self.sys.readdir(self.img_dir)
        except KernelError:
            return []
        return sorted(e.name.replace("%", "/").replace("+", ":")
                      for e in entries)

    def config_of(self, name: str) -> ImageConfig:
        return self._configs.get(name, ImageConfig(arch=self.machine.arch))

    def digest_of(self, name: str) -> str:
        """A stable identity digest for *name*: the registry manifest
        digest for pulled images, a build-chain digest for built stages,
        or (fallback) the digest of the tree contents.  This is what roots
        the build cache's Merkle chains — two builders that pulled the
        same image derive the same chain keys."""
        digest = self._digests.get(name)
        if digest is None:
            if not self.sys.exists(self.path_of(name)):
                raise BuildError(f"no image {name!r} in storage")
            digest = snapshot_digest(self.snapshot(name))
            self._digests[name] = digest
        return digest

    # -- snapshots ------------------------------------------------------------------

    def snapshot(self, name: str):
        """The tree snapshot of image *name* (see :mod:`repro.cas.diff`).

        The walk is incremental from the last snapshot taken of this
        image.  An image cloned by :meth:`copy` that has none yet starts
        from its source's snapshot, re-anchored onto the clone, so only
        what changed since the clone is re-read.  A reference kernel
        (``Kernel(fast=False)``) packs the whole tree every time."""
        path = self.path_of(name)
        root = self._root_of(path)
        prev = None
        last = self._snapshots.get(name)
        if last is not None and last[0] == root:
            prev = last[1]
        clone = self._clones.pop(name, None)
        if prev is None and clone is not None and clone.root == root \
                and self.sys.kernel.fast:
            prev = self._inherited(clone)
        snap = snapshot_tree(self.sys, path, prev)
        self._snapshots[name] = (root, snap)
        return snap

    def _resolved(self, path: str):
        """The path walk to *path*, done driver-side (untraced), or None."""
        try:
            return self.sys.mnt_ns.resolve(path, self.sys.cred,
                                           cwd=self.sys.getcwd())
        except KernelError:
            return None

    def _root_of(self, path: str) -> Optional[tuple[int, int]]:
        """``(device, inode)`` of the directory at *path*, or None."""
        res = self._resolved(path)
        return None if res is None else (res.fs.device_id, res.inode.ino)

    def _inherited(self, clone: _Clone) -> Optional[Snapshot]:
        """The source's snapshot re-anchored onto *clone*, or None when
        that would not be exact: the source changed since the clone (or
        was replaced), a mount sits under it, or its snapshot fails (the
        clone's own full walk then reports the error on the clone's
        path)."""
        res = self._resolved(self.path_of(clone.src))
        if res is None or (res.fs.device_id, res.inode.ino) != clone.src_root \
                or res.inode.tree_gen > clone.floor \
                or any(mp == res.path or mp.startswith(res.path + "/")
                       for mp in self.sys.mnt_ns.mounts):
            return None
        dev = clone.root[0]
        try:
            src = self.snapshot(clone.src)
        except KernelError:
            return None
        if src.keys() != clone.inos.keys() \
                or any(src.meta.get(p, (None,))[0] != dev for p in src):
            return None
        return rebase_snapshot(src, dev, clone.inos, clone.floor)

    def set_digest(self, name: str, digest: str) -> None:
        self._digests[name] = digest

    # -- pull -----------------------------------------------------------------------

    def _registry(self, ref: ImageRef) -> Registry:
        net = self.machine.kernel.network
        if net is None:
            raise RegistryError("no network reachable")
        return net.registry(ref.registry or DEFAULT_HUB)

    def pull(self, ref_text: str) -> str:
        """Pull and flatten: single directory tree owned by the user."""
        ref = ImageRef.parse(ref_text)
        name = str(ref)
        path = self.path_of(name)
        if self.sys.exists(path):
            return path
        registry = self._registry(ref)
        # the node-local CAS dedups layer blobs across users and pulls:
        # a blob the node already holds (earlier pull, broadcast pre-seed)
        # is not re-sent over the wire
        config, layers = registry.pull(
            ref, arch=self.machine.arch,
            local_store=getattr(self.machine, "content_store", None))
        self.sys.mkdir_p(path)
        try:
            # unprivileged tar semantics: no chown attempts at all
            TarArchive.extract_layers(layers, self.sys, path,
                                      preserve_owner=False)
        except Exception:
            # a partial tree at *path* would pass for the image next time
            self.sys.rm_tree(path)
            raise
        self._configs[name] = config
        self._digests[name] = registry.manifest(
            ref, arch=self.machine.arch).digest()
        return path

    # -- tag-to-tag copy (FROM materialization) ----------------------------------------

    def copy(self, src_name: str, dst_name: str, *, clone: bool = False) -> str:
        """Materialize *src_name* as *dst_name*.  The default is the
        plain pack-and-extract userspace copy; with *clone* the tree is
        duplicated by one ``clone_tree(2)`` reflink-style call — the fast
        path cache-enabled builds take for FROM."""
        src = self.path_of(src_name)
        dst = self.path_of(dst_name)
        if not self.sys.exists(src):
            raise BuildError(f"no image {src_name!r} in storage")
        if self.sys.exists(dst):
            self.delete(dst_name)
        self._forget(dst_name)
        if clone:
            self.sys.clone_tree(src, dst)
            self._clones[dst_name] = self._clone_record(src_name, src, dst)
        else:
            archive = TarArchive.pack(self.sys, src)
            self.sys.mkdir_p(dst)
            archive.extract(self.sys, dst, preserve_owner=False)
        self._configs[dst_name] = self._configs.get(
            src_name, ImageConfig(arch=self.machine.arch))
        if src_name in self._digests:
            self._digests[dst_name] = self._digests[src_name]
        return dst

    def _clone_record(self, src_name: str, src: str, dst: str) -> _Clone:
        """Record the clone *dst* of *src* just after ``clone_tree``: both
        roots, the journal floor, and the clone's path -> inode map, read
        driver-side (the tree walk issues no syscalls)."""
        res = self._resolved(dst)
        fs = res.fs
        return _Clone(
            src=src_name, src_root=self._root_of(src),
            root=(fs.device_id, res.inode.ino), floor=fs.gen,
            inos={p: node.ino for p, node in fs.iter_tree(res.inode.ino)})

    def set_config(self, name: str, config: ImageConfig) -> None:
        self._configs[name] = config

    # -- delete ---------------------------------------------------------------------------

    def delete(self, name: str) -> None:
        self.sys.rm_tree(self.path_of(name))
        self._configs.pop(name, None)
        self._digests.pop(name, None)
        self._forget(name)

    def _forget(self, name: str) -> None:
        self._snapshots.pop(name, None)
        self._clones.pop(name, None)

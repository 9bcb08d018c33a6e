"""Container storage drivers: vfs and fuse-overlayfs.

Paper §4.1: "Podman uses the fuse-overlayfs storage driver which provides
unprivileged mount operations using a fuse-backed overlay file-system.
Podman can also use the VFS driver, however this implementation is much
slower and has significant storage overhead."

Functional model: both drivers materialize working trees; they differ in

* **cost**: vfs duplicates the full tree per layer/container (counted in
  ``stats``); overlay stores per-layer diffs and reuses the lower layers;
* **requirements**: fuse-overlayfs keeps its ID bookkeeping in ``user.*``
  xattrs, so it refuses storage on filesystems without them (default
  NFS/Lustre — the §6.1 shared-filesystem clash).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..archive import TarArchive
from ..cas.diff import Snapshot, snapshot_and_diff, snapshot_tree
from ..cas.store import ContentStore
from ..errors import ReproError
from ..kernel import Syscalls
from ..obs.trace import kernel_span

__all__ = ["DriverStats", "StorageDriver", "VfsDriver", "OverlayDriver",
           "DriverError", "make_driver"]


class DriverError(ReproError):
    """Storage driver failure (e.g. overlay on a no-xattr filesystem)."""


@dataclass
class DriverStats:
    """Cost accounting for the A1 storage-driver ablation."""

    bytes_copied: int = 0  # data physically duplicated
    storage_bytes: int = 0  # bytes at rest attributable to layers
    meta_ops: int = 0  # simulated metadata operations
    commits: int = 0

    def simulated_cost(self, meta_op_cost: float = 1.0,
                       byte_cost: float = 0.001) -> float:
        return self.meta_ops * meta_op_cost + self.bytes_copied * byte_cost


_snapshot = snapshot_tree  # shared with the CAS/build-cache layer


class StorageDriver:
    """Base driver: image trees under ``root_dir`` as seen through ``sys``.

    ``sys`` is the syscall view of whoever owns the storage — for rootless
    Podman that is a process *inside* the user namespace, which is how its
    chown-to-subordinate-ID writes are legal.

    With a *content_store*, every imported layer and committed diff is
    also recorded as a refcounted CAS blob — so two images sharing a base
    (or two builders on the same machine) store those bytes once, and the
    store's ``dedup_hits`` expose the saving.
    """

    name = "base"

    def __init__(self, sys: Syscalls, root_dir: str, *,
                 content_store: Optional[ContentStore] = None):
        self.sys = sys
        self.root_dir = root_dir.rstrip("/")
        self.stats = DriverStats()
        self.content_store = content_store
        sys.mkdir_p(self.root_dir)
        self._check_backing_fs()
        self._snapshots: dict[str, dict[str, str]] = {}

    def _store_blob(self, archive: TarArchive) -> None:
        """Record *archive* in the shared CAS (refcounted: a committed
        layer has registry-grade persistence, never LRU eviction)."""
        if self.content_store is None or not len(archive):
            return
        digest = self.content_store.put(archive.serialize())
        self.content_store.incref(digest)

    def _check_backing_fs(self) -> None:
        pass

    def _span(self, name: str, **meta):
        return kernel_span(self.sys.proc.kernel, name, "layer",
                           driver=self.name, **meta)

    # -- paths ------------------------------------------------------------------

    def image_path(self, name: str) -> str:
        return f"{self.root_dir}/{name.replace('/', '%').replace(':', '+')}"

    def exists(self, name: str) -> bool:
        return self.sys.exists(self.image_path(name))

    def backing_fs(self):
        res = self.sys.mnt_ns.resolve(self.root_dir, self.sys.cred,
                                      cwd=self.sys.getcwd())
        return res.fs

    def simulated_cost(self) -> float:
        """Total simulated cost of this driver's activity so far, using the
        backing filesystem's cost model (shared filesystems have expensive
        metadata; FUSE adds per-op overhead)."""
        from ..kernel.filesystem_params import FS_PARAMS, FsParams
        fs = self.backing_fs()
        params: FsParams = FS_PARAMS.get(fs.fstype,
                                         FS_PARAMS["ext4"])
        cost = self.stats.simulated_cost(params.meta_op_cost,
                                         params.byte_cost)
        return cost * (1.0 + params.fuse_overhead)

    # -- layer import / commit ----------------------------------------------------

    def unpack_image(self, name: str, layers: list[TarArchive], *,
                     preserve_owner: bool,
                     on_chown_error: str = "raise") -> str:
        """Materialize an image from its layer stack."""
        path = self.image_path(name)
        if self.sys.exists(path):
            raise DriverError(f"image {name!r} already in storage")
        with self._span(f"unpack {name}", layers=len(layers)):
            self.sys.mkdir_p(path)
            try:
                TarArchive.extract_layers(layers, self.sys, path,
                                          preserve_owner=preserve_owner,
                                          on_chown_error=on_chown_error)
            except Exception:
                # leave no partial image: a retry must meet the real error
                self.sys.rm_tree(path)
                raise
            for layer in layers:
                self.stats.meta_ops += len(layer)
                self.stats.bytes_copied += layer.total_bytes()
                self._store_blob(layer)
            self._snapshots[path] = _snapshot(self.sys, path)
        return path

    def begin_build(self, base_name: str, build_name: str) -> str:
        """A mutable working tree seeded from *base_name*."""
        raise NotImplementedError

    def commit(self, build_path: str, message: str = "") -> TarArchive:
        """Record a layer commit: returns the *diff* since the previous
        snapshot (manifests are driver-independent); drivers differ in what
        the commit costs (vfs: a full tree copy at rest; overlay: the diff).
        """
        with self._span(f"commit {build_path}") as sp:
            diff, snap = self._diff_since_snapshot(build_path)
            self.stats.commits += 1
            self._charge_commit(diff, snap)
            self._store_blob(diff)
            if sp is not None:
                sp.meta["diff_members"] = len(diff)
        return diff

    def _charge_commit(self, diff: TarArchive, snap: Snapshot) -> None:
        raise NotImplementedError

    def _diff_since_snapshot(self, build_path: str
                             ) -> tuple[TarArchive, Snapshot]:
        prev = self._snapshots.get(build_path, {})
        diff, cur = snapshot_and_diff(self.sys, build_path, prev)
        self._snapshots[build_path] = cur
        return diff, cur

    def export_full(self, path: str, *, flatten: bool = False) -> TarArchive:
        """One archive of the whole tree (single-layer export)."""
        return TarArchive.pack(self.sys, path, flatten=flatten)

    def delete(self, name: str) -> None:
        path = self.image_path(name)
        self.sys.rm_tree(path)
        self._snapshots.pop(path, None)

    def _copy_tree(self, src: str, dst: str) -> None:
        """Driver-level recursive copy preserving ownership (runs inside the
        namespace where those IDs are mapped)."""
        archive = TarArchive.pack(self.sys, src)
        self.sys.mkdir_p(dst)
        archive.extract(self.sys, dst, preserve_owner=True,
                        on_chown_error="ignore")
        self.stats.meta_ops += len(archive)
        self.stats.bytes_copied += archive.total_bytes()


class VfsDriver(StorageDriver):
    """The vfs driver: no mounts needed, but every layer is a full copy."""

    name = "vfs"

    def begin_build(self, base_name: str, build_name: str) -> str:
        with self._span(f"begin-build {build_name}", base=base_name):
            src = self.image_path(base_name)
            dst = self.image_path(build_name)
            if self.sys.exists(dst):
                self.sys.rm_tree(dst)
            self._copy_tree(src, dst)  # full duplication: the vfs tax
            self._snapshots[dst] = _snapshot(self.sys, dst)
        return dst

    def _charge_commit(self, diff: TarArchive, snap: Snapshot) -> None:
        # vfs keeps a complete copy of the tree per layer; the snapshot's
        # size bookkeeping prices it without re-packing the tree
        self.stats.storage_bytes += snap.total_bytes()
        self.stats.bytes_copied += snap.total_bytes()
        self.stats.meta_ops += len(snap)


class OverlayDriver(StorageDriver):
    """fuse-overlayfs: layers are diffs; lower layers shared in place.

    The driver is a FUSE server run by the user, so the merged view is a
    filesystem whose superblock is *owned by the user's namespace* — that
    ownership is what allows in-container privileged metadata (file
    capabilities, foreign-looking IDs) that plain host ext4 refuses.
    """

    name = "overlay"

    def _check_backing_fs(self) -> None:
        fs = self.backing_fs()
        if not fs.features.user_xattrs:
            raise DriverError(
                f"fuse-overlayfs: backing filesystem {fs.label!r} does not "
                "support user xattrs (default-configured NFS/Lustre/GPFS — "
                "paper §6.1); use local disk or the vfs driver")
        # Mount the FUSE view over the storage directory.  The mount is in
        # the namespace of whoever runs the driver, and shared with any
        # process that shares the mount namespace (fork semantics).
        from ..kernel import Filesystem, FsFeatures
        fuse = Filesystem(
            "overlay",
            features=FsFeatures(user_xattrs=True),
            owning_userns=self.sys.cred.userns,
            root_uid=self.sys.cred.euid,
            root_gid=self.sys.cred.egid,
            label=f"fuse-overlayfs:{self.root_dir}",
        )
        self.sys.proc.mnt_ns.add_mount(self.root_dir, fuse,
                                       owning_userns=self.sys.cred.userns)

    def begin_build(self, base_name: str, build_name: str) -> str:
        with self._span(f"begin-build {build_name}", base=base_name):
            src = self.image_path(base_name)
            dst = self.image_path(build_name)
            if self.sys.exists(dst):
                self.sys.rm_tree(dst)
            # A real overlay would mount lowerdir+upperdir; we materialize
            # once per build and charge only the (cheap) mount-like setup.
            self._copy_tree_uncharged(src, dst)
            self.stats.meta_ops += 3  # mount, workdir, upperdir
            self._snapshots[dst] = _snapshot(self.sys, dst)
        return dst

    def _copy_tree_uncharged(self, src: str, dst: str) -> None:
        archive = TarArchive.pack(self.sys, src)
        self.sys.mkdir_p(dst)
        archive.extract(self.sys, dst, preserve_owner=True,
                        on_chown_error="ignore")

    def _charge_commit(self, diff: TarArchive, snap: Snapshot) -> None:
        # overlay stores only the upperdir contents
        self.stats.storage_bytes += diff.total_bytes()
        self.stats.meta_ops += len(diff)


def make_driver(kind: str, sys: Syscalls, root_dir: str, *,
                content_store: Optional[ContentStore] = None
                ) -> StorageDriver:
    if kind == "vfs":
        return VfsDriver(sys, root_dir, content_store=content_store)
    if kind == "overlay":
        return OverlayDriver(sys, root_dir, content_store=content_store)
    raise DriverError(f"unknown storage driver {kind!r}")

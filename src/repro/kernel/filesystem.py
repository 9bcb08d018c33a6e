"""Concrete filesystem types and their HPC-relevant behaviour flags.

The paper's shared-filesystem discussion (§4.2, §6.1, §6.2.1) turns on two
properties:

* whether ``user.*`` extended attributes work (fuse-overlayfs needs them for
  its ID bookkeeping; default NFS/Lustre lack them), and
* whether the filesystem *server* enforces IDs on file creation/chown
  independently of any client-side user namespace (NFS does, which is why
  "the UID/GID mappers cannot work when the container storage location is a
  shared filesystem").
"""

from __future__ import annotations

from .filesystem_params import FS_PARAMS
from .userns import UserNamespace
from .vfs import Filesystem, FsFeatures

__all__ = [
    "make_ext4",
    "make_tmpfs",
    "make_nfs",
    "make_lustre",
    "FS_PARAMS",
]


def make_ext4(label: str = "ext4") -> Filesystem:
    """Node-local disk: full xattr support, local ID authority."""
    return Filesystem("ext4", features=FsFeatures(user_xattrs=True), label=label)


def make_tmpfs(
    label: str = "tmpfs", *, owning_userns: UserNamespace | None = None,
    root_uid: int = 0, root_gid: int = 0, root_mode: int = 0o1777,
) -> Filesystem:
    """RAM-backed filesystem; mountable inside user namespaces."""
    return Filesystem(
        "tmpfs",
        features=FsFeatures(user_xattrs=True),
        owning_userns=owning_userns,
        root_uid=root_uid,
        root_gid=root_gid,
        root_mode=root_mode,
        label=label,
    )


def make_nfs(
    label: str = "nfs", *, xattr_support: bool = False
) -> Filesystem:
    """NFS share.

    ``xattr_support=False`` is the default deployed configuration; Linux 5.9 +
    NFSv4.2 servers can enable it (paper §6.2.1) — pass True to model that.
    Server-side ID enforcement is always on: the server cannot see client
    user namespaces.
    """
    return Filesystem(
        "nfs",
        features=FsFeatures(user_xattrs=xattr_support, remote_id_enforcement=True),
        label=label,
    )


def make_lustre(
    label: str = "lustre", *, xattr_support: bool = False
) -> Filesystem:
    """Lustre scratch filesystem.

    Default-configured Lustre lacks ``user.*`` xattrs on MDS/OST (paper
    §6.1); sites can enable them on both the metadata server and storage
    targets (§6.2.1).
    """
    return Filesystem(
        "lustre",
        features=FsFeatures(user_xattrs=xattr_support, remote_id_enforcement=True),
        label=label,
    )

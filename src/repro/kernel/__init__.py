"""Simulated Linux kernel substrate.

Everything the paper's container analysis depends on: user namespaces with
UID/GID maps, mount namespaces, a VFS with UNIX permission semantics,
capabilities, and a syscall layer with faithful errno behaviour.
"""

from .capabilities import Cap, EMPTY_CAP_SET, FULL_CAP_SET, cap_set
from .cred import Credentials
from .filesystem import make_ext4, make_lustre, make_nfs, make_tmpfs
from .idmap import IDENTITY_MAP, IdMap, IdMapEntry
from .kernel import Kernel
from .mounts import MountFlags, MountNamespace, normpath
from .process import Process
from .procfs import make_procfs, make_sysfs
from .syscalls import DirEntry, StatResult, Syscalls
from .types import ID_MAX, OVERFLOW_GID, OVERFLOW_UID, ROOT_GID, ROOT_UID
from .userns import SetgroupsPolicy, UserNamespace
from .vfs import (
    FileType,
    Filesystem,
    FsFeatures,
    Inode,
    copy_tree,
    may_access,
    mode_to_string,
)

__all__ = [
    "Cap",
    "EMPTY_CAP_SET",
    "FULL_CAP_SET",
    "cap_set",
    "Credentials",
    "make_ext4",
    "make_lustre",
    "make_nfs",
    "make_tmpfs",
    "IDENTITY_MAP",
    "IdMap",
    "IdMapEntry",
    "Kernel",
    "MountFlags",
    "MountNamespace",
    "normpath",
    "Process",
    "make_procfs",
    "make_sysfs",
    "DirEntry",
    "StatResult",
    "Syscalls",
    "ID_MAX",
    "OVERFLOW_GID",
    "OVERFLOW_UID",
    "ROOT_GID",
    "ROOT_UID",
    "SetgroupsPolicy",
    "UserNamespace",
    "FileType",
    "Filesystem",
    "FsFeatures",
    "Inode",
    "copy_tree",
    "may_access",
    "mode_to_string",
]

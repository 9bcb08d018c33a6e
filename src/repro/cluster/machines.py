"""Machines: booted kernels with users, /dev, and optional shared filesystems.

A :class:`Machine` is one node — a laptop, a login node, or a compute node.
Cluster classes compose several machines over shared filesystems and a
common network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cas.store import ContentStore
from ..helpers import ShadowUtils
from ..kernel import (
    FileType,
    Filesystem,
    Kernel,
    Process,
    Syscalls,
    make_ext4,
    make_tmpfs,
)
from ..net import Network

__all__ = ["Machine", "make_machine"]


@dataclass
class Machine:
    """One booted node."""

    kernel: Kernel
    shadow: ShadowUtils
    dev_fs: Filesystem
    users: dict[str, int] = field(default_factory=dict)
    #: Node-local CAS shared by every builder and storage driver on this
    #: machine — identical layers land once per node, not once per user.
    content_store: ContentStore = field(default_factory=ContentStore)

    @property
    def hostname(self) -> str:
        return self.kernel.hostname

    @property
    def arch(self) -> str:
        return self.kernel.arch

    def root_sys(self) -> Syscalls:
        return Syscalls(self.kernel.init_process)

    def login(self, username: str) -> Process:
        """A login shell for a configured user."""
        uid = self.users[username]
        return self.kernel.login(uid, uid, user=username,
                                 home=f"/home/{username}")

    def mount_shared(self, mountpoint: str, fs: Filesystem) -> None:
        """Attach a shared filesystem (NFS home, Lustre scratch, ...)."""
        sys0 = self.root_sys()
        sys0.mkdir_p(mountpoint)
        self.kernel.init_process.mnt_ns.add_mount(mountpoint, fs)


def make_machine(
    hostname: str,
    *,
    arch: str = "x86_64",
    network: Optional[Network] = None,
    users: Optional[dict[str, int]] = None,
    subids: bool = True,
    kernel_version: tuple[int, int] = (5, 10),
    userns_enabled: bool = True,
    fast: Optional[bool] = None,
) -> Machine:
    """Boot a node: root fs layout, /dev nodes, user accounts, subid grants.
    *fast* is the node kernel's fast-or-reference choice (see
    :class:`~repro.kernel.Kernel`)."""
    kernel = Kernel(make_ext4(f"{hostname}-root"), arch=arch,
                    hostname=hostname, kernel_version=kernel_version,
                    userns_enabled=userns_enabled, fast=fast)
    kernel.network = network
    sys0 = Syscalls(kernel.init_process)
    for d in ("/etc", "/home", "/tmp", "/var/tmp", "/root", "/dev", "/proc",
              "/sys", "/usr/bin", "/opt"):
        sys0.mkdir_p(d)
    sys0.chmod("/tmp", 0o1777)
    sys0.chmod("/var/tmp", 0o1777)

    # /dev lives on a tmpfs with real device nodes (host root may mknod);
    # container runtimes bind-mount this into containers, since creating
    # device nodes inside a user namespace is impossible.
    dev_fs = make_tmpfs(f"{hostname}-dev", root_mode=0o755)
    kernel.init_process.mnt_ns.add_mount("/dev", dev_fs)
    for name, rdev in (("null", (1, 3)), ("zero", (1, 5)),
                       ("urandom", (1, 9)), ("tty", (5, 0))):
        sys0.mknod(f"/dev/{name}", FileType.CHR, 0o666, rdev=rdev)
        sys0.chmod(f"/dev/{name}", 0o666)  # mknod applied the umask

    users = dict(users or {"alice": 1000, "bob": 1001})
    shadow = ShadowUtils(kernel, users=users)
    passwd_lines = [
        "root:x:0:0:root:/root:/bin/sh",
        "nobody:x:65534:65534:nobody:/:/sbin/nologin",
    ]
    group_lines = ["root:x:0:", "nogroup:x:65534:"]
    for name, uid in users.items():
        sys0.mkdir_p(f"/home/{name}")
        sys0.chown(f"/home/{name}", uid, uid)
        sys0.chmod(f"/home/{name}", 0o755)
        passwd_lines.append(f"{name}:x:{uid}:{uid}::/home/{name}:/bin/sh")
        group_lines.append(f"{name}:x:{uid}:")
        if subids:
            shadow.useradd(name, uid)
    sys0.write_file("/etc/passwd", ("\n".join(passwd_lines) + "\n").encode())
    sys0.write_file("/etc/group", ("\n".join(group_lines) + "\n").encode())
    return Machine(kernel, shadow, dev_fs, users)

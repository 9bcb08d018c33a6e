"""The §6.2.2(3) recommendation, implemented: fakeroot moved *into the
container implementation*.

"Rather than installing in the image itself, the wrapper could be moved
into the container implementation.  This would simplify it and also ease
[ownership preservation]."

Real Charliecloud later shipped exactly this as ``ch-image build
--force=seccomp``: a seccomp(2) filter installed by the runtime intercepts
privileged system calls — nothing is installed into the image and no
Dockerfile-visible change happens.

The filter gives *zero consistency*: a privileged call returns success
and does nothing, nothing is recorded, and ``stat`` reports the truth.
The faked calls are ``chown``/``lchown``, ``mknod`` of a character or
block device (nothing is created), ``setxattr`` of ``security.*`` and
``trusted.*``, and the set*id/``setgroups`` family; every other call
reaches the kernel unchanged.  So a later RUN, a cache hit and a push all
see the same tree, and a faked chown or device leaves no trace in it.
Unlike fakeroot(1), the filter also fakes the set*id family, so APT's
privilege drop "succeeds" without the no-sandbox configuration file; and
it sits on the process, not in libc, so static binaries are covered too.

The one place a Type III image built this way differs from a Type II
(rootless Podman) one, ownership aside, is file capabilities: a
``security.capability`` xattr such as ping's ``cap_net_raw+ep`` is stored
only by Type II, whose user namespace owns its filesystem.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import FileType, Syscalls
from ..kernel.mounts import DirFd
from ..obs.trace import instrument_syscalls

__all__ = ["SeccompSyscalls"]


@instrument_syscalls("seccomp")
class SeccompSyscalls(Syscalls):
    """Runtime-installed syscall interception: the privileged calls below
    return success and do nothing; the rest is the kernel's."""

    def __init__(self, inner: Syscalls):
        super().__init__(inner.proc)

    def clone_for(self, proc):
        """seccomp filters are inherited across fork."""
        return SeccompSyscalls(super().clone_for(proc))

    def _succeed(self, *args, **kwargs) -> None:
        """A faked call: success, and nothing done."""

    chown = lchown = _succeed
    setuid = seteuid = setreuid = setresuid = _succeed
    setgid = setegid = setresgid = setgroups = _succeed

    def mknod(self, path: str, ftype: FileType, mode: int = 0o644,
              rdev: tuple[int, int] = (0, 0), *,
              dir_fd: Optional[DirFd] = None) -> None:
        if ftype not in (FileType.CHR, FileType.BLK):
            super().mknod(path, ftype, mode, rdev, dir_fd=dir_fd)

    def setxattr(self, path: str, name: str, value: bytes, *,
                 dir_fd: Optional[DirFd] = None) -> None:
        if not name.startswith(("security.", "trusted.")):
            super().setxattr(path, name, value, dir_fd=dir_fd)

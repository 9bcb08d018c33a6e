"""The simulated kernel: process table, namespaces, clock, sysctls.

One :class:`Kernel` == one machine (one node of the cluster substrate).  The
kernel owns the initial user namespace, boots with a root filesystem, and
hands out :class:`~repro.kernel.process.Process` objects.
"""

from __future__ import annotations

import itertools
import os
from typing import Optional

from ..errors import Errno, KernelError
from ..sim.opts import default_fast
from .cred import Credentials
from .mounts import MountNamespace
from .process import Process
from .userns import UserNamespace
from .vfs import Filesystem

__all__ = ["Kernel"]


class Kernel:
    """A simulated Linux kernel instance.

    Parameters
    ----------
    root_fs:
        Filesystem mounted at ``/``.
    arch:
        ISA of this machine (``x86_64``, ``aarch64``, ``ppc64le``); binaries
        record the ISA they were built for and exec of a mismatched binary
        fails with ENOEXEC, which is what forces Astra users to build on the
        machine itself (paper §4.2).
    kernel_version:
        Feature-gates version-dependent behaviour (user namespaces need
        >= (3, 8); paper §3.1).
    fast:
        Take the fast paths — cached path walks, kept unpack directories,
        the journal snapshot walker — or their reference loops (``False``);
        fixed for the kernel's life.  Default:
        :func:`~repro.sim.opts.default_fast`.
    """

    def __init__(
        self,
        root_fs: Filesystem,
        *,
        arch: str = "x86_64",
        hostname: str = "localhost",
        kernel_version: tuple[int, int] = (5, 10),
        userns_enabled: bool = True,
        fast: Optional[bool] = None,
    ):
        self.arch = arch
        self.fast = default_fast() if fast is None else fast
        self.hostname = hostname
        self.kernel_version = kernel_version
        self.root_fs = root_fs
        self.init_userns = UserNamespace.initial()
        self._ticks = 0
        self._pids = itertools.count(1)
        self.processes: dict[int, Process] = {}
        #: every spawn ever: (pid, comm, euid, caps, userns); see spawn()
        self.spawn_log: list[tuple] = []
        self.userns_count = 0
        self.sysctl: dict[str, int] = {
            "user.max_user_namespaces": 0 if not userns_enabled else 63414,
            # §6.2.4 future-work feature: when 1, the kernel grants every
            # user a guaranteed-unique subordinate range derived from the
            # UID, writable into unprivileged maps with no helper tools.
            "user.autosub_userns": 0,
        }
        #: Attachment point for the outside world (package repos, registries);
        #: set by the cluster substrate.  None = air-gapped.
        self.network = None
        #: Optional :class:`~repro.obs.SyscallTracer`; None = tracing off
        #: (the instrumented syscall fast path checks exactly this).
        self.tracer = None
        if os.environ.get("REPRO_TRACE"):
            from ..obs.trace import attach_tracer
            attach_tracer(self)

        init_mnt = MountNamespace(root_fs, owning_userns=self.init_userns,
                                  fast=self.fast)
        self.init_process = Process(
            self, next(self._pids), 0, Credentials.root(self.init_userns), init_mnt,
            comm="init",
        )
        self.processes[self.init_process.pid] = self.init_process

    #: base of the kernel-managed auto-subordinate ID space (§6.2.4 model):
    #: user *u* owns [AUTOSUB_BASE + u*65536, +65536).  Disjoint from normal
    #: UID allocation and from /etc/subuid's SUB_UID_MIN default space only
    #: if sysadmins keep them apart — exactly the "guaranteed-unique" policy
    #: the paper suggests the kernel could provide.
    AUTOSUB_BASE = 1 << 28
    AUTOSUB_COUNT = 65536

    def autosub_range(self, uid: int) -> tuple[int, int]:
        """(start, count) of the kernel-guaranteed range for *uid*."""
        return self.AUTOSUB_BASE + uid * self.AUTOSUB_COUNT, \
            self.AUTOSUB_COUNT

    # -- time -----------------------------------------------------------------

    def now(self) -> int:
        """Deterministic monotonic clock (ticks, not seconds).  Each call
        *advances* time — the simulation charges one tick per stamped
        operation."""
        self._ticks += 1
        return self._ticks

    @property
    def ticks(self) -> int:
        """Current sim-time without advancing it (tracer timestamps must
        not perturb mtimes or any other now()-derived state)."""
        return self._ticks

    # -- namespaces -------------------------------------------------------------

    def supports_userns(self) -> bool:
        return self.kernel_version >= (3, 8) and (
            self.sysctl["user.max_user_namespaces"] > 0
        )

    def create_userns(self, parent: UserNamespace, owner_uid: int,
                      owner_gid: int) -> UserNamespace:
        if not self.supports_userns():
            raise KernelError(
                Errno.EPERM,
                "user namespaces unavailable (kernel too old or disabled by sysctl)",
            )
        if self.userns_count >= self.sysctl["user.max_user_namespaces"]:
            raise KernelError(Errno.ENOSPC, "user.max_user_namespaces exceeded")
        ns = UserNamespace(parent, owner_uid, owner_gid)
        self.userns_count += 1
        return ns

    # -- processes ---------------------------------------------------------------

    def spawn(
        self,
        *,
        parent: Optional[Process] = None,
        cred: Optional[Credentials] = None,
        mnt_ns: Optional[MountNamespace] = None,
        cwd: str = "/",
        umask: int = 0o022,
        environ: Optional[dict[str, str]] = None,
        comm: str = "proc",
    ) -> Process:
        """Create a process (fork/clone-style)."""
        parent = parent or self.init_process
        proc = Process(
            self,
            next(self._pids),
            parent.pid,
            cred if cred is not None else parent.cred.copy(),
            mnt_ns if mnt_ns is not None else parent.mnt_ns,
            cwd=cwd,
            umask=umask,
            environ=environ,
            comm=comm,
        )
        self.processes[proc.pid] = proc
        # audit trail: (pid, comm, euid-at-spawn, caps-at-spawn, userns) —
        # survives reaping, so privilege audits can see short-lived helpers
        self.spawn_log.append(
            (proc.pid, comm, proc.cred.euid, frozenset(proc.cred.caps),
             proc.cred.userns))
        return proc

    def login(self, uid: int, gid: int, groups: frozenset[int] = frozenset(),
              *, user: str = "user", home: str = "/") -> Process:
        """Convenience: a login shell process for an unprivileged user."""
        cred = Credentials.for_user(uid, gid, groups, self.init_userns)
        env = {"HOME": home, "USER": user, "PATH": "/usr/sbin:/usr/bin:/sbin:/bin"}
        return self.spawn(cred=cred, cwd=home if home else "/", environ=env,
                          comm=f"{user}-shell")

    def reap(self, proc: Process) -> None:
        self.processes.pop(proc.pid, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Kernel {self.hostname} arch={self.arch} "
            f"v{self.kernel_version[0]}.{self.kernel_version[1]} "
            f"procs={len(self.processes)}>"
        )

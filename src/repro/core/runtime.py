"""ch-run: Charliecloud's fully unprivileged container runtime.

Written in C in the real implementation; the semantics are: unprivileged
user namespace (single-ID map), mount namespace, bind mounts, then exec —
no daemon, no helpers, ever.  Default inside-identity is the invoking user
(HPC jobs want your own uid for the shared filesystems); builds use
``--uid 0`` so package managers believe they are root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..containers.runtime import ContainerError, enter_container
from ..errors import KernelError
from ..kernel import Filesystem, Process, Syscalls
from ..shell import OutputSink, execute

__all__ = ["ChRun", "ChRunResult"]


@dataclass
class ChRunResult:
    status: int
    output: str


class ChRun:
    """One user's ch-run on one machine."""

    def __init__(self, machine, user_proc: Process):
        self.machine = machine
        self.user_proc = user_proc

    def run(
        self,
        image: Union[str, Filesystem],
        argv: Sequence[str],
        *,
        binds: Sequence[tuple[str, str]] = (),
        env: Optional[dict[str, str]] = None,
        uid: Optional[int] = None,
        workdir: str = "/",
    ) -> ChRunResult:
        """``ch-run [-b SRC:DST] IMAGE -- CMD ...``

        *image* is an unpacked image directory, or the read-only
        filesystem of a single-file image (SquashFS), which ch-run
        mounts as the container's root."""
        try:
            ctx = enter_container(
                self.user_proc, image, "type3",
                dev_fs=self.machine.dev_fs, env=env, workdir=workdir,
                comm="ch-run")
        except ContainerError as err:
            return ChRunResult(125, f"ch-run: error: {err}")
        if uid is not None and uid != 0:
            # remap display identity: ch-run --uid (cosmetic in Type III,
            # paper §2.1.3 — "only cosmetic effects")
            pass
        host_sys = Syscalls(self.user_proc)
        for src, dst in binds:
            try:
                res = self.user_proc.mnt_ns.resolve(
                    src, self.user_proc.cred, cwd=self.user_proc.cwd)
            except KernelError as err:
                return ChRunResult(125, f"ch-run: can't bind {src}: "
                                        f"{err.strerror}")
            ctx.proc.mnt_ns.add_mount(dst, res.fs, root_ino=res.inode.ino,
                                      owning_userns=ctx.proc.cred.userns)
        sink = OutputSink()
        status = execute(ctx.child(stdout=sink, stderr=sink), list(argv))
        return ChRunResult(status, sink.text())

"""Container entry: the namespace dance each privilege type performs.

This is the common machinery behind runc/crun (Podman), Docker's runtime,
and ch-run — what differs between them is exactly the paper's §2.2 table:

* Type I: mount namespace only; the containerized process keeps host IDs
  (root in the container IS root on the host).
* Type II: privileged user namespace installed by the shadow-utils helpers,
  then a mount namespace.
* Type III: unprivileged user namespace (single-ID maps), then a mount
  namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import KernelError, ReproError
from ..helpers import ShadowUtils
from ..kernel import Filesystem, Process, Syscalls, make_procfs, make_sysfs
from ..shell import ExecContext

__all__ = ["ContainerError", "PRIVILEGE_TYPES", "enter_container",
           "RuncRuntime", "CrunRuntime"]

PRIVILEGE_TYPES = ("type1", "type2", "type3")

_DEFAULT_PATH = "/usr/sbin:/usr/bin:/sbin:/bin"


class ContainerError(ReproError):
    """Container setup or execution failed."""


def enter_container(
    parent: Process,
    image: Union[str, Filesystem],
    privilege: str,
    *,
    dev_fs=None,
    shadow: Optional[ShadowUtils] = None,
    env: Optional[dict[str, str]] = None,
    workdir: str = "/",
    mount_proc: bool = True,
    join_userns=None,
    auto_map: bool = False,
    hostname: Optional[str] = None,
    new_pid_ns: bool = False,
    read_only: bool = False,
    comm: str = "container",
) -> ExecContext:
    """Fork from *parent* and enter a container rooted at *image*: the
    path of an unpacked image tree (pivoted to), or a single-file
    image's read-only filesystem (mounted as the root,
    :meth:`~repro.kernel.Syscalls.mount_image`; see
    :func:`~repro.archive.decode_image`).

    Returns an :class:`ExecContext` whose process lives inside the
    container.  ``dev_fs`` is the host /dev to bind (device nodes cannot be
    created inside user namespaces); ``shadow`` is required for type2.
    ``join_userns`` enters an existing namespace (setns-style) instead of
    creating one — Podman reuses its rootless namespace for storage *and*
    containers, which is what makes its fuse-overlayfs ownership tricks
    legal inside the container.
    """
    if privilege not in PRIVILEGE_TYPES:
        raise ContainerError(f"unknown privilege type {privilege!r}")
    # OCI runtimes give containers a PID namespace (the container process
    # is PID 1); ch-run deliberately does not, so jobs stay plainly visible
    # to the resource manager (§3.1).
    proc = parent.fork(comm=comm, new_pid_ns=new_pid_ns)
    sys = Syscalls(proc)

    if privilege == "type1":
        if proc.cred.euid != 0 or not proc.cred.userns.is_initial:
            raise ContainerError(
                "Type I containers require root on the host (this is "
                "Docker's model — and why unprivileged sites reject it)")
    elif join_userns is not None:
        if join_userns.owner_uid != proc.cred.euid:
            raise ContainerError("cannot join a namespace owned by another "
                                 "user")
        proc.cred.enter_userns(join_userns, full_caps=True)
    elif privilege == "type2":
        if shadow is None:
            raise ContainerError("type2 requires the shadow-utils helpers")
        shadow.setup_rootless_userns(proc)
    else:  # type3
        try:
            if auto_map:
                # §6.2.4 future-kernel mode: full ID range, no helpers
                sys.setup_auto_userns()
            else:
                sys.setup_single_id_userns()
        except KernelError as err:
            raise ContainerError(
                f"cannot create user namespace: {err}") from err

    sys.unshare_mount()
    if hostname is not None:
        # OCI runtimes give containers their own UTS namespace; ch-run
        # keeps the host's (so pass hostname=None for Charliecloud).
        sys.unshare_uts()
        sys.sethostname(hostname)
    try:
        if isinstance(image, Filesystem):
            sys.mount_image(image)
        else:
            sys.pivot_to(image)
    except KernelError as err:
        raise ContainerError(f"cannot enter image {image}: {err}") from err
    if read_only:
        # Shifter-style: the image is a read-only loop mount; jobs cannot
        # modify it (writable scratch comes from bind mounts).
        from ..kernel import MountFlags
        root_mount = proc.mnt_ns.mounts["/"]
        proc.mnt_ns.set_root(root_mount.fs, root_mount.root_ino,
                             owning_userns=root_mount.owning_userns,
                             flags=MountFlags(read_only=True))

    # Runtime mounts.  Device nodes can't be made in a user namespace, so
    # /dev is the host's, bind-mounted (what ch-run and runc both do).
    if dev_fs is not None and sys.exists("/dev"):
        proc.mnt_ns.add_mount("/dev", dev_fs,
                              owning_userns=proc.cred.userns)
    if mount_proc and sys.exists("/proc"):
        proc.mnt_ns.add_mount("/proc", make_procfs(proc.kernel, proc),
                              owning_userns=proc.cred.userns)
    if sys.exists("/sys"):
        proc.mnt_ns.add_mount("/sys", make_sysfs(proc.kernel),
                              owning_userns=proc.cred.userns)

    cenv = {"PATH": _DEFAULT_PATH, "HOME": "/root", "TERM": "dumb"}
    cenv.update(env or {})
    proc.environ = dict(cenv)
    if workdir != "/":
        try:
            sys.mkdir_p(workdir)
            sys.chdir(workdir)
        except KernelError as err:
            raise ContainerError(f"cannot enter workdir {workdir}: {err}") \
                from err
    return ExecContext(proc, sys, env=cenv)


@dataclass
class RuncRuntime:
    """The default OCI runtime Podman drives (paper §4.1).

    cgroups are left unused in rootless mode: "cgroup operations by default
    are generally root-level actions ... a convenient coincidence for HPC".
    """

    name: str = "runc"
    supports_unprivileged_cgroups: bool = False

    def cgroup_setup(self, cred, hierarchy) -> Optional[object]:
        """Attempt cgroup limits for a container; rootless runc skips them."""
        if cred.euid != 0 or not cred.userns.is_initial:
            return None  # silently unused, as deployed on Astra
        return hierarchy.create(hierarchy.root, "container", cred)


@dataclass
class CrunRuntime:
    """crun with the cgroups-v2 prototype: unprivileged cgroup control via
    delegation (paper §4.1 'prototype work is underway')."""

    name: str = "crun"
    supports_unprivileged_cgroups: bool = True

    def cgroup_setup(self, cred, hierarchy) -> Optional[object]:
        if hierarchy.version != 2:
            return None
        try:
            return hierarchy.create(hierarchy.root, "container", cred)
        except KernelError:
            return None

"""Shifter, Sarus, and Enroot (paper §3.1): run-focused HPC implementations.

* **Shifter/Sarus**: Type I examples that "currently focus on distributed
  container launch rather than build" — they *convert* registry images into
  site-local flattened form via a privileged gateway, then run them.
* **Enroot**: "fully unprivileged" with "no setuid binary" (Type III), but
  "as of the current version 3.3, it does not have a build capability,
  relying on conversion of existing images."
"""

from __future__ import annotations


from ..archive import TarArchive
from ..errors import ReproError
from ..kernel import Process, Syscalls
from ..shell import OutputSink, execute
from .oci import ImageRef
from .runtime import ContainerError, enter_container

__all__ = ["ShifterGateway", "Enroot", "HpcRuntimeError"]


class HpcRuntimeError(ReproError):
    """A run-only HPC container tool failed."""


class ShifterGateway:
    """Shifter's image gateway: a privileged site service that pulls from a
    registry and flattens into the site image store; user jobs then run the
    converted image as Type I containers with *user* credentials (never
    root inside)."""

    def __init__(self, machine, *, store_dir: str = "/var/shifter/images"):
        self.machine = machine
        root = machine.kernel.init_process
        if root.cred.euid != 0:
            raise HpcRuntimeError("the Shifter gateway is a root service")
        self.gateway_proc = machine.kernel.spawn(parent=root,
                                                 comm="shifter-gw")
        self.sys = Syscalls(self.gateway_proc)
        self.store_dir = store_dir
        self.sys.mkdir_p(store_dir)
        self._images: dict[str, str] = {}

    def pull(self, ref_text: str) -> str:
        """shifterimg pull: privileged conversion into the site store."""
        ref = ImageRef.parse(ref_text)
        name = str(ref)
        if name in self._images:
            return self._images[name]
        net = self.machine.kernel.network
        if net is None:
            raise HpcRuntimeError("no network")
        _, layers = net.registry(ref.registry or "docker.io").pull(
            ref, arch=self.machine.arch)
        path = f"{self.store_dir}/{ref.flat_name}"
        self.sys.mkdir_p(path)
        try:
            # flattened: site policy, ownership dropped to root:root
            TarArchive.extract_layers(
                (TarArchive([m.flattened() for m in layer])
                 for layer in layers),
                self.sys, path, preserve_owner=True, on_chown_error="ignore")
        except Exception:
            # a partial tree at *path* must not outlive the failed pull
            self.sys.rm_tree(path)
            raise
        # world-readable, like Shifter's loop-mounted squashfs images
        self._images[name] = path
        return path

    def run(self, user_proc: Process, image_ref: str, argv: list[str]
            ) -> tuple[int, str]:
        """shifter --image=...: Type I entry (no user namespace), but the
        process keeps the *user's* credentials — no privilege is granted."""
        path = self._images.get(str(ImageRef.parse(image_ref)))
        if path is None:
            raise HpcRuntimeError(f"image {image_ref!r} not pulled; run "
                                  "shifterimg pull first")
        # the gateway (root) sets up the mount namespace, then the job runs
        # with the invoking user's IDs; the image itself is read-only
        # (Shifter loop-mounts a squashfs)
        ctx = enter_container(self.gateway_proc, path, "type1",
                              dev_fs=self.machine.dev_fs, read_only=True,
                              comm="shifter-job")
        ctx.proc.cred = user_proc.cred.copy()
        sink = OutputSink()
        status = execute(ctx.child(stdout=sink, stderr=sink), argv)
        return status, sink.text()

    def build(self, *_args, **_kwargs):
        raise HpcRuntimeError(
            "Shifter/Sarus focus on distributed launch; they have no build "
            "capability (paper §3.1)")


class Enroot:
    """Enroot: Type III run-only.  Imports existing images, cannot build."""

    def __init__(self, machine, user_proc: Process):
        self.machine = machine
        self.user_proc = user_proc
        self.sys = Syscalls(user_proc)
        user = user_proc.environ.get("USER", "user")
        self.data_dir = f"/home/{user}/.local/share/enroot"
        self.sys.mkdir_p(self.data_dir)
        self._images: dict[str, str] = {}

    def import_image(self, ref_text: str) -> str:
        """enroot import docker://...: unprivileged conversion."""
        ref = ImageRef.parse(ref_text)
        name = str(ref)
        if name in self._images:
            return self._images[name]
        net = self.machine.kernel.network
        if net is None:
            raise HpcRuntimeError("no network")
        _, layers = net.registry(ref.registry or "docker.io").pull(
            ref, arch=self.machine.arch)
        path = f"{self.data_dir}/{ref.flat_name}"
        self.sys.mkdir_p(path)
        try:
            TarArchive.extract_layers(layers, self.sys, path,
                                      preserve_owner=False)
        except Exception:
            # a partial tree at *path* must not outlive the failed import
            self.sys.rm_tree(path)
            raise
        self._images[name] = path
        return path

    def start(self, ref_text: str, argv: list[str]) -> tuple[int, str]:
        """enroot start: fully unprivileged (no setuid binary anywhere)."""
        path = self._images.get(str(ImageRef.parse(ref_text)))
        if path is None:
            raise HpcRuntimeError(f"image {ref_text!r} not imported")
        try:
            ctx = enter_container(self.user_proc, path, "type3",
                                  dev_fs=self.machine.dev_fs,
                                  comm="enroot")
        except ContainerError as err:
            return 125, f"enroot: {err}"
        sink = OutputSink()
        status = execute(ctx.child(stdout=sink, stderr=sink), argv)
        return status, sink.text()

    def build(self, *_args, **_kwargs):
        raise HpcRuntimeError(
            "enroot 3.3 has no build capability; it relies on conversion "
            "of existing images (paper §3.1)")

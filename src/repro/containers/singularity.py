"""Singularity (paper §3.1): the most popular HPC container implementation.

Properties the paper calls out, all modelled:

* runs as Type I (setuid starter) **or** Type II (branded "fakeroot" — not
  to be confused with fakeroot(1), §5.1 footnote 8);
* images are SIF: a single flattened file, "sufficient and in fact
  advantageous for most HPC applications" (§6.2.5);
* as of 3.7 it can *build* in Type II mode, **but only from Singularity
  definition files** — "building from standard Dockerfiles requires a
  separate builder (e.g., Docker) followed by conversion to Singularity's
  image format, which is a limiting factor for interoperability".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..archive import ArchiveError, TarArchive, decode_image, pack_image
from ..cas.store import blob_digest
from ..errors import KernelError, ReproError
from ..kernel import Filesystem, Process, Syscalls
from ..shell import OutputSink, execute
from .oci import ImageRef
from .runtime import ContainerError, enter_container

__all__ = ["Singularity", "SingularityError", "SifImage", "DefinitionFile"]


class SingularityError(ReproError):
    """Singularity operation failed."""


@dataclass(frozen=True)
class SifImage:
    """A Singularity Image File: one flattened, read-only image blob
    (:func:`~repro.archive.pack_image`), mounted to run, never
    unpacked."""

    path: str  # host path of the .sif file
    arch: str

    @property
    def is_flattened(self) -> bool:
        return True  # by construction


@dataclass(frozen=True)
class DefinitionFile:
    """A parsed Singularity definition file.

    Supported headers/sections: ``Bootstrap: docker``, ``From:``, ``%post``,
    ``%environment``, ``%runscript`` — the subset HPC recipes actually use.
    """

    bootstrap: str
    base: str
    post: str = ""
    environment: str = ""
    runscript: str = ""

    @classmethod
    def parse(cls, text: str) -> "DefinitionFile":
        bootstrap = ""
        base = ""
        sections: dict[str, list[str]] = {}
        current: Optional[str] = None
        for line in text.splitlines():
            stripped = line.strip()
            m = re.match(r"^%(\w+)\s*$", stripped)
            if m:
                current = m.group(1).lower()
                sections.setdefault(current, [])
                continue
            if current is None:
                if stripped.lower().startswith("bootstrap:"):
                    bootstrap = stripped.split(":", 1)[1].strip().lower()
                elif stripped.lower().startswith("from:"):
                    base = stripped.split(":", 1)[1].strip()
            else:
                sections[current].append(line)
        if not bootstrap or not base:
            raise SingularityError(
                "definition file needs 'Bootstrap:' and 'From:' headers")
        return cls(
            bootstrap=bootstrap,
            base=base,
            post="\n".join(sections.get("post", [])),
            environment="\n".join(sections.get("environment", [])),
            runscript="\n".join(sections.get("runscript", [])),
        )


class Singularity:
    """One user's Singularity installation on one machine."""

    def __init__(self, machine, user_proc: Process, *,
                 allow_fakeroot: bool = True):
        self.machine = machine
        self.user_proc = user_proc
        self.sys = Syscalls(user_proc)
        self.allow_fakeroot = allow_fakeroot
        user = user_proc.environ.get("USER", "user")
        self.cache_dir = f"/home/{user}/.singularity"
        self.sys.mkdir_p(self.cache_dir)

    # -- build ------------------------------------------------------------------

    def build(self, sif_path: str, definition: str) -> SifImage:
        """``singularity build --fakeroot app.sif app.def``.

        Type II via the site's subordinate-ID configuration; the build input
        MUST be a definition file — Dockerfiles are rejected, which is the
        §3.1 interoperability limitation.
        """
        if definition.lstrip().upper().startswith("FROM "):
            raise SingularityError(
                "this looks like a Dockerfile; Singularity builds only from "
                "definition files — build it with another tool and convert "
                "(paper §3.1)")
        spec = DefinitionFile.parse(definition)
        if spec.bootstrap != "docker":
            raise SingularityError(
                f"unsupported bootstrap {spec.bootstrap!r} (only 'docker')")
        if not self.allow_fakeroot:
            raise SingularityError(
                "fakeroot (Type II) builds disabled by the administrator")

        # Pull the base through the registry, materialize a working tree.
        ref = ImageRef.parse(spec.base)
        net = self.machine.kernel.network
        if net is None:
            raise SingularityError("no network")
        config, layers = net.registry(ref.registry or "docker.io").pull(
            ref, arch=self.machine.arch)
        work = f"{self.cache_dir}/build-{sif_path.rsplit('/', 1)[-1]}"
        if self.sys.exists(work):
            self.sys.rm_tree(work)
        self.sys.mkdir_p(work)

        # Type II namespace for the %post script ("fakeroot" brand).
        build_proc = self.user_proc.fork(comm="singularity-build")
        self.machine.shadow.setup_rootless_userns(build_proc)
        bsys = Syscalls(build_proc)
        TarArchive.extract_layers(layers, bsys, work, preserve_owner=True,
                                  on_chown_error="ignore")

        if spec.post:
            try:
                ctx = enter_container(
                    self.user_proc, work, "type2",
                    dev_fs=self.machine.dev_fs, shadow=self.machine.shadow,
                    join_userns=build_proc.cred.userns,
                    comm="singularity-post")
            except ContainerError as err:
                raise SingularityError(f"%post setup failed: {err}") from err
            sink = OutputSink()
            status = execute(ctx.child(stdout=sink, stderr=sink),
                             ["/bin/sh", "-c", spec.post])
            if status != 0:
                raise SingularityError(
                    f"%post failed with status {status}:\n{sink.text()}")

        # Flatten into the SIF (single file, ownership squashed like §6.2.5).
        self.sys.write_file(sif_path, pack_image(bsys, work, flatten=True))
        return SifImage(path=sif_path, arch=self.machine.arch)

    def build_from_docker_archive(self, sif_path: str,
                                  layers: list[TarArchive]) -> SifImage:
        """The §3.1 conversion path: an image built elsewhere (e.g. Docker)
        converted into SIF.  The layers are unpacked in order (whiteouts
        applied, later members replacing earlier ones) as unprivileged
        tar does, and the tree is flattened into the SIF as
        :meth:`build` flattens its own."""
        work = f"{self.cache_dir}/convert-{sif_path.rsplit('/', 1)[-1]}"
        if self.sys.exists(work):
            self.sys.rm_tree(work)
        self.sys.mkdir_p(work)
        try:
            TarArchive.extract_layers(layers, self.sys, work)
            sif = pack_image(self.sys, work, flatten=True)
        except KernelError as err:
            raise SingularityError(f"cannot convert to SIF: {err}") from err
        finally:
            self.sys.rm_tree(work)
        self.sys.write_file(sif_path, sif)
        return SifImage(path=sif_path, arch=self.machine.arch)

    # -- run --------------------------------------------------------------------

    def run(self, image: SifImage, argv: list[str],
            env: Optional[dict[str, str]] = None) -> tuple[int, str]:
        """``singularity exec app.sif CMD`` — unprivileged (userns) run,
        with the SIF mounted read-only as the container's root."""
        try:
            ctx = enter_container(self.user_proc, self._mount(image),
                                  "type3", dev_fs=self.machine.dev_fs,
                                  env=env, comm="singularity-run")
        except (ContainerError, ArchiveError, KernelError) as err:
            return 125, f"FATAL: {err}"
        sink = OutputSink()
        status = execute(ctx.child(stdout=sink, stderr=sink), argv)
        return status, sink.text()

    def _mount(self, image: SifImage) -> Filesystem:
        """The SIF's read-only filesystem, as squashfuse serves it: read
        the file, hash it, and mount the world's shared decode of that
        digest (a machine off any network decodes its own)."""
        blob = self.sys.read_file(image.path)
        net = self.machine.kernel.network
        if net is None:
            return decode_image(blob, label=image.path)
        return net.decoded_image(blob_digest(blob), blob)

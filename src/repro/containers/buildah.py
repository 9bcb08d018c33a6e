"""Buildah: the build engine Podman delegates to (paper §4).

"Podman and Buildah leverage the same codebase for build operations" — so
this class is the single Type II (and experimental unprivileged) build
implementation, and :class:`~repro.containers.podman.Podman` is the
Docker-CLI-compatible front end over it.

Feature notes from the paper it implements:

* rootless operation through the shadow-utils privileged helpers (§4.1);
* storage drivers ``overlay`` (fuse-overlayfs) and ``vfs`` (§4.1);
* a per-instruction build cache ("this caching can greatly accelerate
  repetitive builds", §6.1 — the capability Charliecloud lacks);
* multi-layer OCI images pushed to OCI-compliant registries;
* the experimental ``--ignore-chown-errors`` single-ID mode (§4.1.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..archive import TarArchive
from ..errors import BuildError, Errno, KernelError, RegistryError
from ..kernel import Process, Syscalls
from ..obs.trace import instrument_syscalls, kernel_span
from ..shell import OutputSink, execute
from .dockerfile import Instruction, parse_dockerfile, split_env_args
from .oci import ImageConfig, ImageRef, Manifest
from .registry import Registry
from .runtime import ContainerError, enter_container
from .storage import StorageDriver, make_driver

__all__ = ["Buildah", "BuildResult", "IgnoreChownSyscalls",
           "DEFAULT_REGISTRY"]

DEFAULT_REGISTRY = "docker.io"


@instrument_syscalls("ignore-chown")
class IgnoreChownSyscalls(Syscalls):
    """The --ignore-chown-errors mode: chown failures are swallowed, so the
    single mapped ID absorbs all ownership (paper §4.1.1)."""

    def __init__(self, inner: Syscalls):
        super().__init__(inner.proc)
        self.inner = inner

    def chown(self, path, uid, gid, *, follow=True, dir_fd=None):
        try:
            self.inner.chown(path, uid, gid, follow=follow, dir_fd=dir_fd)
        except KernelError as err:
            if err.errno not in (Errno.EPERM, Errno.EINVAL):
                raise


@dataclass
class LocalImage:
    """An image in local storage."""

    name: str
    config: ImageConfig
    layers: list[TarArchive]
    tree_path: str


@dataclass
class BuildResult:
    """Outcome of one build."""

    tag: str
    success: bool
    transcript: list[str] = field(default_factory=list)
    instructions_run: int = 0
    cache_hits: int = 0
    error: str = ""

    @property
    def text(self) -> str:
        return "\n".join(self.transcript)


@dataclass(frozen=True)
class _CacheEntry:
    layer: TarArchive  # the diff this instruction produced
    config: ImageConfig


class Buildah:
    """One user's build environment on one machine."""

    def __init__(
        self,
        machine,
        user_proc: Process,
        *,
        driver: str = "overlay",
        storage_dir: Optional[str] = None,
        unprivileged: bool = False,
        ignore_chown_errors: bool = False,
        layers_cache: bool = True,
    ):
        self.machine = machine
        self.user_proc = user_proc
        self.unprivileged = unprivileged
        self.ignore_chown_errors = ignore_chown_errors
        self.layers_cache = layers_cache
        user = user_proc.environ.get("USER", "user")
        self.storage_dir = storage_dir or \
            f"/home/{user}/.local/share/containers/storage"
        # Storage operations run inside a user namespace, so ownership of
        # image files (subordinate IDs in Type II) is legal to manipulate.
        self._storage_proc = user_proc.fork(comm="buildah-storage")
        ssys = Syscalls(self._storage_proc)
        if unprivileged:
            ssys.setup_single_id_userns()
        else:
            machine.shadow.setup_rootless_userns(self._storage_proc)
        self.driver: StorageDriver = make_driver(
            driver, ssys, self.storage_dir,
            content_store=getattr(machine, "content_store", None))
        self.images: dict[str, LocalImage] = {}
        self._cache: dict[str, _CacheEntry] = {}

    # -- registry access -----------------------------------------------------------

    def _registry_for(self, ref: ImageRef) -> Registry:
        net = self.machine.kernel.network
        if net is None:
            raise RegistryError("machine has no network")
        return net.registry(ref.registry or DEFAULT_REGISTRY)

    def pull(self, ref_text: str) -> LocalImage:
        """Pull an image into local storage."""
        ref = ImageRef.parse(ref_text)
        name = str(ref)
        if name in self.images:
            return self.images[name]
        config, layers = self._registry_for(ref).pull(
            ref, arch=self.machine.arch)
        on_err = "ignore" if self.ignore_chown_errors else "raise"
        try:
            path = self.driver.unpack_image(
                name, layers, preserve_owner=True, on_chown_error=on_err)
        except Exception as exc:
            raise BuildError(f"cannot unpack {name}: {exc}") from exc
        img = LocalImage(name, config, list(layers), path)
        self.images[name] = img
        return img

    # -- building --------------------------------------------------------------------

    def build(self, dockerfile: str, tag: str) -> BuildResult:
        """Build *dockerfile*, tagging the result *tag* in local storage."""
        result = BuildResult(tag=tag, success=False)
        with kernel_span(self.machine.kernel, f"build {tag}", "build",
                         tag=tag, builder="buildah") as sp:
            self._build(dockerfile, tag, result)
            if sp is not None and not result.success:
                sp.fail(result.error or "build failed")
        return result

    def _inst_span(self, lineno: int, kind: str, args: str):
        text = f"{kind} {args}".strip()
        return kernel_span(self.machine.kernel, f"{lineno} {text}"[:80],
                           "instruction", lineno=lineno, inst_kind=kind,
                           text=text)

    def _build(self, dockerfile: str, tag: str,
               result: BuildResult) -> None:
        out = result.transcript.append
        try:
            instructions = parse_dockerfile(dockerfile)
        except BuildError as err:
            result.error = str(err)
            out(f"Error: {err}")
            return

        total = len(instructions)
        base_ref = instructions[0].args.split()[0]
        out(f"STEP 1/{total}: FROM {base_ref}")
        with self._inst_span(1, "FROM", base_ref) as sp:
            try:
                base = self.pull(base_ref)
            except (BuildError, RegistryError, ContainerError) as err:
                result.error = str(err)
                out(f"Error: {err}")
                if sp is not None:
                    sp.fail(result.error)
                return

        build_name = f"build-{tag}"
        tree = self.driver.begin_build(base.name, build_name)
        config = base.config
        layers = list(base.layers)
        chain = hashlib.sha256(
            "".join(l.digest() for l in layers).encode()).hexdigest()

        env: dict[str, str] = dict(
            kv.split("=", 1) for kv in config.env if "=" in kv)
        workdir = config.workdir

        for i, inst in enumerate(instructions[1:], start=2):
            out(f"STEP {i}/{total}: {inst.kind} {inst.args}")
            chain = hashlib.sha256(
                (chain + inst.kind + inst.args).encode()).hexdigest()

            if inst.kind in ("ENV", "LABEL", "ARG"):
                pairs = split_env_args(inst.args)
                if inst.kind in ("ENV", "ARG"):
                    env.update(dict(pairs))
                    config = ImageConfig(
                        arch=config.arch,
                        env=tuple(f"{k}={v}" for k, v in env.items()),
                        cmd=config.cmd, entrypoint=config.entrypoint,
                        workdir=workdir, user=config.user,
                        labels=config.labels, history=config.history)
                else:
                    config = ImageConfig(
                        arch=config.arch, env=config.env, cmd=config.cmd,
                        entrypoint=config.entrypoint, workdir=workdir,
                        user=config.user,
                        labels=config.labels + tuple(pairs),
                        history=config.history)
                continue
            if inst.kind == "WORKDIR":
                workdir = inst.args
                continue
            if inst.kind in ("CMD", "ENTRYPOINT"):
                words = tuple(inst.shell_words())
                if inst.kind == "CMD":
                    config = ImageConfig(
                        arch=config.arch, env=config.env, cmd=words,
                        entrypoint=config.entrypoint, workdir=workdir,
                        user=config.user, labels=config.labels,
                        history=config.history)
                else:
                    config = ImageConfig(
                        arch=config.arch, env=config.env, cmd=config.cmd,
                        entrypoint=words, workdir=workdir, user=config.user,
                        labels=config.labels, history=config.history)
                continue
            if inst.kind in ("EXPOSE", "VOLUME", "USER", "SHELL"):
                continue  # recorded nowhere; harmless for HPC images

            with self._inst_span(i, inst.kind, inst.args) as sp:
                if inst.kind in ("COPY", "ADD"):
                    status = self._do_copy(inst, tree, out)
                elif inst.kind == "RUN":
                    if self.layers_cache and chain in self._cache:
                        out("--> Using cache")
                        result.cache_hits += 1
                        entry = self._cache[chain]
                        # apply the cached diff instead of re-running the
                        # command
                        entry.layer.apply_diff(self.driver.sys, tree)
                        layers.append(entry.layer)
                        continue
                    status = self._do_run(inst, tree, env, workdir, out)
                else:  # pragma: no cover - parser prevents this
                    status = 0

                if status != 0:
                    result.error = (f"building at STEP \"{inst.kind} "
                                    f"{inst.args}\": exit status {status}")
                    out(f"Error: {result.error}")
                    if sp is not None:
                        sp.fail(result.error)
                    return
                result.instructions_run += 1
                layer = self.driver.commit(tree, message=inst.args)
                layers.append(layer)
                if self.layers_cache and inst.kind == "RUN":
                    self._cache[chain] = _CacheEntry(layer=layer,
                                                     config=config)

        config = config.with_history(f"built from {base.name}")
        out(f"COMMIT {tag}")
        self.images[tag] = LocalImage(tag, config, layers, tree)
        result.success = True

    def _do_copy(self, inst: Instruction, tree: str, out) -> int:
        parts = inst.args.split()
        if len(parts) != 2:
            out(f"Error: {inst.kind} needs SRC DST")
            return 1
        src, dst = parts
        user_sys = Syscalls(self.user_proc)
        try:
            data = user_sys.read_file(src)
        except KernelError as err:
            out(f"Error: {inst.kind} {src}: {err.strerror}")
            return 1
        target = dst if not dst.endswith("/") else \
            dst + src.rsplit("/", 1)[-1]
        ssys = self.driver.sys
        ssys.mkdir_p((tree + target).rsplit("/", 1)[0])
        ssys.write_file(tree + target, data)
        return 0

    def _do_run(self, inst: Instruction, tree: str,
                env: dict[str, str], workdir: str, out) -> int:
        try:
            ctx = enter_container(
                self.user_proc, tree,
                "type3" if self.unprivileged else "type2",
                dev_fs=self.machine.dev_fs,
                shadow=self.machine.shadow,
                env=env, workdir=workdir or "/",
                join_userns=self._storage_proc.cred.userns,
                comm="buildah-run",
            )
        except ContainerError as err:
            out(f"Error: {err}")
            return 125
        if self.ignore_chown_errors:
            ctx = ctx.child(sys=IgnoreChownSyscalls(ctx.sys))
        sink = OutputSink()
        run_ctx = ctx.child(stdout=sink, stderr=sink)
        status = execute(run_ctx, inst.shell_words())
        for line in sink.lines():
            out(line)
        return status

    # -- push / export -----------------------------------------------------------------

    def push(self, local_name: str, dest: str) -> Manifest:
        """Push a local image to a registry, as the multi-layer OCI image
        Buildah produces (unchanged layers are deduplicated server-side)."""
        try:
            img = self.images[local_name]
        except KeyError:
            raise BuildError(f"no local image {local_name!r}")
        ref = ImageRef.parse(dest)
        return self._registry_for(ref).push(ref, img.config, img.layers)

    def image_tree(self, name: str) -> str:
        return self.images[name].tree_path

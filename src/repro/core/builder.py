"""ch-image build: the fully unprivileged (Type III) Dockerfile interpreter.

Every RUN executes in a fresh unprivileged user namespace mapping the
invoking user to container root — no helpers, no daemon, no setuid: "the
entire build process is fully unprivileged; all security boundaries remain
within the Linux kernel" (paper §6.1).

With ``--force``, ch-image detects the image's distribution and injects
fakeroot(1) initialization and per-RUN wrapping (§5.3); without it, the
same detection still happens so the tool can *suggest* --force when the
build fails (design principle 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..archive import TarArchive
from ..cas.cache import BuildCache
from ..cas.diff import apply_diff_to_snapshot, snapshot_and_diff
from ..cas.store import blob_digest
from ..containers.dockerfile import (
    Instruction,
    parse_stage_graph,
    split_env_args,
)
from ..containers.oci import ImageConfig
from ..containers.runtime import ContainerError, enter_container
from ..errors import BuildError, KernelError
from ..kernel import Process, Syscalls
from ..obs.trace import attach_tracer, kernel_span
from ..shell import ExecContext, OutputSink, execute
from .force import ForceConfig, detect_config
from .images import ImageStorage
from .seccomp import SeccompSyscalls

__all__ = ["ChImage", "ChBuildResult"]


@dataclass
class ChBuildResult:
    """Outcome of one ch-image build, with the figure-style transcript.

    Parallel builds (``build(parallel=N)``) additionally report the
    virtual-time ``makespan``, the ``critical_path`` length (the floor no
    parallelism can beat), and the full
    :class:`~repro.core.build_graph.ScheduleReport` in ``schedule``.
    """

    tag: str
    success: bool = False
    transcript: list[str] = field(default_factory=list)
    modified_runs: int = 0
    init_steps_run: int = 0
    instructions: int = 0
    cache_hits: int = 0
    exit_status: int = 0
    error: str = ""
    parallelism: int = 1
    makespan: float = 0.0
    critical_path: float = 0.0
    schedule: Optional[object] = None

    @property
    def text(self) -> str:
        return "\n".join(self.transcript)


class ChImage:
    """One user's ch-image instance on one machine.

    ``cache=True`` enables the per-instruction build cache the paper lists
    as missing in §6.1 and recommends in §6.2.2 ("Charliecloud-specific
    improvements like image layers and build caching").  ``auto_map=True``
    uses the §6.2.4 future-kernel guaranteed-unique ID ranges instead of
    single-ID maps (requires the ``user.autosub_userns`` sysctl).
    """

    def __init__(self, machine, user_proc: Process,
                 storage_dir: Optional[str] = None, *,
                 cache: bool = False, auto_map: bool = False,
                 force_mode: str = "fakeroot",
                 build_cache: Optional[BuildCache] = None):
        if force_mode not in ("fakeroot", "seccomp"):
            raise ValueError(f"unknown force mode {force_mode!r}")
        self.machine = machine
        self.user_proc = user_proc
        self.storage = ImageStorage(machine, user_proc, storage_dir)
        self.sys = Syscalls(user_proc)
        self.auto_map = auto_map
        self.force_mode = force_mode
        #: The instruction-level build cache (None = disabled).  Passing a
        #: shared :class:`~repro.cas.BuildCache` lets several builders
        #: (even different users) hit each other's instruction results;
        #: they share its one ``stats``, and a caller that wants one
        #: build's traffic takes ``stats.delta`` around it (builds run
        #: synchronously).  A size bound goes on the cache's store.
        if build_cache is not None:
            self.cache: Optional[BuildCache] = build_cache
        elif cache:
            self.cache = BuildCache()
        else:
            self.cache = None

    @property
    def cache_enabled(self) -> bool:
        return self.cache is not None

    # -- observability -----------------------------------------------------------

    @property
    def tracer(self):
        """The machine kernel's tracer, if one is attached."""
        return self.machine.kernel.tracer

    def enable_tracing(self, **kwargs):
        """Attach a :class:`~repro.obs.SyscallTracer` to this machine's
        kernel (idempotent); ``ch-image build --trace`` calls this."""
        return attach_tracer(self.machine.kernel, **kwargs)

    def _inst_span(self, lineno: int, kind: str, args: str):
        text = f"{kind} {args}".strip()
        return kernel_span(self.machine.kernel, f"{lineno} {text}"[:80],
                           "instruction", lineno=lineno, inst_kind=kind,
                           text=text)

    # -- public operations -------------------------------------------------------

    def pull(self, ref: str) -> str:
        return self.storage.pull(ref)

    def build(self, *, tag: str, dockerfile: str, force: bool = False,
              parallel: int = 1, sim=None, fault_plan=None,
              retry_budget: int = 8) -> ChBuildResult:
        """``ch-image build [--force] [--parallel N] -t tag -f dockerfile .``

        Multi-stage Dockerfiles (``FROM ... AS name`` + ``COPY --from=``)
        are supported; only the final stage is tagged.  With
        ``parallel > 1`` (or an explicit *sim* engine) independent stages
        build concurrently on the sim clock via
        :func:`~repro.core.build_graph.build_parallel`; the image digests
        are identical either way.  A *fault_plan* with worker crashes
        (parallel builds only) kills workers on the sim clock; their
        stages requeue onto survivors up to *retry_budget* times.
        """
        if parallel != 1 or sim is not None:
            from .build_graph import build_parallel  # lazy: avoids cycle
            return build_parallel(self, tag=tag, dockerfile=dockerfile,
                                  force=force, parallelism=parallel,
                                  engine=sim, fault_plan=fault_plan,
                                  retry_budget=retry_budget)
        result = ChBuildResult(tag=tag)
        with kernel_span(self.machine.kernel, f"build {tag}", "build",
                         tag=tag, force=force,
                         force_mode=self.force_mode if force else "") as sp:
            self._build(tag, dockerfile, force, result)
            if sp is not None and not result.success:
                sp.fail(result.error or "build failed")
        return result

    def _build(self, tag: str, dockerfile: str, force: bool,
               result: ChBuildResult) -> None:
        out = result.transcript.append
        try:
            graph = parse_stage_graph(dockerfile)
        except BuildError as err:
            result.error = str(err)
            out(f"error: {err}")
            return

        stage_names: dict[str, str] = {}  # AS-name / index -> storage name
        n = len(graph)
        for stage in graph.stages:
            last = stage.index == n - 1
            stage_tag = tag if last else f"{tag}%stage{stage.index}"
            ok = self._build_stage(
                list(stage.instructions), stage_tag, force, result, out,
                stage_names, stage.first_ordinal, is_last=last,
                final_tag=tag)
            if not ok:
                return
            stage_names[str(stage.index)] = stage_tag
        result.success = True

    def _build_stage(self, instructions, tag: str, force: bool,
                     result: ChBuildResult, out, stage_names: dict[str, str],
                     lineno: int, *, is_last: bool, final_tag: str) -> bool:
        """Build one stage (instruction ordinals start at *lineno*)."""
        from_parts = instructions[0].args.split()
        base_ref = from_parts[0]
        as_name = None
        if len(from_parts) >= 3 and from_parts[1].upper() == "AS":
            as_name = from_parts[2].lower()  # stage names: case-insensitive
        with self._inst_span(lineno, "FROM", instructions[0].args) as sp:
            out(f"  {lineno} FROM {instructions[0].args}")
            try:
                base_name = stage_names.get(base_ref.lower())
                if base_name is None:  # not a stage: pull the image
                    self.storage.pull(base_ref)
                    base_name = base_ref
            except Exception as exc:
                result.error = f"cannot pull {base_ref}: {exc}"
                out(f"error: {result.error}")
                if sp is not None:
                    sp.fail(result.error)
                return False
            image_path = self.storage.copy(base_name, tag,
                                           clone=self.cache_enabled)
            config = self.storage.config_of(base_name)
        if as_name is not None:
            # registered *after* base resolution: FROM x AS x refers to
            # the external image x, not the stage being defined
            stage_names[as_name] = tag
        result.instructions = lineno

        # Build-cache chain: rooted in the base image's identity digest so
        # independent builders derive identical keys.  ``snap`` is lazy —
        # an all-hits warm build never packs the tree at all.
        ckey = ""
        snap: Optional[dict] = None
        if self.cache_enabled:
            ckey = self.cache.begin(
                self.storage.digest_of(base_name), force=force,
                force_mode=self.force_mode if force else "")

        force_config = detect_config(self.sys, image_path)
        if force and self.force_mode == "seccomp":
            out("will use --force: seccomp: fake privileged syscalls "
                "(no image modification)")
        elif force and force_config is not None:
            out(f"will use --force: {force_config.name}: "
                f"{force_config.description}")
        elif force:
            out("--force specified, but no suitable configuration found")

        env: dict[str, str] = dict(
            kv.split("=", 1) for kv in config.env if "=" in kv)
        workdir = config.workdir
        initialized = False
        saw_modifiable_failure = False

        for i, inst in enumerate(instructions[1:], start=lineno + 1):
            result.instructions = i
            with self._inst_span(i, inst.kind, inst.args) as sp:
                if self.cache_enabled and inst.kind not in ("COPY", "ADD",
                                                            "RUN"):
                    # config-only instructions extend the chain (their text
                    # is part of the key) but cache no tree diff
                    ckey = self.cache.extend(ckey, inst.kind, inst.args)
                if inst.kind in ("ENV", "ARG"):
                    env.update(dict(split_env_args(inst.args)))
                    out(f"  {i} {inst.kind} {inst.args}")
                    continue
                if inst.kind == "LABEL":
                    out(f"  {i} LABEL {inst.args}")
                    continue
                if inst.kind == "WORKDIR":
                    workdir = inst.args
                    out(f"  {i} WORKDIR {inst.args}")
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
                            entrypoint=words, workdir=workdir,
                            user=config.user, labels=config.labels,
                            history=config.history)
                    out(f"  {i} {inst.kind} {inst.args}")
                    continue
                if inst.kind in ("COPY", "ADD"):
                    out(f"  {i} {inst.kind} {inst.args}")
                    if self.cache_enabled:
                        ckey = self.cache.extend(
                            ckey, inst.kind, inst.args,
                            context=self._copy_context_digest(inst,
                                                              stage_names))
                        diff = self._cache_lookup(ckey, i, inst.kind)
                        if diff is not None:
                            out(f"  {i} {inst.kind}: using build cache")
                            result.cache_hits += 1
                            diff.apply_diff(self.sys, image_path)
                            if snap is not None:
                                snap = apply_diff_to_snapshot(snap, diff)
                            continue
                        if snap is None:
                            snap = self.storage.snapshot(tag)
                    status = self._do_copy(inst, image_path, out,
                                           stage_names=stage_names)
                    if status != 0:
                        result.error = (f"build failed: {inst.kind} failed")
                        out(f"error: {result.error}")
                        if sp is not None:
                            sp.fail(result.error)
                        return False
                    if self.cache_enabled:
                        snap = self._cache_store(ckey, inst, image_path,
                                                 snap)
                    continue
                if inst.kind != "RUN":
                    out(f"  {i} {inst.kind} {inst.args}")
                    continue

                # RUN
                words = inst.shell_words()
                out(f"  {i} RUN {words!r}")
                if self.cache_enabled:
                    ckey = self.cache.extend(ckey, "RUN", inst.args)
                    diff = self._cache_lookup(ckey, i, "RUN")
                    if diff is not None:
                        out(f"  {i} RUN: using build cache")
                        result.cache_hits += 1
                        diff.apply_diff(self.sys, image_path)
                        if snap is not None:
                            snap = apply_diff_to_snapshot(snap, diff)
                        continue
                    if snap is None:
                        snap = self.storage.snapshot(tag)
                modifiable = (force_config is not None
                              and force_config.run_modifiable(inst.args))
                seccomp = False
                if force and self.force_mode == "seccomp":
                    # §6.2.2(3): the wrapper lives in the runtime; every RUN
                    # is covered, no distro detection or image changes needed
                    out("workarounds: RUN: seccomp")
                    result.modified_runs += 1
                    seccomp = True
                else:
                    if force and modifiable and not initialized:
                        status = self._run_init(force_config, image_path, env,
                                                workdir, out, result)
                        if status != 0:
                            result.error = ("build failed: --force "
                                            "initialization failed with "
                                            f"status {status}")
                            result.exit_status = status
                            out(f"error: {result.error}")
                            if sp is not None:
                                sp.fail(result.error)
                            return False
                        initialized = True
                    if force and modifiable:
                        words = ["fakeroot"] + words
                        out(f"workarounds: RUN: new command: {words!r}")
                        result.modified_runs += 1

                status = self._run_in_container(image_path, words, env,
                                                workdir, out, seccomp=seccomp)
                if status == 0 and self.cache_enabled:
                    snap = self._cache_store(ckey, inst, image_path, snap)
                if status != 0:
                    if modifiable and not force:
                        saw_modifiable_failure = True
                    result.exit_status = status
                    result.error = (f"build failed: RUN command exited "
                                    f"with {status}")
                    out(f"error: {result.error}")
                    if saw_modifiable_failure and force_config is not None:
                        out(f"hint: --force may fix it: {force_config.name}: "
                            f"{force_config.description}")
                    if sp is not None:
                        sp.fail(result.error)
                    return False

        if is_last:
            if force:
                out(f"--force: init OK & modified {result.modified_runs} "
                    "RUN instructions")
            out(f"grown in {result.instructions} instructions: {final_tag}")
        if self.cache_enabled:
            # the tag marks this chain reachable for GC, and roots any
            # later FROM of this stage/image deterministically
            self.cache.tag(tag, ckey)
            self.storage.set_digest(tag, "chain:" + ckey)
        self.storage.set_config(tag, config.with_history(
            f"ch-image build {'--force ' if force else ''}from {base_ref}"))
        return True

    # -- internals ----------------------------------------------------------------

    def _enter(self, image_path: str, env: dict[str, str], workdir: str
               ) -> ExecContext:
        return enter_container(
            self.user_proc, image_path, "type3",
            dev_fs=self.machine.dev_fs, env=env, workdir=workdir or "/",
            auto_map=self.auto_map, comm="ch-run")

    # -- build cache (§6.2.2 extension) ---------------------------------------------

    def _copy_context_digest(self, inst: Instruction, stage_names) -> str:
        """Digest of the bytes a COPY/ADD would bring in, so content
        changes invalidate the key even when the instruction text does
        not (BuildKit context hashing)."""
        parts = inst.args.split()
        prefix = ""
        if parts and parts[0].startswith("--from="):
            name = (stage_names or {}).get(
                parts[0].split("=", 1)[1].lower())
            if name is None:
                return "missing-stage"
            prefix = self.storage.path_of(name)
            parts = parts[1:]
        if len(parts) != 2:
            return "malformed"
        try:
            return blob_digest(self.sys.read_file(prefix + parts[0]))
        except KernelError as err:
            return f"unreadable:{err.errno}"

    def _cache_lookup(self, ckey: str, lineno: int,
                      kind: str) -> Optional[TarArchive]:
        """Probe the cache, with a span + counter for the obs layer."""
        with kernel_span(self.machine.kernel, f"cache lookup {lineno}",
                         "cache", lineno=lineno, inst_kind=kind) as sp:
            diff = self.cache.lookup(ckey)
            event = "hit" if diff is not None else "miss"
            if sp is not None:
                sp.meta["result"] = event
            tracer = self.tracer
            if tracer is not None:
                tracer.metrics.counters.count(f"cache.{event}")
        return diff

    def _cache_store(self, ckey: str, inst: Instruction, image_path: str,
                     snap: dict) -> dict:
        """Commit the instruction's tree diff to the cache; returns the
        updated snapshot (carried forward to the next instruction)."""
        with kernel_span(self.machine.kernel, f"cache store {inst.kind}",
                         "cache", inst_kind=inst.kind) as sp:
            diff, snap = snapshot_and_diff(self.sys, image_path, snap)
            self.cache.store_diff(ckey, inst.kind, inst.args, diff)
            if sp is not None:
                sp.meta["diff_members"] = len(diff)
            tracer = self.tracer
            if tracer is not None:
                tracer.metrics.counters.count("cache.store")
        return snap

    def _run_in_container(self, image_path: str, argv: list[str],
                          env: dict[str, str], workdir: str, out, *,
                          seccomp: bool = False) -> int:
        try:
            ctx = self._enter(image_path, env, workdir)
        except ContainerError as err:
            out(f"error: {err}")
            return 125
        if seccomp:
            ctx = ctx.child(sys=SeccompSyscalls(ctx.sys))
        sink = OutputSink()
        status = execute(ctx.child(stdout=sink, stderr=sink), list(argv))
        for line in sink.lines():
            out(line)
        return status

    def _run_init(self, config: ForceConfig, image_path: str,
                  env: dict[str, str], workdir: str, out,
                  result: ChBuildResult) -> int:
        """Run the config's init steps: check, then do if needed (§5.3.1)."""
        kernel = self.machine.kernel
        for n, step in enumerate(config.init_steps, start=1):
            with kernel_span(kernel, f"force init step {n}", "force-init",
                             step=n, check=step.check_cmd) as sp:
                out(f"workarounds: init step {n}: checking: "
                    f"$ {step.check_cmd}")
                status = self._run_in_container(
                    image_path, ["/bin/sh", "-c", step.check_cmd], env,
                    workdir, lambda line: None)  # check output is discarded
                if status == 0:
                    continue
                out(f"workarounds: init step {n}: $ {step.do_cmd}")
                status = self._run_in_container(
                    image_path, ["/bin/sh", "-c", step.do_cmd], env, workdir,
                    out)
                if status != 0:
                    if sp is not None:
                        sp.fail(f"init step {n} exited with {status}")
                    return status
                result.init_steps_run += 1
        return 0

    def _do_copy(self, inst: Instruction, image_path: str, out, *,
                 stage_names=None) -> int:
        parts = inst.args.split()
        from_stage = None
        if parts and parts[0].startswith("--from="):
            from_stage = parts[0].split("=", 1)[1]
            parts = parts[1:]
        if len(parts) != 2:
            out("error: COPY needs SRC DST")
            return 1
        src, dst = parts
        if from_stage is not None:
            name = (stage_names or {}).get(from_stage.lower())
            if name is None:
                out(f"error: COPY --from={from_stage}: no such stage")
                return 1
            src = self.storage.path_of(name) + src
        try:
            data = self.sys.read_file(src)
        except KernelError as err:
            out(f"error: COPY {src}: {err.strerror}")
            return 1
        target = dst if not dst.endswith("/") else \
            dst + src.rsplit("/", 1)[-1]
        full = image_path + target
        self.sys.mkdir_p(full.rsplit("/", 1)[0])
        self.sys.write_file(full, data)
        return 0

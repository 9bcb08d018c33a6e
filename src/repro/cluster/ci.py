"""A GitLab-like CI substrate.

Paper §5.3.3: a production application "has integrated Charliecloud
container build into its CI pipeline using a sequence of three Dockerfiles
... Build and validate both run on supercomputer compute nodes using normal
jobs, and the pipeline is coordinated by a separate GitLab server."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ReproError, SupplyPolicyError
from ..obs.trace import maybe_span

__all__ = ["CiJob", "CiStage", "CiPipeline", "CiServer", "CiError",
           "BuildFarm", "FarmImage", "FarmReport", "farm_build_stage",
           "policy_gate_stage"]


class CiError(ReproError):
    """Pipeline definition or execution failure."""


@dataclass
class CiJob:
    """One CI job: a callable returning (status, output)."""

    name: str
    run: Callable[[], tuple[int, str]]
    status: Optional[int] = None
    output: str = ""

    @property
    def passed(self) -> bool:
        return self.status == 0


@dataclass
class CiStage:
    """One pipeline stage; all jobs must pass before the next stage runs."""

    name: str
    jobs: list[CiJob] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(j.passed for j in self.jobs)


@dataclass
class PipelineResult:
    pipeline: "CiPipeline"
    passed: bool
    failed_stage: Optional[str] = None

    def report(self) -> str:
        lines = [f"pipeline {self.pipeline.name}: "
                 f"{'passed' if self.passed else 'FAILED'}"]
        for stage in self.pipeline.stages:
            for job in stage.jobs:
                mark = {True: "ok", False: "FAIL", None: "skipped"}[
                    job.passed if job.status is not None else None]
                lines.append(f"  [{stage.name}] {job.name}: {mark}")
        return "\n".join(lines)


@dataclass
class CiPipeline:
    """An ordered sequence of stages.

    ``tracer`` is an optional :class:`~repro.obs.SyscallTracer`; when set,
    the run is recorded as pipeline/stage/job spans (the deploy phases of
    the §4.2 Astra workflow show up in the same trace as the build)."""

    name: str
    stages: list[CiStage] = field(default_factory=list)
    tracer: Optional[object] = None

    def stage(self, name: str) -> CiStage:
        s = CiStage(name)
        self.stages.append(s)
        return s

    def run(self) -> PipelineResult:
        with maybe_span(self.tracer, f"pipeline {self.name}",
                        "pipeline") as psp:
            for stage in self.stages:
                if not stage.jobs:
                    raise CiError(f"stage {stage.name!r} has no jobs")
                with maybe_span(self.tracer, f"stage {stage.name}",
                                "stage") as ssp:
                    for job in stage.jobs:
                        with maybe_span(self.tracer, f"job {job.name}",
                                        "job") as jsp:
                            job.status, job.output = job.run()
                            if jsp is not None and not job.passed:
                                jsp.fail(f"exited with {job.status}")
                    if ssp is not None and not stage.passed:
                        ssp.fail("stage failed")
                if not stage.passed:
                    if psp is not None:
                        psp.fail(f"failed at stage {stage.name}")
                    return PipelineResult(self, False,
                                          failed_stage=stage.name)
            return PipelineResult(self, True)


@dataclass
class FarmImage:
    """One image submitted to a :class:`BuildFarm`."""

    tag: str
    dockerfile: str
    force: bool = False
    priority: Optional[int] = None   # FIFO tie-break (default: submit order)
    result: Optional[object] = None  # ChBuildResult, set by run()
    deduped: bool = False
    #: this image's own slice of the farm cache counters (a
    #: :class:`~repro.cas.BuildCacheStats` delta): hits/misses/stores are
    #: what *this* build did against the shared cache, and
    #: ``inflight_hits`` is 1 when it parked behind an identical in-flight
    #: build — the per-cell attribution a matrix amplification report needs
    cache_stats: Optional[object] = None

    @property
    def success(self) -> bool:
        return self.result is not None and self.result.success


@dataclass
class FarmReport:
    """What one :meth:`BuildFarm.run` produced."""

    images: list[FarmImage]
    schedule: object                   # core.build_graph.ScheduleReport
    cache_stats: object                # cas.BuildCacheStats (a copy)

    @property
    def success(self) -> bool:
        return all(img.success for img in self.images)

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def inflight_hits(self) -> int:
        return self.schedule.inflight_hits

    @property
    def worker_crashes(self) -> int:
        return getattr(self.schedule, "worker_crashes", 0)

    @property
    def requeues(self) -> int:
        return getattr(self.schedule, "requeues", 0)

    @property
    def attempts(self) -> int:
        """Total task execution attempts (requeues included)."""
        return sum(getattr(t, "attempts", 1) for t in self.schedule.tasks)

    @property
    def degraded(self) -> bool:
        """True when the farm lost a worker mid-run."""
        return self.worker_crashes > 0

    def per_image_stats(self) -> dict[str, dict]:
        """Cache hit/miss/store/inflight attribution per submitted image
        (tag -> counter dict).  The cache's own stats answer "how
        warm was the farm"; this answers "which image paid for it" —
        e.g. which matrix cell amplified the cache and which one filled
        it."""
        out: dict[str, dict] = {}
        for img in self.images:
            stats = img.cache_stats
            out[img.tag] = (stats.as_dict() if stats is not None
                            else {})
        return out


class BuildFarm:
    """A ``parallelism=N`` build farm: whole images as concurrent tasks.

    The CI analogue of ``ch-image build --parallel``: every submitted
    image is a task on one
    :class:`~repro.core.build_graph.BuildGraphScheduler`, so independent
    images overlap on the sim clock while sharing ONE machine-wide
    :class:`~repro.cas.ContentStore`-backed build cache.  Two submissions
    with the same Dockerfile text and force mode collide on their Merkle
    plan key and **single-flight**: the second blocks behind the first's
    in-flight execution, then replays warm (all cache hits) — the
    ``inflight_hits`` the §6.1 re-execution-cost story wants collapsed.
    """

    def __init__(self, machine, user_proc, *, parallelism: int = 2,
                 engine=None, build_cache=None,
                 force_mode: str = "fakeroot", storage_dir=None,
                 fault_plan=None, retry_budget: int = 8):
        from ..cas.cache import BuildCache
        from ..core.builder import ChImage
        self.machine = machine
        self.parallelism = parallelism
        self.engine = engine
        #: optional :class:`~repro.sim.FaultPlan`: worker crashes fire on
        #: the farm's sim clock; crashed workers' images are requeued and
        #: single-flight waiters are promoted rather than deadlocked
        self.fault_plan = fault_plan
        self.retry_budget = retry_budget
        #: one cache for the whole farm, its layer diffs deduplicated in
        #: the machine's content store (shared with image pulls)
        self.cache = build_cache if build_cache is not None else \
            BuildCache(store=machine.content_store)
        self.builder = ChImage(machine, user_proc, storage_dir,
                               build_cache=self.cache,
                               force_mode=force_mode)
        self.pending: list[FarmImage] = []
        self.report: Optional[FarmReport] = None

    def submit(self, *, tag: str, dockerfile: str, force: bool = False,
               priority: Optional[int] = None) -> FarmImage:
        """Queue one image build; call :meth:`run` to execute the batch.
        *priority* breaks FIFO ties among equally-ready images (lower
        first; default submission order) — a matrix orchestrator uses it
        to front-load the cells that fill the shared cache."""
        if self.report is not None:
            raise CiError("build farm already ran")
        spec = FarmImage(tag=tag, dockerfile=dockerfile, force=force,
                         priority=priority)
        self.pending.append(spec)
        return spec

    def run(self) -> FarmReport:
        """Build everything submitted; idempotent (returns the first
        report on re-entry, so CI jobs can all poke it)."""
        if self.report is not None:
            return self.report
        from ..core.build_graph import BuildGraphScheduler, plan_flight_key
        kernel = self.machine.kernel
        scheduler = BuildGraphScheduler(
            engine=self.engine, parallelism=self.parallelism,
            ticks=lambda: kernel.ticks, cache=self.cache,
            kernel=kernel, fail_fast=False, fault_plan=self.fault_plan,
            retry_budget=self.retry_budget)

        def make_fn(spec: FarmImage):
            def build():
                # builds execute synchronously at dispatch, so snapshotting
                # the shared cache's counters around the call attributes
                # exactly this image's cache traffic (re-run on a crash
                # requeue, so the surviving attempt's slice wins)
                before = self.cache.stats.copy()
                spec.result = self.builder.build(
                    tag=spec.tag, dockerfile=spec.dockerfile,
                    force=spec.force)
                spec.cache_stats = self.cache.stats.delta(before)
                return spec.result
            return build

        for spec in self.pending:
            scheduler.add_task(
                spec.tag, make_fn(spec),
                flight_key=plan_flight_key(
                    spec.dockerfile, force=spec.force,
                    force_mode=self.builder.force_mode),
                ok=lambda r: r.success,
                priority=spec.priority)
        schedule = scheduler.run()
        for spec, task in zip(self.pending, schedule.tasks):
            spec.deduped = task.deduped
            if task.deduped and spec.cache_stats is not None:
                # the in-flight wait is booked on the shared cache before
                # the warm replay runs; mirror it onto the image's own
                # slice so per-cell attribution sees the park
                spec.cache_stats.inflight_hits = 1
            if not task.ok and spec.result is not None \
                    and spec.result.success:
                # the worker died before this build's completion landed:
                # the host-side result exists, but the virtual build never
                # finished and the retry budget is spent — not a success
                spec.result = None
        self.report = FarmReport(images=list(self.pending),
                                 schedule=schedule,
                                 cache_stats=self.cache.stats.copy())
        return self.report


def farm_build_stage(pipeline: CiPipeline, farm: BuildFarm, *,
                     name: str = "build-farm") -> CiStage:
    """Add a stage whose jobs are the farm's images: the first job to run
    executes the whole batch (images still build concurrently on the sim
    clock inside the farm); each job then reports its own image."""
    if not farm.pending:
        raise CiError("build farm has no submitted images")
    stage = pipeline.stage(name)
    for index, spec in enumerate(farm.pending):

        def run(index=index, spec=spec):
            report = farm.run()
            task = report.schedule.tasks[index]
            if not spec.success:
                detail = spec.result.error if spec.result is not None \
                    else task.error
                return 1, f"{spec.tag}: FAILED: {detail}"
            note = " [single-flight: warm replay]" if spec.deduped else ""
            return 0, (f"{spec.tag}: ok on worker {task.worker} "
                       f"({task.finish - task.start:.6f}s virtual, "
                       f"queue wait {task.queue_wait:.6f}s){note}")

        stage.jobs.append(CiJob(f"build {spec.tag}", run))
    return stage


def policy_gate_stage(pipeline: CiPipeline, gate, registry, refs, *,
                      name: str = "policy-gate") -> CiStage:
    """Add a stage that runs the supply-chain
    :class:`~repro.supply.PolicyGate` over every pushed *ref* — one job
    per image, so the pipeline report names exactly which image failed
    which policy.  Placed between push and deploy, a failing gate stops
    the pipeline before any broadcast traffic is scheduled."""
    stage = pipeline.stage(name)
    for ref in refs:

        def run(ref=ref):
            try:
                report = gate.check(registry, ref)
            except SupplyPolicyError as err:
                return 1, f"{ref}: REJECTED: " + "; ".join(err.violations)
            except ReproError as err:
                return 1, f"{ref}: audit failed: {err}"
            worst = report.worst_severity or "clean"
            return 0, (f"{ref}: pass (signed by {report.signature_key}, "
                       f"{report.package_count} packages, "
                       f"{len(report.findings)} findings, worst {worst})")

        stage.jobs.append(CiJob(f"audit {ref}", run))
    return stage


class CiServer:
    """The coordinating server: holds pipelines and their history.

    An attached ``tracer`` propagates to pipelines created through
    :meth:`new_pipeline` (and to untraced pipelines at trigger time)."""

    def __init__(self, name: str = "gitlab"):
        self.name = name
        self.history: list[PipelineResult] = []
        self.tracer = None

    def new_pipeline(self, name: str) -> CiPipeline:
        return CiPipeline(name, tracer=self.tracer)

    def trigger(self, pipeline: CiPipeline) -> PipelineResult:
        if pipeline.tracer is None:
            pipeline.tracer = self.tracer
        result = pipeline.run()
        self.history.append(result)
        return result

"""The parallel build engine: stage-DAG scheduling on the sim clock.

The paper's Astra workflow (§4.2) treats build time as the dominant
human-facing cost of low-privilege container builds, yet ``ch-image``
historically executed every Dockerfile instruction — and every image in a
CI batch — strictly sequentially.  BuildKit-style builders showed that the
large constant factors live in stage-level DAG scheduling plus cache-aware
deduplication; this module brings both to the reproduction:

* :class:`BuildGraphScheduler` — a worker-pool discrete-event scheduler
  over the PR-3 :class:`~repro.sim.SimEngine`.  Tasks (build stages, or
  whole images in a CI farm) run as soon as their dependencies finish and
  a worker is free; ties are broken FIFO by (ready time, priority, id), so
  every schedule is deterministic.  Task cost is the kernel-tick delta of
  its actual execution scaled by ``tick_seconds`` — the same convention as
  the simulated :class:`~repro.cluster.scheduler.Scheduler`.
* **Single-flight deduplication** — a task carrying a ``flight_key``
  (Merkle plan key) that is already being built parks behind the one
  in-flight execution instead of redoing it, then re-runs warm (pure
  cache hits) when the leader lands.  The block-and-replay is counted as
  ``inflight_hits`` on the :class:`~repro.cas.BuildCache`.
* :func:`build_parallel` — a whole ``ch-image build`` as a stage DAG:
  independent stages of a multi-stage Dockerfile build concurrently, and
  the result reports **makespan** and **critical-path length** in virtual
  seconds (what ``ch-image build --parallel N`` prints).

Python execution remains single-threaded and deterministic; concurrency
exists on the virtual clock, exactly like the PR-3 deploy story.  Any
parallelism level and any valid topological order produce digest-identical
images (the determinism property tests pin this).
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..containers.dockerfile import StageGraph, parse_stage_graph
from ..errors import BuildError, ReproError
from ..obs.trace import kernel_span
from ..sim import FaultPlan, SimEngine

__all__ = [
    "DEFAULT_BUILD_TICK_SECONDS",
    "BuildGraphError",
    "BuildGraphScheduler",
    "ScheduleReport",
    "TaskReport",
    "build_parallel",
    "instruction_chain_keys",
    "plan_flight_key",
    "stage_plan_keys",
]

#: One kernel tick of build work in virtual seconds — the same scale the
#: cluster scheduler uses for rank compute, so build and deploy makespans
#: are comparable on one clock.
DEFAULT_BUILD_TICK_SECONDS = 1e-7


class BuildGraphError(ReproError):
    """Misuse of the build-graph scheduler (bad DAG, bad parallelism)."""


# -- plan keys (static Merkle keys for single-flight) -------------------------------


def plan_flight_key(dockerfile: str, *, force: bool = False,
                    force_mode: str = "") -> str:
    """The static Merkle *plan* key of a whole build: two builds with the
    same Dockerfile text and force mode collide here, which is exactly
    when their instruction-level cache chains would collide too — so one
    of them can wait for the other instead of duplicating the work."""
    mode = force_mode if force else ""
    return hashlib.sha256(
        f"plan|{dockerfile}|force={force}|mode={mode}".encode()).hexdigest()


def stage_plan_keys(graph: StageGraph, *, force: bool = False,
                    force_mode: str = "") -> list[str]:
    """Per-stage plan keys: each stage's key folds in its instruction
    texts and its dependencies' keys, mirroring the build cache's Merkle
    chains (minus runtime context digests).  Identical stages — within
    one Dockerfile or across concurrent builds sharing a scheduler —
    share a key and therefore single-flight."""
    mode = force_mode if force else ""
    keys: list[str] = [""] * len(graph)
    for stage in graph.stages:  # deps always point at earlier indices
        base = (keys[stage.base_stage] if stage.base_stage is not None
                else f"image:{stage.base_ref}")
        h = hashlib.sha256(
            f"stage|{base}|force={force}|mode={mode}".encode())
        for dep in stage.deps:
            h.update(f"|dep:{keys[dep]}".encode())
        for inst in stage.instructions[1:]:
            h.update(f"|{inst.kind} {inst.args}".encode())
        keys[stage.index] = h.hexdigest()
    return keys


def instruction_chain_keys(graph: StageGraph, *, force: bool = False,
                           force_mode: str = ""
                           ) -> list[list[tuple[Any, str]]]:
    """The instruction-level Merkle chain of every stage, *statically*.

    Returns one list per stage of ``(instruction, chain_key)`` pairs —
    entry 0 is the FROM instruction paired with the chain's root key,
    and each later entry's key extends its predecessor exactly the way
    :class:`~repro.cas.BuildCache` does during a real build
    (:meth:`begin`/:meth:`extend` on a throwaway cache, so the formulas
    can never drift).  Two differences from runtime keys, both
    grouping-preserving:

    * external base images root at the placeholder ``image:<ref>``
      instead of the world-specific image digest (same ref ⇒ same
      digest within any one world, so two chains collide here iff they
      collide at build time);
    * COPY/ADD context digests are unknown before the build and enter
      as ``""`` — correct grouping as long as all planned builds share
      one build context, which a matrix run does.

    Stage-internal FROMs root at ``chain:<tail>`` of the base stage's
    chain, mirroring how a cached build roots in the stage tag's
    recorded digest.  The matrix planner
    (:mod:`repro.matrix.plan`) uses these keys to count unique stage
    builds — distinct RUN/COPY/ADD keys — before anything is scheduled.
    """
    from ..cas.cache import BuildCache
    cache = BuildCache()  # throwaway: only begin/extend key derivation
    mode = force_mode if force else ""
    chains: list[list[tuple[Any, str]]] = []
    tails: list[str] = []
    for stage in graph.stages:  # deps always point at earlier indices
        root_digest = (f"chain:{tails[stage.base_stage]}"
                       if stage.base_stage is not None
                       else f"image:{stage.base_ref}")
        key = cache.begin(root_digest, force=force, force_mode=mode)
        chain: list[tuple[Any, str]] = [(stage.instructions[0], key)]
        for inst in stage.instructions[1:]:
            key = cache.extend(key, inst.kind, inst.args)
            chain.append((inst, key))
        chains.append(chain)
        tails.append(key)
    return chains


# -- the scheduler ------------------------------------------------------------------


@dataclass
class _Task:
    """Internal per-task scheduling state."""

    tid: int
    name: str
    fn: Callable[[], Any]
    deps: tuple[int, ...]
    ok_of: Optional[Callable[[Any], bool]]
    flight_key: str
    priority: int
    state: str = "pending"      # ready/inflight-wait/running/done/failed/skipped
    unmet: int = 0
    dependents: list[int] = field(default_factory=list)
    ready_time: float = 0.0
    start: float = 0.0
    finish: float = 0.0
    queue_wait: float = 0.0
    ticks: int = 0
    worker: int = -1
    deduped: bool = False
    flight_leader: bool = False
    result: Any = None
    ok: bool = True
    error: str = ""
    attempts: int = 0           # execution attempts (crash requeues + 1)


@dataclass(frozen=True)
class TaskReport:
    """One task's realized schedule."""

    name: str
    state: str
    ok: bool
    ready_time: float
    start: float
    finish: float
    queue_wait: float
    ticks: int
    worker: int
    deduped: bool
    error: str = ""
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ScheduleReport:
    """What one scheduler run measured.

    ``makespan`` is virtual seconds from t=0 to the last completion;
    ``critical_path`` is the longest dependency chain through *realized*
    task durations — the floor no parallelism level can beat; the gap
    between ``serial_time`` and ``makespan`` is the win."""

    parallelism: int
    makespan: float = 0.0
    critical_path: float = 0.0
    critical_path_tasks: list[str] = field(default_factory=list)
    serial_time: float = 0.0          # sum of executed durations
    queue_wait_total: float = 0.0
    inflight_hits: int = 0
    worker_crashes: int = 0           # workers permanently lost mid-run
    requeues: int = 0                 # tasks re-run after a crash
    tasks: list[TaskReport] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return all(t.state == "done" and t.ok for t in self.tasks)

    @property
    def speedup(self) -> float:
        """Serial work over makespan (1.0 = no overlap happened)."""
        if self.makespan <= 0:
            return 1.0
        return self.serial_time / self.makespan

    def as_dict(self) -> dict:
        return {
            "parallelism": self.parallelism,
            "makespan": self.makespan,
            "critical_path": self.critical_path,
            "critical_path_tasks": list(self.critical_path_tasks),
            "serial_time": self.serial_time,
            "queue_wait_total": self.queue_wait_total,
            "inflight_hits": self.inflight_hits,
            "worker_crashes": self.worker_crashes,
            "requeues": self.requeues,
            "speedup": self.speedup,
            "tasks": [
                {"name": t.name, "state": t.state, "ok": t.ok,
                 "ready": t.ready_time, "start": t.start,
                 "finish": t.finish, "queue_wait": t.queue_wait,
                 "ticks": t.ticks, "worker": t.worker,
                 "deduped": t.deduped}
                for t in self.tasks
            ],
        }


class BuildGraphScheduler:
    """Run a DAG of build tasks on *parallelism* workers over a SimEngine.

    Tasks execute synchronously in Python when dispatched (determinism:
    dispatch order is the sim event order), but their *completions* land
    on the virtual clock after their tick-scaled cost — so independent
    tasks overlap in virtual time and the run reports a real makespan.

    *cache* (a :class:`~repro.cas.BuildCache`) enables
    single-flight: a task whose ``flight_key`` is already in flight
    releases its worker, parks, and re-runs warm after the leader
    finishes.  *kernel* (optional) provides obs spans and counters.
    """

    def __init__(self, *, engine: Optional[SimEngine] = None,
                 parallelism: int = 1,
                 tick_seconds: float = DEFAULT_BUILD_TICK_SECONDS,
                 ticks: Optional[Callable[[], int]] = None,
                 cache=None, kernel=None, fail_fast: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_budget: int = 8):
        if parallelism < 1:
            raise BuildGraphError(
                f"parallelism must be >= 1, got {parallelism}")
        self.engine = engine if engine is not None else SimEngine()
        self.parallelism = parallelism
        self.tick_seconds = tick_seconds
        self._ticks = ticks if ticks is not None else (lambda: 0)
        self.cache = cache
        self.kernel = kernel
        self.fail_fast = fail_fast
        self.fault_plan = fault_plan
        self.retry_budget = retry_budget
        self._tasks: list[_Task] = []
        self._ready: list[tuple[float, int, int]] = []  # (ready, prio, tid)
        self._free_workers: list[int] = list(range(parallelism))
        heapq.heapify(self._free_workers)
        self._dead_workers: set[int] = set()
        self._requeues = 0
        self._failed = False
        self._ran = False

    # -- building the DAG ----------------------------------------------------------

    def add_task(self, name: str, fn: Callable[[], Any], *,
                 deps: Sequence[int] = (), flight_key: str = "",
                 ok: Optional[Callable[[Any], bool]] = None,
                 priority: Optional[int] = None) -> int:
        """Register a task; returns its id (use as a dep for later tasks).
        *ok* maps the return value to pass/fail (default: always pass
        unless the task raises).  *priority* breaks FIFO ties among
        equally-ready tasks (default: insertion order)."""
        tid = len(self._tasks)
        for dep in deps:
            if not 0 <= dep < tid:
                raise BuildGraphError(
                    f"task {name!r}: dependency {dep} does not exist "
                    f"(tasks must be added in topological order)")
        task = _Task(tid=tid, name=name, fn=fn, deps=tuple(sorted(deps)),
                     ok_of=ok, flight_key=flight_key,
                     priority=tid if priority is None else priority)
        task.unmet = len(task.deps)
        for dep in task.deps:
            self._tasks[dep].dependents.append(tid)
        self._tasks.append(task)
        return tid

    # -- running -------------------------------------------------------------------

    def run(self) -> ScheduleReport:
        """Drain the DAG; returns the schedule report.  One-shot."""
        if self._ran:
            raise BuildGraphError("scheduler already ran")
        self._ran = True
        start_at = self.engine.now
        for task in self._tasks:
            if task.unmet == 0:
                self._make_ready(task, start_at)
        self.engine.at(start_at, self._dispatch)
        self.engine.run()
        return self._report(start_at)

    def _tracer(self):
        return getattr(self.kernel, "tracer", None) if self.kernel else None

    def _make_ready(self, task: _Task, now: float) -> None:
        task.state = "ready"
        task.ready_time = now
        heapq.heappush(self._ready, (now, task.priority, task.tid))

    # -- worker crashes (fault injection) ------------------------------------------

    def _alive_workers(self) -> int:
        return self.parallelism - len(self._dead_workers)

    def _retire_worker(self, worker: int) -> None:
        """Permanently remove a crashed worker from the pool."""
        if worker in self._dead_workers:
            return
        self._dead_workers.add(worker)
        tracer = self._tracer()
        if tracer is not None:
            tracer.metrics.counters.count("build.worker_crashes")
        if self._alive_workers() <= 0:
            unfinished = [t.name for t in self._tasks
                          if t.state in ("pending", "ready", "running",
                                         "inflight-wait")]
            if unfinished:
                raise BuildGraphError(
                    f"all {self.parallelism} workers crashed with "
                    f"unfinished tasks: {unfinished}")

    def _prune_dead_workers(self) -> None:
        """Drop free workers whose crash time has already passed."""
        if self.fault_plan is None:
            return
        now = self.engine.now
        doomed = [w for w in self._free_workers
                  if (ct := self.fault_plan.worker_crash_time(w)) is not None
                  and ct <= now]
        if doomed:
            self._free_workers = [w for w in self._free_workers
                                  if w not in doomed]
            heapq.heapify(self._free_workers)
            for w in doomed:
                self._retire_worker(w)

    def _worker_crash(self, tid: int) -> None:
        """Event: the worker running *tid* died mid-task.  The stage is
        requeued; if the task led a single-flight, its waiters are woken
        to re-contend so one of them is promoted to leader — nobody parks
        forever behind a dead leader."""
        task = self._tasks[tid]
        now = self.engine.now
        self._retire_worker(task.worker)
        tracer = self._tracer()
        if tracer is not None:
            tracer.metrics.counters.count("build.task_requeues")
        if task.flight_leader and self.cache is not None:
            # demote the dead leader and wake every waiter: the flight
            # re-forms at the next dispatch and the first contender leads
            task.flight_leader = False
            for waiter_tid in self.cache.flight_finish(task.flight_key):
                waiter = self._tasks[waiter_tid]
                if waiter.state == "inflight-wait":
                    waiter.deduped = False
                    self._make_ready(waiter, now)
        if task.attempts > self.retry_budget:
            task.state = "failed"
            task.finish = now
            task.ok = False
            task.error = (f"worker {task.worker} crashed and the retry "
                          f"budget ({self.retry_budget}) is spent")
            self._failed = True
            if self.fail_fast:
                for dep_tid in task.dependents:
                    self._skip_tree(dep_tid)
        else:
            # requeue the stage from scratch on a surviving worker
            self._requeues += 1
            task.worker = -1
            task.result = None
            task.ok = True
            task.error = ""
            task.ticks = 0
            self._make_ready(task, now)
        self._dispatch()

    def _dispatch(self) -> None:
        self._prune_dead_workers()
        while self._free_workers and self._ready:
            _, _, tid = heapq.heappop(self._ready)
            task = self._tasks[tid]
            if task.state not in ("ready",):
                continue
            if self._failed and self.fail_fast:
                self._skip(task, "skipped: an earlier task failed")
                continue
            now = self.engine.now
            if task.flight_key and self.cache is not None \
                    and not task.deduped:
                # warm replays (deduped=True) skip the flight check: they
                # already waited once and must not re-park behind each
                # other when several followers wake together
                if self.cache.flight_begin(task.flight_key):
                    task.flight_leader = True
                else:
                    # someone is building this exact key right now: park
                    # behind them; the worker stays free for other tasks
                    task.state = "inflight-wait"
                    task.deduped = True
                    self.cache.flight_wait(task.flight_key, task.tid)
                    continue
            worker = heapq.heappop(self._free_workers)
            task.queue_wait = now - task.ready_time
            self._execute(task, worker, now)

    def _execute(self, task: _Task, worker: int, now: float) -> None:
        task.state = "running"
        task.worker = worker
        task.start = now
        task.attempts += 1
        tracer = self._tracer()
        if tracer is not None:
            m = tracer.metrics.counters
            m.count("build.tasks")
            m.count("build.queue_wait_us", int(task.queue_wait * 1e6))
            if task.deduped:
                m.count("build.inflight_hits")
        if task.deduped and self.cache is not None:
            self.cache.note_inflight_hit()
        ticks_before = self._ticks()
        with kernel_span(self.kernel, f"schedule {task.name}", "stage-sched",
                         task=task.name, worker=worker,
                         queue_wait=task.queue_wait,
                         deduped=task.deduped) as sp:
            try:
                task.result = task.fn()
                task.ok = (task.ok_of(task.result)
                           if task.ok_of is not None else True)
            except Exception as exc:  # logical failure, recorded not raised
                task.ok = False
                task.error = f"{type(exc).__name__}: {exc}"
            if not task.ok:
                task.error = task.error or "task reported failure"
                if sp is not None:
                    sp.fail(task.error)
        task.ticks = self._ticks() - ticks_before
        cost = task.ticks * self.tick_seconds
        crash_t = (self.fault_plan.worker_crash_time(worker)
                   if self.fault_plan is not None else None)
        if crash_t is not None and now <= crash_t < now + cost:
            # the worker dies before this task's completion lands
            self.engine.at(crash_t, self._worker_crash, task.tid)
        else:
            self.engine.after(cost, self._complete, task.tid)

    def _complete(self, tid: int) -> None:
        task = self._tasks[tid]
        now = self.engine.now
        task.finish = now
        task.state = "done" if task.ok else "failed"
        heapq.heappush(self._free_workers, task.worker)
        if task.flight_leader and self.cache is not None:
            for waiter_tid in self.cache.flight_finish(task.flight_key):
                waiter = self._tasks[waiter_tid]
                if waiter.state == "inflight-wait":
                    self._make_ready(waiter, now)
        if not task.ok:
            self._failed = True
            if self.fail_fast:
                for dep_tid in task.dependents:
                    self._skip_tree(dep_tid)
        else:
            for dep_tid in task.dependents:
                dependent = self._tasks[dep_tid]
                dependent.unmet -= 1
                if dependent.unmet == 0 and dependent.state == "pending":
                    self._make_ready(dependent, now)
        self._dispatch()

    def _skip(self, task: _Task, reason: str) -> None:
        task.state = "skipped"
        task.ok = False
        task.error = reason
        for dep_tid in task.dependents:
            self._skip_tree(dep_tid)

    def _skip_tree(self, tid: int) -> None:
        task = self._tasks[tid]
        if task.state in ("pending", "ready", "inflight-wait"):
            self._skip(task, "skipped: a dependency failed")

    # -- reporting -----------------------------------------------------------------

    def _report(self, start_at: float) -> ScheduleReport:
        stuck = [t.name for t in self._tasks
                 if t.state in ("pending", "ready", "running",
                                "inflight-wait")]
        if stuck and not self._failed:
            raise BuildGraphError(
                f"scheduler deadlocked with unfinished tasks: {stuck}")
        for t in self._tasks:
            if t.state in ("pending", "ready", "inflight-wait"):
                self._skip(t, "skipped: an earlier task failed")
        report = ScheduleReport(parallelism=self.parallelism)
        durations: dict[int, float] = {}
        executed = [t for t in self._tasks if t.state in ("done", "failed")]
        for t in self._tasks:
            durations[t.tid] = (t.finish - t.start
                                if t.state in ("done", "failed") else 0.0)
        report.makespan = (max((t.finish for t in executed), default=start_at)
                           - start_at)
        report.serial_time = sum(durations.values())
        report.queue_wait_total = sum(t.queue_wait for t in executed)
        report.inflight_hits = sum(1 for t in executed if t.deduped)
        report.worker_crashes = len(self._dead_workers)
        report.requeues = self._requeues
        # critical path over realized durations
        cp: dict[int, float] = {}
        cp_prev: dict[int, Optional[int]] = {}
        for t in self._tasks:  # tids are topologically ordered by add_task
            best_dep, best = None, 0.0
            for dep in t.deps:
                if cp.get(dep, 0.0) > best:
                    best, best_dep = cp[dep], dep
            cp[t.tid] = durations[t.tid] + best
            cp_prev[t.tid] = best_dep
        if cp:
            tail = max(cp, key=lambda tid: (cp[tid], -tid))
            report.critical_path = cp[tail]
            chain: list[str] = []
            walk: Optional[int] = tail
            while walk is not None:
                chain.append(self._tasks[walk].name)
                walk = cp_prev[walk]
            report.critical_path_tasks = list(reversed(chain))
        report.tasks = [
            TaskReport(name=t.name, state=t.state, ok=t.ok,
                       ready_time=t.ready_time, start=t.start,
                       finish=t.finish, queue_wait=t.queue_wait,
                       ticks=t.ticks, worker=t.worker, deduped=t.deduped,
                       error=t.error, attempts=max(t.attempts, 1))
            for t in self._tasks
        ]
        tracer = self._tracer()
        if tracer is not None:
            tracer.metrics.counters.count("build.makespan_us",
                                          int(report.makespan * 1e6))
        return report


# -- ch-image build as a stage DAG --------------------------------------------------


def build_parallel(ch, *, tag: str, dockerfile: str, force: bool = False,
                   parallelism: int = 2,
                   engine: Optional[SimEngine] = None,
                   tick_seconds: float = DEFAULT_BUILD_TICK_SECONDS,
                   priorities: Optional[Sequence[int]] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   retry_budget: int = 8):
    """``ch-image build --parallel N``: one build as a stage DAG.

    Independent stages of a multi-stage Dockerfile run as concurrent
    tasks on the sim clock; the returned
    :class:`~repro.core.builder.ChBuildResult` additionally carries
    ``makespan``, ``critical_path``, and the full ``schedule`` report.
    The final image (and every ``tag%stageN``) is digest-identical to a
    sequential build — scheduling changes *when*, never *what*.

    *priorities* (tests only) permutes FIFO tie-breaking to realize any
    valid topological order without changing the result.
    """
    from .builder import ChBuildResult

    result = ChBuildResult(tag=tag, parallelism=parallelism)
    out = result.transcript.append
    kernel = ch.machine.kernel
    with kernel_span(kernel, f"build {tag} [parallel {parallelism}]",
                     "build", tag=tag, force=force,
                     parallelism=parallelism,
                     force_mode=ch.force_mode if force else "") as sp:
        try:
            graph = parse_stage_graph(dockerfile)
        except BuildError as err:
            result.error = str(err)
            out(f"error: {err}")
            if sp is not None:
                sp.fail(result.error)
            return result

        n = len(graph)
        flight_keys = stage_plan_keys(
            graph, force=force,
            force_mode=ch.force_mode if force else "")
        stage_results = [ChBuildResult(tag=tag) for _ in range(n)]
        stage_names: dict[str, str] = {}
        scheduler = BuildGraphScheduler(
            engine=engine, parallelism=parallelism,
            tick_seconds=tick_seconds, ticks=lambda: kernel.ticks,
            cache=ch.cache, kernel=kernel, fault_plan=fault_plan,
            retry_budget=retry_budget)

        def make_stage_fn(stage, stage_tag):
            def run_stage():
                sres = stage_results[stage.index]
                ok = ch._build_stage(
                    list(stage.instructions), stage_tag, force, sres,
                    sres.transcript.append, stage_names,
                    stage.first_ordinal, is_last=stage.index == n - 1,
                    final_tag=tag)
                if ok:
                    stage_names[str(stage.index)] = stage_tag
                return ok
            return run_stage

        for stage in graph.stages:
            stage_tag = tag if stage.index == n - 1 \
                else f"{tag}%stage{stage.index}"
            scheduler.add_task(
                f"{tag}:{stage.label}", make_stage_fn(stage, stage_tag),
                deps=stage.deps,
                flight_key=flight_keys[stage.index] if ch.cache is not None
                else "",
                ok=bool,
                priority=None if priorities is None
                else priorities[stage.index])

        schedule = scheduler.run()

    # merge per-stage results, in stage order (deterministic transcript)
    for sres in stage_results:
        result.transcript.extend(sres.transcript)
        result.modified_runs += sres.modified_runs
        result.init_steps_run += sres.init_steps_run
        result.cache_hits += sres.cache_hits
        result.instructions = max(result.instructions, sres.instructions)
    result.success = schedule.success
    if not result.success:
        for sres, treport in zip(stage_results, schedule.tasks):
            if sres.error or not treport.ok:
                result.error = sres.error or treport.error
                result.exit_status = sres.exit_status
                break
        result.error = result.error or "parallel build failed"
        if sp is not None:
            sp.fail(result.error)
    else:
        result.instructions = graph.total_instructions
    result.makespan = schedule.makespan
    result.critical_path = schedule.critical_path
    result.schedule = schedule
    out(f"parallel build: {n} stages on {parallelism} worker"
        f"{'s' if parallelism != 1 else ''}: makespan "
        f"{schedule.makespan * 1e3:.3f} ms, critical path "
        f"{schedule.critical_path * 1e3:.3f} ms, "
        f"{schedule.inflight_hits} deduped")
    if schedule.worker_crashes:
        out(f"faults: {schedule.worker_crashes} worker crash"
            f"{'es' if schedule.worker_crashes != 1 else ''}, "
            f"{schedule.requeues} stage requeue"
            f"{'s' if schedule.requeues != 1 else ''}")
    return result

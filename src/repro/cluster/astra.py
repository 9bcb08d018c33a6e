"""The Astra container DevOps workflow (paper §4.2, Figure 6).

Astra was the first Arm supercomputer on the Top500; x86-64 images simply
do not execute there, so images must be built *on the machine*.  The
workflow: ``podman build`` on a login node → push to the site GitLab
container registry → parallel deployment on compute nodes with an HPC
runtime (Charliecloud here, Singularity originally).

Every variant runs through one pipeline, :func:`run_pipeline`: build
backend (rootless Podman, or ch-image with its §6.2.2 build cache) ×
distribution (tree broadcast or registry fan-out) × runtime.  The public
workflows are thin adapters over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..archive import ArchiveError, pack_image
from ..cas.store import CasError
from ..containers.podman import Podman
from ..containers.singularity import SifImage, Singularity
from ..core.builder import ChImage
from ..core.push import push_image
from ..core.runtime import ChRun
from ..errors import ReproError
from ..kernel import Syscalls
from ..sim import FaultPlan, RetryPolicy, SimEngine, Topology, retry_call
from .broadcast import (
    DEPLOY_STRATEGIES,
    BroadcastReport,
    distribute_blobs,
    make_deploy_topology,
)
from .machines import Machine, make_machine
from .scheduler import JobResult, Scheduler
from .world import SITE_REGISTRY, World

__all__ = ["AstraCluster", "WorkflowReport", "make_astra",
           "astra_build_workflow", "astra_cached_build_workflow",
           "laptop_build_workflow"]


class WorkflowError(ReproError):
    """A workflow phase failed."""


@dataclass
class AstraCluster:
    """Login node + compute partition + scheduler."""

    login: Machine
    compute: list[Machine]
    scheduler: Scheduler
    world: World

    @property
    def arch(self) -> str:
        return self.login.arch


def make_astra(world: World, *, n_compute: int = 4, arch: str = "aarch64",
               users: Optional[dict[str, int]] = None) -> AstraCluster:
    """Boot an Astra-like machine (aarch64 Thunder X2 by default)."""
    users = users or {"alice": 1000, "bob": 1001}
    login = make_machine("astra-login1", arch=arch, network=world.network,
                         users=users)
    compute = [
        make_machine(f"astra-cn{i:03d}", arch=arch, network=world.network,
                     users=users)
        for i in range(1, n_compute + 1)
    ]
    return AstraCluster(login, compute, Scheduler(compute), world)


@dataclass
class WorkflowReport:
    """What happened in each Figure 6 phase."""

    build_ok: bool = False
    build_transcript: str = ""
    push_ok: bool = False
    pushed_ref: str = ""
    layer_count: int = 0
    deploy: Optional[JobResult] = None
    phases: list[str] = field(default_factory=list)
    cache_records: int = 0             # records exported with the image
    deploy_strategy: str = "tree"      # one of DEPLOY_STRATEGIES
    distribution: Optional[BroadcastReport] = None
    link_utilization: dict = field(default_factory=dict)
    build_parallelism: int = 1         # workers the login build used
    registry_shards: int = 1           # fleet size (1 = single registry)
    build_makespan: float = 0.0        # virtual s (parallel builds only)
    build_critical_path: float = 0.0   # DAG floor of the build (virtual s)
    push_attempts: int = 1             # push-phase tries (retries + 1)
    faults_injected: int = 0           # transient faults seen end to end
    retries: int = 0                   # retried operations (push + deploy)
    backoff_seconds: float = 0.0       # virtual seconds spent backing off
    degraded_nodes: list = field(default_factory=list)  # crashed/dropped

    @property
    def success(self) -> bool:
        return (self.build_ok and self.push_ok
                and self.deploy is not None and self.deploy.success)

    @property
    def degraded(self) -> bool:
        """True when fault injection cost the deploy at least one node."""
        return bool(self.degraded_nodes) or (
            self.deploy is not None and self.deploy.degraded)

    @property
    def deploy_makespan(self) -> Optional[float]:
        """Virtual seconds from distribution start until the last rank
        finished (None until a rank has run)."""
        if self.deploy is None or not self.deploy.rank_finishes:
            return None
        return max(self.deploy.rank_finishes)


def _prepare_deploy(
    cluster: AstraCluster,
    strategy: str,
    n_nodes: int,
    sim: Optional[SimEngine],
    topology: Optional[Topology],
) -> tuple[SimEngine, Topology, list[Machine]]:
    """Validate the deploy strategy and set up the timed fabric for it.

    Returns ``(engine, topology, target_nodes)``."""
    if strategy not in DEPLOY_STRATEGIES:
        raise WorkflowError(
            f"unsupported deploy strategy {strategy!r} "
            f"(choose from {DEPLOY_STRATEGIES})")
    targets = cluster.scheduler.nodes[:n_nodes]
    engine = sim if sim is not None else SimEngine()
    topology = make_deploy_topology(cluster.world.site_registry, targets,
                                    topology)
    return engine, topology, targets


def _prepare_registry(cluster: AstraCluster, report: "WorkflowReport",
                      shards: int, replicas: int) -> None:
    """Swap the world's site registry for a fleet when asked.

    Must run before :func:`_prepare_deploy` so the deploy topology gets
    one uplink per shard instead of a single origin link."""
    report.registry_shards = max(shards, 1)
    if shards <= 1 and replicas <= 1:
        return
    from .fleet import deploy_fleet
    fleet = deploy_fleet(cluster.world, n_shards=max(shards, 1),
                         replicas=replicas)
    report.registry_shards = len(fleet.shards)
    report.phases.append(
        f"registry fleet: {len(fleet.shards)} shards x "
        f"{fleet.replicas} replicas")


def _retried_push(report: WorkflowReport, registry, engine: SimEngine,
                  fault_plan: Optional[FaultPlan],
                  policy: RetryPolicy, key: str, fn):
    """Run one push-phase registry operation under the fault injector,
    retrying transient 5xx-style flakes per *policy* on the engine clock.

    With no plan this is just ``fn()``.
    """
    if fault_plan is None or fault_plan.empty:
        return fn()
    fault_plan.bind_registry(registry.name)
    installed = registry.fault_injector is None
    if installed:
        registry.fault_injector = fault_plan.injector(engine.clock)

    def on_retry(attempt, delay, exc):
        report.faults_injected += 1
        report.retries += 1
        report.push_attempts += 1
        report.backoff_seconds += delay

    try:
        return retry_call(lambda attempt: fn(), policy=policy,
                          clock=engine.clock, key=key, on_retry=on_retry)
    finally:
        if installed:
            registry.fault_injector = None


def _fold_distribution_faults(report: WorkflowReport) -> None:
    """Roll the broadcast's fault accounting up into the workflow report."""
    dist = report.distribution
    report.faults_injected += dist.faults_injected
    report.retries += dist.retries
    report.backoff_seconds += dist.backoff_seconds
    report.degraded_nodes = sorted(set(dist.crashed) | set(dist.degraded))


def _convert(login: Machine, user: str, ref: str, *, flatten: bool
             ) -> bytes:
    """ch-convert on *login* as *user*: ``ch-image pull`` *ref*, the
    unpack every node used to repeat, then pack the tree into one image
    blob (:func:`~repro.archive.pack_image`)."""
    ch = ChImage(login, login.login(user))
    return pack_image(ch.sys, ch.pull(ref), flatten=flatten)


def run_pipeline(
    cluster: AstraCluster,
    user: str,
    dockerfile: str,
    tag: str,
    *,
    cached: bool = False,
    builder: Optional[Machine] = None,
    n_nodes: int = 2,
    app_argv: Optional[list[str]] = None,
    runtime: str = "charliecloud",
    force: bool = True,
    build_parallelism: int = 1,
    deploy_strategy: str = "tree",
    registry_shards: int = 1,
    registry_replicas: int = 1,
    sim: Optional[SimEngine] = None,
    topology: Optional[Topology] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> WorkflowReport:
    """Figure 6 as three phases: build backend × distribution × runtime.

    1. Build on *builder* (the login node by default) as *user*, with no
       privilege: rootless ``podman build``, or with *cached* a
       ``ch-image`` build with its §6.2.2 build cache on.  This is the
       only phase *cached* changes.
    2. Push the image to the site registry; the cache backend exports its
       instruction cache beside it, for the next builder to seed from.
       Then convert the pushed image once on the login node into one
       image blob (a SIF for ``singularity``), as ``ch-convert`` does.
    3. Distribute that one blob to the first *n_nodes* compute nodes per
       *deploy_strategy* — ``"tree"`` broadcasts it peer-to-peer after
       one registry pull, ``"registry"`` lets every node pull (the O(N)
       storm) — then run one rank per node under the scheduler, each from
       its node's ready time on the sim clock, on a read-only mount of
       the image with *runtime*.  No compute node builds or unpacks.

    The build phases stay strictly sequential and every job process
    descends from the user's shell (§3.1).  A *fault_plan* injects its
    scheduled faults into the push and distribution phases; transient
    failures are retried per *retry_policy* and crashed nodes are
    skipped, so the workflow degrades instead of aborting.
    """
    n_compute = len(cluster.scheduler.nodes)
    if not 1 <= n_nodes <= n_compute:
        raise WorkflowError(f"bad node count {n_nodes} (the cluster has "
                            f"{n_compute} compute nodes)")
    if runtime not in ("charliecloud", "singularity"):
        raise WorkflowError(f"unsupported HPC runtime {runtime!r}")
    if build_parallelism > 1 and not cached:
        raise WorkflowError("build parallelism needs the cached workflow "
                            "(--cached): podman has no parallel build engine")
    report = WorkflowReport(deploy_strategy=deploy_strategy)
    _prepare_registry(cluster, report, registry_shards, registry_replicas)
    engine, topo, targets = _prepare_deploy(
        cluster, deploy_strategy, n_nodes, sim, topology)
    if retry_policy is None:
        retry_policy = RetryPolicy(
            seed=fault_plan.seed if fault_plan is not None else 0)
    registry = cluster.world.site_registry
    image_ref = f"{SITE_REGISTRY}/{user}/{tag}:latest"
    cache_ref = f"{SITE_REGISTRY}/{user}/{tag}-cache:latest"
    app_argv = app_argv or ["/opt/atse/bin/atse-info"]
    builder = builder or cluster.login
    on = f"on {builder.hostname} ({builder.arch})"

    # Phase 1: unprivileged build.  Container storage must be node-local
    # ("either /tmp or local disk can be used", §4.2).  With
    # build_parallelism > 1, independent Dockerfile stages build
    # concurrently on the sim clock (core.build_graph); image bytes are
    # identical either way, only the makespan changes.
    login_proc = builder.login(user)
    timing = ""
    if cached:
        ch = ChImage(builder, login_proc, cache=True)
        result = ch.build(tag=tag, dockerfile=dockerfile, force=force,
                          parallel=build_parallelism)
        report.build_parallelism = build_parallelism
        report.build_makespan = result.makespan
        report.build_critical_path = result.critical_path
        if build_parallelism > 1:
            timing = (f" [parallel {build_parallelism}: makespan "
                      f"{result.makespan * 1e3:.3f} ms, critical path "
                      f"{result.critical_path * 1e3:.3f} ms]")
        label = f"ch-image build {on}"
    else:
        podman = Podman(builder, login_proc,
                        storage_dir=f"/tmp/{user}-containers")
        result = podman.build(dockerfile, tag)
        label = f"build {on}"
    report.build_ok = result.success
    report.build_transcript = result.text
    report.phases.append(
        f"{label}: {'ok' if result.success else 'FAILED'}{timing}")
    if not result.success:
        return report

    # Phase 2: push to the site registry (multi-layer OCI).
    def push(key: str, fn):
        return _retried_push(report, registry, engine, fault_plan,
                             retry_policy, key, fn)

    if cached:
        manifest = push("push",
                        lambda: push_image(ch.storage, tag, image_ref))
        push("cache-export",
             lambda: ch.cache.export_to_registry(registry, cache_ref))
        report.cache_records = len(ch.cache.records)
        pushed = f" + cache export ({report.cache_records} records)"
    else:
        manifest = push("push", lambda: podman.push(tag, image_ref))
        pushed = f": {manifest.layer_count} layers"
    report.push_ok = True
    report.pushed_ref = image_ref
    report.layer_count = manifest.layer_count
    report.phases.append(f"push {image_ref}{pushed}")

    # Phase 2b: convert once, as ch-convert does.  The login node
    # unpacks the pushed image through the one layer-apply path and packs
    # the tree into one single-file image blob (ownership flattened for a
    # SIF); the nodes mount that blob and none of them unpacks a layer or
    # builds.
    flatten = runtime == "singularity"
    image_blob = push("convert", lambda: registry.put_blob(
        _convert(cluster.login, user, image_ref, flatten=flatten)))
    report.phases.append(
        f"convert {image_ref} on {cluster.login.hostname}: one "
        f"{'SIF' if flatten else 'SquashFS'} image "
        f"({registry.blob_size(image_blob)} B)")

    # Phase 3: distribute the image blob first, then interleave rank
    # events from each node's ready time.
    def run_rank(node: Machine, rank: int, login) -> tuple[int, str]:
        env = {"OMPI_COMM_WORLD_RANK": str(rank),
               "PATH": "/opt/atse/bin:/usr/bin:/bin"}
        try:
            # this node's own copy, verified by its store, or no mount
            blob = node.content_store.get(image_blob)
            if runtime == "singularity":
                sif = f"/home/{user}/{tag}.sif"
                Syscalls(login).write_file(sif, blob)
                return Singularity(node, login).run(
                    SifImage(sif, node.arch), app_argv, env=env)
            image = node.kernel.network.decoded_image(image_blob, blob)
        except (CasError, ArchiveError) as err:
            return 125, (f"[rank {rank}] {node.hostname}: cannot mount "
                         f"{image_blob[:19]}...: {err}\n")
        res = ChRun(node, login).run(image, app_argv, env=env)
        return res.status, res.output

    # The distributor is called through its module-global name, not a
    # reference taken at import, so tools that rebind that global (the
    # tracing ledger does) see every call.
    report.distribution = distribute_blobs(
        registry, [image_blob], targets, topo, strategy=deploy_strategy,
        engine=engine, tracer=cluster.login.kernel.tracer,
        fault_plan=fault_plan, retry_policy=retry_policy)
    _fold_distribution_faults(report)
    report.deploy = cluster.scheduler.srun(
        user, n_nodes, run_rank, sim=engine,
        rank_ready=report.distribution.node_ready, fault_plan=fault_plan)
    report.link_utilization = topo.utilization()
    faults = ""
    if report.faults_injected or report.deploy.skipped:
        faults = (f", {report.faults_injected} faults / "
                  f"{report.retries} retries"
                  + (f", skipped {len(report.deploy.skipped)} node(s)"
                     if report.deploy.skipped else ""))
    report.phases.append(
        f"deploy on {n_nodes} nodes [{deploy_strategy}]: "
        f"{'ok' if report.deploy.success else 'FAILED'} "
        f"(makespan {(report.deploy_makespan or 0.0) * 1e3:.1f} ms, "
        f"registry egress {report.distribution.registry_egress_bytes} B"
        f"{faults})")
    return report


def astra_build_workflow(
    cluster: AstraCluster,
    user: str,
    dockerfile: str,
    tag: str,
    *,
    n_nodes: int = 2,
    app_argv: Optional[list[str]] = None,
    runtime: str = "charliecloud",
    deploy_strategy: str = "tree",
    registry_shards: int = 1,
    registry_replicas: int = 1,
    sim: Optional[SimEngine] = None,
    topology: Optional[Topology] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> WorkflowReport:
    """The full Figure 6 loop on the supercomputer itself: rootless
    ``podman build`` on the login node, ``podman push`` to the site GitLab
    registry, then parallel launch with an HPC runtime — "originally
    demonstrated with Singularity, however any HPC container runtime such
    as Charliecloud or Shifter could also be used" (§4.2): *runtime* is
    ``charliecloud`` (default) or ``singularity``.  See
    :func:`run_pipeline`."""
    return run_pipeline(
        cluster, user, dockerfile, tag, n_nodes=n_nodes, app_argv=app_argv,
        runtime=runtime, deploy_strategy=deploy_strategy,
        registry_shards=registry_shards, registry_replicas=registry_replicas,
        sim=sim, topology=topology, fault_plan=fault_plan,
        retry_policy=retry_policy)


def astra_cached_build_workflow(
    cluster: AstraCluster,
    user: str,
    dockerfile: str,
    tag: str,
    *,
    n_nodes: int = 2,
    app_argv: Optional[list[str]] = None,
    force: bool = True,
    build_parallelism: int = 1,
    deploy_strategy: str = "tree",
    registry_shards: int = 1,
    registry_replicas: int = 1,
    sim: Optional[SimEngine] = None,
    topology: Optional[Topology] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> WorkflowReport:
    """Figure 6 with the §6.2.2 build cache in the loop.

    ch-image builds on the login node with its build cache on, then
    pushes *two* artifacts to the site registry: the image, and a
    BuildKit-style export of its instruction cache, from which a fresh
    builder seeds its cache and hits on every unchanged instruction
    (:meth:`~repro.cas.cache.BuildCache.import_from_registry`).  The
    deploy is the uncached one: the pushed image is converted once on
    the login node and every compute node mounts that one image with
    ``ch-run`` (``run_pipeline(..., cached=True, runtime="singularity")``
    or ``astra-deploy --cached --runtime singularity`` runs it under
    Singularity).  See :func:`run_pipeline`.
    """
    return run_pipeline(
        cluster, user, dockerfile, tag, cached=True, n_nodes=n_nodes,
        app_argv=app_argv, force=force, build_parallelism=build_parallelism,
        deploy_strategy=deploy_strategy, registry_shards=registry_shards,
        registry_replicas=registry_replicas, sim=sim, topology=topology,
        fault_plan=fault_plan, retry_policy=retry_policy)


def laptop_build_workflow(
    cluster: AstraCluster,
    user: str,
    dockerfile: str,
    tag: str,
    *,
    n_nodes: int = 2,
    app_argv: Optional[list[str]] = None,
) -> WorkflowReport:
    """The §2 'build on your x86 laptop' anti-pattern, for contrast: the
    same pipeline with the build on an x86_64 laptop.  The image builds,
    pushes and distributes fine, but its binaries are ENOEXEC on Astra's
    aarch64 nodes."""
    laptop = make_machine("laptop", arch="x86_64",
                          network=cluster.world.network, users={user: 1000})
    return run_pipeline(cluster, user, dockerfile, tag, builder=laptop,
                        n_nodes=n_nodes, app_argv=app_argv)

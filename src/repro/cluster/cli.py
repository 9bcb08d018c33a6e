"""An srun-flavoured deploy front end for the Astra workflow.

``astra_deploy_cli(cluster, argv)`` mirrors what a site wrapper script
around ``podman build && podman push && srun ch-run ...`` looks like, with
the distribution strategy exposed the way the paper's §6.3 impact story
needs it benchmarked::

    astra-deploy [--deploy-strategy {registry,tree}] [--nodes N]
                 [--runtime {charliecloud,singularity}] [--cached]
                 [--parallelism N] [--fault-plan SPEC] [--retries N]
                 [--registry-shards N] [--replicas R]
                 -t TAG -f DOCKERFILE USER

Every deploy is distributed and timed on the sim clock
(:func:`~repro.cluster.astra.run_pipeline`).  ``--cached`` builds with
ch-image and its build cache instead of rootless Podman and pushes the
cache export beside the image; the deploy is the same either way (one
image, converted on the login node, mounted on every node, with either
runtime).  ``--fault-plan`` takes a :meth:`repro.sim.FaultPlan.parse`
spec (e.g.
``seed=7,link-loss=0.1,flake=0:0.05``); ``--retries`` caps the retry
budget per transient failure.  Returns ``(exit_status, output_text)``
like the other CLI shims.

Whole image *families* go through ``astra-matrix`` instead
(:func:`~repro.matrix.cli.astra_matrix_cli`, re-exported here): a
build-matrix spec file in place of ``-t``/``-f``, the same
``--parallelism`` / ``--registry-shards`` / ``--fault-plan`` knobs.
"""

from __future__ import annotations

from ..cliopts import int_opt, str_opt
from ..errors import KernelError, ReproError
from ..kernel import Syscalls
from ..matrix.cli import astra_matrix_cli
from ..sim import FaultPlan, FaultPlanError, RetryPolicy
from .astra import AstraCluster, run_pipeline
from .broadcast import DEPLOY_STRATEGIES

__all__ = ["astra_deploy_cli", "astra_matrix_cli"]

_PROG = "astra-deploy"
_USAGE = ("usage: astra-deploy [--deploy-strategy {registry,tree}] "
          "[--nodes N] [--runtime RT] [--cached] [--parallelism N] "
          "[--fault-plan SPEC] [--retries N] [--registry-shards N] "
          "[--replicas R] -t TAG -f DOCKERFILE USER")


def astra_deploy_cli(cluster: AstraCluster, argv: list[str]
                     ) -> tuple[int, str]:
    strategy = "tree"
    n_nodes = 2
    runtime = "charliecloud"
    cached = False
    parallelism = 1
    fault_spec: str | None = None
    retries: int | None = None
    registry_shards = 1
    replicas = 1
    tag = ""
    dockerfile_path = ""
    user = ""
    i = 0
    while i < len(argv):
        a = argv[i]
        name = a.partition("=")[0]
        err = ""
        if name == "--deploy-strategy":
            strategy, i, err = str_opt(argv, i, _PROG)
        elif name == "--nodes":
            n_nodes, i, err = int_opt(argv, i, _PROG, minimum=1,
                                      what="node count")
        elif name == "--runtime":
            runtime, i, err = str_opt(argv, i, _PROG)
        elif a == "--cached":
            cached = True
        elif name == "--parallelism":
            parallelism, i, err = int_opt(argv, i, _PROG, minimum=1)
        elif name == "--fault-plan":
            fault_spec, i, err = str_opt(argv, i, _PROG)
        elif name == "--retries":
            retries, i, err = int_opt(argv, i, _PROG, minimum=0)
        elif name == "--registry-shards":
            registry_shards, i, err = int_opt(argv, i, _PROG, minimum=1)
        elif name == "--replicas":
            replicas, i, err = int_opt(argv, i, _PROG, minimum=1)
        elif a == "-t":
            i += 1
            tag = argv[i] if i < len(argv) else ""
        elif a == "-f":
            i += 1
            dockerfile_path = argv[i] if i < len(argv) else ""
        elif a.startswith("-"):
            err = f"astra-deploy: unknown option {a!r}\n{_USAGE}"
        else:
            user = a
        if err:
            return 1, err
        i += 1
    if not (tag and dockerfile_path and user):
        return 1, _USAGE
    if strategy not in DEPLOY_STRATEGIES:
        return 1, (f"astra-deploy: unknown strategy {strategy!r} "
                   f"(choose from {', '.join(DEPLOY_STRATEGIES)})")
    if replicas > registry_shards:
        return 1, (f"astra-deploy: --replicas {replicas} exceeds "
                   f"--registry-shards {registry_shards}")
    if user not in cluster.login.users:
        return 1, f"astra-deploy: no account {user!r} on the login node"
    fault_plan = None
    retry_policy = None
    if fault_spec is not None:
        try:
            fault_plan = FaultPlan.parse(fault_spec)
        except FaultPlanError as err:
            return 1, f"astra-deploy: {err}"
    if retries is not None:
        retry_policy = RetryPolicy(
            budget=retries,
            seed=fault_plan.seed if fault_plan is not None else 0)

    login_proc = cluster.login.login(user)
    try:
        dockerfile = Syscalls(login_proc).read_file(dockerfile_path).decode()
    except KernelError as err:
        return 1, (f"astra-deploy: can't read {dockerfile_path}: "
                   f"{err.strerror}")

    try:
        report = run_pipeline(cluster, user, dockerfile, tag, cached=cached,
                              n_nodes=n_nodes, runtime=runtime,
                              build_parallelism=parallelism,
                              deploy_strategy=strategy,
                              registry_shards=registry_shards,
                              registry_replicas=replicas,
                              fault_plan=fault_plan,
                              retry_policy=retry_policy)
    except ReproError as err:
        return 1, f"astra-deploy: {err}"

    lines = list(report.phases)
    if report.registry_shards > 1:
        f = cluster.world.site_registry.report()
        lines.append(
            f"fleet: {f['shards']} shards x {f['replicas']} replicas, "
            f"hit ratio {f['hit_ratio']:.3f}, "
            f"rebalance {f['rebalance_bytes']} B")
    if report.build_parallelism > 1:
        lines.append(
            f"build makespan: {report.build_makespan * 1e3:.3f} ms on "
            f"{report.build_parallelism} workers (critical path "
            f"{report.build_critical_path * 1e3:.3f} ms)")
    if report.distribution is not None:
        d = report.distribution.as_dict()
        lines.append(
            f"distribution [{d['strategy']}]: "
            f"{d['registry_blobs_pulled']} registry pulls "
            f"({d['registry_egress_bytes']} B egress), "
            f"{d['peer_sends']} peer sends ({d['peer_bytes']} B), "
            f"{d['blobs_skipped']} dedup skips")
        lines.append(
            f"makespan: {(report.deploy_makespan or 0.0) * 1e3:.1f} ms")
        if report.faults_injected or report.degraded:
            lines.append(
                f"faults: {report.faults_injected} injected, "
                f"{report.retries} retries "
                f"({report.backoff_seconds * 1e3:.1f} ms backoff), "
                f"{d['reparented_subtrees']} reparented subtrees")
            if report.degraded_nodes:
                lines.append("degraded nodes: "
                             + ", ".join(report.degraded_nodes))
        busiest = max(
            report.link_utilization.items(),
            key=lambda kv: kv[1]["busy_tx_seconds"], default=None)
        if busiest is not None:
            name, stats = busiest
            lines.append(
                f"busiest link: {name} "
                f"(tx {stats['bytes_tx']} B, "
                f"busy {stats['busy_tx_seconds'] * 1e3:.1f} ms, "
                f"{stats['byte_seconds']:.3f} B·s)")
    return (0 if report.success else 1), "\n".join(lines)

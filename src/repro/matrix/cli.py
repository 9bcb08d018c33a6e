"""The ``astra-matrix`` front end: one spec file in, a family out.

::

    astra-matrix [--parallelism N] [--registry-shards N] [--replicas R]
                 [--tenant NAME] [--token T] [--force]
                 [--fault-plan SPEC] [--retries N]
                 [--policy [--policy-threshold SEV] [--signing-key NAME]]
                 -f SPECFILE USER

Reads the matrix spec from SPECFILE (the :func:`~repro.matrix.spec.
parse_spec_text` format), builds every cell on the login node's build
farm, and — when ``--registry-shards`` ≥ 1 — deploys the site registry
as a :class:`~repro.cluster.fleet.RegistryFleet` of that size and
pushes the family under the tenant namespace.  ``--fault-plan`` takes
the same :meth:`repro.sim.FaultPlan.parse` spec as ``astra-deploy``
(worker crashes hit the farm; builds requeue and single-flight waiters
are promoted).  ``--policy`` turns the supply chain on for the run:
every cell is attested (SBOM + provenance), signed on push (seeded key
``--signing-key``, default ``site-ci``), and audited by a
:class:`~repro.supply.PolicyGate` with the seeded advisory feed; any
rejection fails the run.  Returns ``(exit_status, output_text)`` like
every other CLI shim here.
"""

from __future__ import annotations

from ..cliopts import int_opt, str_opt
from ..errors import KernelError, ReproError
from ..kernel import Syscalls
from ..sim import FaultPlan, FaultPlanError
from .orchestrator import build_matrix
from .spec import MatrixSpecError, parse_spec_text

__all__ = ["astra_matrix_cli"]

_PROG = "astra-matrix"
_USAGE = ("usage: astra-matrix [--parallelism N] [--registry-shards N] "
          "[--replicas R] [--tenant NAME] [--token T] [--force] "
          "[--fault-plan SPEC] [--retries N] [--policy "
          "[--policy-threshold SEV] [--signing-key NAME]] "
          "-f SPECFILE USER")


def astra_matrix_cli(cluster, argv: list[str]) -> tuple[int, str]:
    parallelism = 4
    registry_shards = 0
    replicas = 1
    tenant: str | None = None
    token: str | None = None
    force = False
    fault_spec: str | None = None
    retries = 8
    policy = False
    policy_threshold = "high"
    signing_key = "site-ci"
    spec_path = ""
    user = ""
    i = 0
    while i < len(argv):
        a = argv[i]
        name = a.partition("=")[0]
        err = ""
        if name == "--parallelism":
            parallelism, i, err = int_opt(argv, i, _PROG, minimum=1)
        elif name == "--registry-shards":
            registry_shards, i, err = int_opt(argv, i, _PROG, minimum=0)
        elif name == "--replicas":
            replicas, i, err = int_opt(argv, i, _PROG, minimum=1)
        elif name == "--retries":
            retries, i, err = int_opt(argv, i, _PROG, minimum=0)
        elif a == "--tenant":
            i += 1
            tenant = argv[i] if i < len(argv) else None
        elif a == "--token":
            i += 1
            token = argv[i] if i < len(argv) else None
        elif a == "--force":
            force = True
        elif a == "--policy":
            policy = True
        elif name == "--policy-threshold":
            policy_threshold, i, err = str_opt(argv, i, _PROG)
        elif name == "--signing-key":
            signing_key, i, err = str_opt(argv, i, _PROG)
        elif name == "--fault-plan":
            fault_spec, i, err = str_opt(argv, i, _PROG)
        elif a == "-f":
            i += 1
            spec_path = argv[i] if i < len(argv) else ""
        elif a.startswith("-"):
            err = f"astra-matrix: unknown option {a!r}\n{_USAGE}"
        else:
            user = a
        if err:
            return 1, err
        i += 1
    if not (spec_path and user):
        return 1, _USAGE
    if replicas > max(registry_shards, 1):
        return 1, (f"astra-matrix: --replicas {replicas} exceeds "
                   f"--registry-shards {registry_shards}")
    if user not in cluster.login.users:
        return 1, f"astra-matrix: no account {user!r} on the login node"

    fault_plan = None
    if fault_spec is not None:
        try:
            fault_plan = FaultPlan.parse(fault_spec)
        except FaultPlanError as err:
            return 1, f"astra-matrix: {err}"

    login_proc = cluster.login.login(user)
    try:
        text = Syscalls(login_proc).read_file(spec_path).decode()
    except KernelError as err:
        return 1, f"astra-matrix: can't read {spec_path}: {err.strerror}"
    try:
        spec = parse_spec_text(text)
    except MatrixSpecError as err:
        return 1, f"astra-matrix: {err}"

    fleet = None
    if registry_shards >= 1:
        from ..cluster.fleet import deploy_fleet
        fleet = deploy_fleet(cluster.world, n_shards=registry_shards,
                             replicas=replicas)

    signer = None
    gate = None
    if policy:
        if fleet is None:
            return 1, ("astra-matrix: --policy needs a fleet "
                       "(--registry-shards >= 1)")
        from ..supply import (KeyRegistry, PolicyGate, SupplyPolicy,
                              make_advisory_db, severity_rank)
        try:
            severity_rank(policy_threshold)
        except ValueError as err:
            return 1, f"astra-matrix: {err}"
        keys = KeyRegistry(seed=0)
        signer = keys.signer(signing_key)
        gate = PolicyGate(
            SupplyPolicy(severity_threshold=policy_threshold,
                         trusted_keys=(signing_key,)),
            keys=keys, advisories=make_advisory_db(seed=0))

    try:
        report = build_matrix(cluster.login, login_proc, spec,
                              parallelism=parallelism, force=force,
                              fleet=fleet, tenant=tenant, token=token,
                              fault_plan=fault_plan,
                              retry_budget=retries,
                              attest=policy, signer=signer,
                              policy_gate=gate)
    except ReproError as err:
        return 1, f"astra-matrix: {err}"
    ok = report.success and (not policy or report.policy_ok)
    return (0 if ok else 1), "\n".join(report.summary())

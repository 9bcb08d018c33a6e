"""Run a planned matrix on the farm; push the results per-tenant.

The orchestrator is deliberately thin: all the heavy machinery already
exists.  Cells become :class:`~repro.cluster.ci.BuildFarm` submissions
(one shared Merkle :class:`~repro.cas.BuildCache`, single-flight
whole-image dedup, bounded parallelism on the sim clock, optional
worker-crash :class:`~repro.sim.FaultPlan`); successful images are
pushed into a :class:`~repro.cluster.fleet.RegistryFleet` under the
family's tenant namespace.  What this module adds is the *accounting*:
a :class:`MatrixReport` tying the static plan (predicted amplification)
to the measured run (cache stores, per-cell hit/miss slices, makespan,
queue wait) and exporting both through the obs layer's ``matrix``
counters and a ``matrix <name>`` span.

On a cold shared cache the plan is exact: the farm records one diff
store per *unique* stage build, so ``report.measured_stores ==
report.plan.unique_stage_builds`` — the matrix scaling benchmark pins
this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..archive import TarArchive
from ..core.push import flatten_archive
from ..obs.trace import kernel_span
from .plan import MatrixPlan, plan_matrix
from .spec import MatrixSpec

__all__ = ["CellOutcome", "MatrixReport", "build_matrix"]


@dataclass
class CellOutcome:
    """One cell's realized build (and push, when a fleet is attached)."""

    tag: str
    label: str                      # axis coordinates, e.g. "base=... mpi=..."
    success: bool
    deduped: bool                   # parked behind an identical in-flight cell
    digest: str = ""
    worker: int = -1
    queue_wait: float = 0.0
    duration: float = 0.0
    cache: dict = field(default_factory=dict)   # per-cell hit/miss slice
    pushed_ref: str = ""
    error: str = ""
    policy: str = ""                # "", "pass", or "reject"
    policy_error: str = ""

    def as_dict(self) -> dict:
        return {
            "tag": self.tag, "cell": self.label,
            "success": self.success, "deduped": self.deduped,
            "digest": self.digest, "worker": self.worker,
            "queue_wait": self.queue_wait, "duration": self.duration,
            "cache": dict(self.cache), "pushed": self.pushed_ref,
            "error": self.error,
            "policy": self.policy, "policy_error": self.policy_error,
        }


@dataclass
class MatrixReport:
    """Plan vs. measurement for one matrix run."""

    spec_name: str
    plan: MatrixPlan
    parallelism: int
    cells: list[CellOutcome] = field(default_factory=list)
    makespan: float = 0.0
    queue_wait_total: float = 0.0
    inflight_hits: int = 0
    measured_stores: int = 0
    measured_hits: int = 0
    worker_crashes: int = 0
    requeues: int = 0
    pushed: int = 0
    policy_rejections: int = 0
    tenant: Optional[str] = None
    fleet_report: Optional[dict] = None
    farm_report: object = None      # the underlying FarmReport

    @property
    def success(self) -> bool:
        return bool(self.cells) and all(c.success for c in self.cells)

    @property
    def policy_ok(self) -> bool:
        """True when no gated cell was rejected by the policy gate."""
        return self.policy_rejections == 0

    @property
    def amplification(self) -> float:
        return self.plan.amplification

    def digests(self) -> dict[str, str]:
        return {c.tag: c.digest for c in self.cells}

    def as_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "success": self.success,
            "parallelism": self.parallelism,
            "plan": self.plan.as_dict(),
            "amplification": self.amplification,
            "makespan": self.makespan,
            "queue_wait_total": self.queue_wait_total,
            "inflight_hits": self.inflight_hits,
            "measured_stores": self.measured_stores,
            "measured_hits": self.measured_hits,
            "worker_crashes": self.worker_crashes,
            "requeues": self.requeues,
            "pushed": self.pushed,
            "policy_rejections": self.policy_rejections,
            "tenant": self.tenant,
            "fleet": self.fleet_report,
            "cells": [c.as_dict() for c in self.cells],
        }

    def summary(self) -> list[str]:
        """Human-readable run summary (what the CLI prints)."""
        p = self.plan
        lines = [
            f"matrix {self.spec_name}: {p.n_cells} cells -> "
            f"{p.unique_cell_builds} unique images, "
            f"{p.total_stage_builds} stage builds -> "
            f"{p.unique_stage_builds} unique "
            f"(amplification {self.amplification:.2f}x)",
            f"farm: parallelism {self.parallelism}, makespan "
            f"{self.makespan * 1e3:.3f} ms, queue wait "
            f"{self.queue_wait_total * 1e3:.3f} ms, "
            f"{self.inflight_hits} single-flight replays",
            f"cache: {self.measured_stores} stores, "
            f"{self.measured_hits} hits",
        ]
        if self.worker_crashes:
            lines.append(f"faults: {self.worker_crashes} worker crash"
                         f"{'es' if self.worker_crashes != 1 else ''}, "
                         f"{self.requeues} requeues")
        if self.fleet_report is not None:
            lines.append(
                f"pushed {self.pushed} images to "
                f"{self.fleet_report['shards']} shard(s) as tenant "
                f"{self.tenant!r}")
        gated = [c for c in self.cells if c.policy]
        if gated:
            lines.append(
                f"policy gate: {len(gated) - self.policy_rejections} "
                f"pass, {self.policy_rejections} rejected")
            for c in gated:
                if c.policy == "reject":
                    lines.append(f"REJECTED {c.pushed_ref or c.tag} "
                                 f"[{c.label}]: {c.policy_error}")
        failed = [c for c in self.cells if not c.success]
        for c in failed:
            lines.append(f"FAILED {c.tag} [{c.label}]: {c.error}")
        if not failed:
            lines.append(f"ok: {len(self.cells)} cells built")
        return lines


def build_matrix(machine, user_proc, spec: MatrixSpec, *,
                 parallelism: int = 4, force: bool = False,
                 force_mode: str = "seccomp", fleet=None,
                 tenant: Optional[str] = None,
                 token: Optional[str] = None,
                 fault_plan=None, retry_budget: int = 8,
                 engine=None, build_cache=None,
                 attest: bool = False, signer=None,
                 policy_gate=None) -> MatrixReport:
    """Plan *spec*, build every cell on a shared-cache farm, and push
    successes into *fleet* (when given) under *tenant*'s namespace.

    *tenant* defaults to the spec's ``tenant`` field; the tenant is
    registered on the fleet (with *token*) if not already present.
    Raises :class:`~repro.matrix.MatrixSpecError` before any build when
    the spec is degenerate; build failures are per-cell outcomes, not
    exceptions.

    The supply-chain options ride the push: with *attest*, every cell's
    SBOM + provenance bundle is generated from the built tree and pushed
    with the image; with *signer*, the fleet signs each manifest on
    push; with *policy_gate*, every pushed image is audited fleet-side
    right after its push — a rejection is recorded on the cell (and in
    ``report.policy_rejections``) so nothing downstream deploys it.
    """
    from ..cluster.ci import BuildFarm
    from ..errors import SupplyPolicyError
    plan = plan_matrix(spec, force=force, force_mode=force_mode)
    tenant = tenant if tenant is not None else spec.tenant
    kernel = machine.kernel
    tracer = getattr(kernel, "tracer", None)
    if fleet is not None and signer is not None:
        fleet.signer = signer
    if policy_gate is not None and policy_gate.tracer is None:
        policy_gate.tracer = tracer

    with kernel_span(kernel, f"matrix {spec.name}", "matrix",
                     cells=plan.n_cells,
                     unique_stage_builds=plan.unique_stage_builds,
                     parallelism=parallelism) as sp:
        farm = BuildFarm(machine, user_proc, parallelism=parallelism,
                         engine=engine, build_cache=build_cache,
                         force_mode=force_mode, fault_plan=fault_plan,
                         retry_budget=retry_budget)
        for cell in plan.cells:
            farm.submit(tag=cell.tag, dockerfile=cell.dockerfile,
                        force=force)
        farm_report = farm.run()

        report = MatrixReport(spec_name=spec.name, plan=plan,
                              parallelism=parallelism, tenant=tenant,
                              farm_report=farm_report)
        schedule = farm_report.schedule
        report.makespan = schedule.makespan
        report.queue_wait_total = schedule.queue_wait_total
        report.inflight_hits = schedule.inflight_hits
        report.worker_crashes = schedule.worker_crashes
        report.requeues = schedule.requeues
        report.measured_stores = farm_report.cache_stats.stores
        report.measured_hits = farm_report.cache_stats.hits

        storage = farm.builder.storage
        if fleet is not None and tenant is not None \
                and tenant not in fleet.tenants:
            fleet.add_tenant(tenant, token=token)
        for cell, img, task in zip(plan.cells, farm_report.images,
                                   schedule.tasks):
            outcome = CellOutcome(
                tag=cell.tag, label=cell.variant.label,
                success=img.success, deduped=img.deduped,
                worker=task.worker, queue_wait=task.queue_wait,
                duration=task.finish - task.start,
                cache=(img.cache_stats.as_dict()
                       if img.cache_stats is not None else {}),
                error=(img.result.error if img.result is not None
                       and img.result.error else task.error))
            if img.success:
                outcome.digest = storage.digest_of(cell.tag)
                if fleet is not None:
                    ref = f"{tenant}/{cell.tag}" if tenant else cell.tag
                    archive = TarArchive.pack(
                        storage.sys, storage.path_of(cell.tag))
                    attestations = None
                    if attest:
                        from ..supply import build_attestations
                        attestations = build_attestations(
                            farm.builder, cell.tag, cell.dockerfile,
                            force=force, force_mode=force_mode).blobs()
                    fleet.push(ref, storage.config_of(cell.tag),
                               [flatten_archive(archive)], token=token,
                               attestations=attestations)
                    outcome.pushed_ref = ref
                    report.pushed += 1
                    if policy_gate is not None:
                        try:
                            policy_gate.check(fleet, ref)
                            outcome.policy = "pass"
                        except SupplyPolicyError as err:
                            outcome.policy = "reject"
                            outcome.policy_error = "; ".join(
                                err.violations) or str(err)
                            report.policy_rejections += 1
            report.cells.append(outcome)
        if fleet is not None:
            report.fleet_report = fleet.report()

        if tracer is not None:
            m = tracer.metrics.counters
            m.count("matrix.cells", plan.n_cells)
            m.count("matrix.unique_cell_builds", plan.unique_cell_builds)
            m.count("matrix.stage_builds_total", plan.total_stage_builds)
            m.count("matrix.stage_builds_unique", plan.unique_stage_builds)
            m.count("matrix.amplification_x100",
                    int(plan.amplification * 100))
            m.count("matrix.makespan_us", int(report.makespan * 1e6))
            m.count("matrix.pushed", report.pushed)
            if report.policy_rejections:
                m.count("matrix.policy_rejections",
                        report.policy_rejections)
            if not report.success:
                m.count("matrix.failed_cells",
                        sum(1 for c in report.cells if not c.success))
        if not report.success and sp is not None:
            sp.fail(f"{sum(1 for c in report.cells if not c.success)} "
                    f"of {plan.n_cells} cells failed")
    return report

"""Seeded open-loop workload generation for registry-scale benchmarks.

The ROADMAP's "heavy traffic" axis needs load that looks like a
production registry's: requests arrive on their own schedule whether or
not the service keeps up (open loop — Poisson arrivals), a few images
take most of the traffic (Zipf popularity), and the traffic is split
across tenants (the `tenant/repo:tag` namespaces the fleet serves).

Everything is a pure function of the spec's seed: one
``random.Random(f"{seed}|workload")`` stream drives inter-arrival gaps,
image choice, and tenant choice, so two runs of the same spec produce the
identical request tape — which is what lets the fault-matrix tests replay
a workload under different :class:`~repro.sim.FaultPlan`\\ s and assert
byte-identical convergence.

:func:`run_workload` plays a tape against a
:class:`~repro.cluster.fleet.RegistryFleet` on a :class:`SimEngine`:
each request is an event at its arrival time, overload 503s and registry
flakes are retried per :class:`RetryPolicy` (honouring ``retry_at``), and
the report aggregates throughput and latency percentiles.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import RegistryError, ReproError, TransientError
from .events import SimEngine
from .faults import FaultPlan, RetryPolicy

__all__ = ["PullRequest", "WorkloadError", "WorkloadReport",
           "WorkloadSpec", "generate_requests", "run_workload",
           "zipf_weights"]


class WorkloadError(ReproError):
    """Bad workload spec."""


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalized Zipf weights ``1/rank^s`` for ranks ``1..n``."""
    if n <= 0:
        raise WorkloadError(f"need at least one item: {n}")
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


@dataclass(frozen=True)
class PullRequest:
    """One client pull in the tape."""

    index: int
    at: float                 # virtual arrival time
    tenant: str
    image: str                # full ref, e.g. "alice/app:v0"
    token: Optional[str] = None

    def as_dict(self) -> dict:
        return {"index": self.index, "at": round(self.at, 9),
                "tenant": self.tenant, "image": self.image}


@dataclass
class WorkloadSpec:
    """A seeded open-loop pull workload.

    ``images`` are ``repo:tag`` names ranked by popularity (rank 1 is
    hottest); ``tenants`` are ``(name, weight)`` pairs.  A request pulls
    ``{tenant}/{image}``, so the same repo exists independently under
    each tenant — the benchmark pushes it once per tenant.
    """

    seed: int = 0
    rate: float = 50.0               # mean arrivals per virtual second
    duration: float = 10.0           # seconds of arrivals
    zipf_s: float = 1.1              # popularity skew exponent
    images: Sequence[str] = ("app:v0",)
    tenants: Sequence[tuple[str, float]] = (("alice", 1.0),)
    tokens: dict = field(default_factory=dict)  # tenant -> auth token

    def validate(self) -> None:
        if self.rate <= 0:
            raise WorkloadError(f"rate must be positive: {self.rate}")
        if self.duration <= 0:
            raise WorkloadError(
                f"duration must be positive: {self.duration}")
        if not self.images:
            raise WorkloadError("spec needs at least one image")
        if not self.tenants or any(w <= 0 for _, w in self.tenants):
            raise WorkloadError(
                "spec needs tenants with positive weights")

    def refs(self) -> list[str]:
        """Every distinct ref the workload can request (push these)."""
        return [f"{tenant}/{image}"
                for tenant, _ in self.tenants for image in self.images]


def _cdf(weights: Sequence[float]) -> list[float]:
    total, out = 0.0, []
    for w in weights:
        total += w
        out.append(total)
    return out


def generate_requests(spec: WorkloadSpec) -> list[PullRequest]:
    """The deterministic request tape for *spec* (sorted by arrival)."""
    spec.validate()
    rng = random.Random(f"{spec.seed}|workload")
    image_cdf = _cdf(zipf_weights(len(spec.images), spec.zipf_s))
    tenant_cdf = _cdf([w for _, w in spec.tenants])
    requests: list[PullRequest] = []
    t = 0.0
    while True:
        t += rng.expovariate(spec.rate)
        if t >= spec.duration:
            break
        image = spec.images[
            bisect_right(image_cdf, rng.random() * image_cdf[-1])]
        tenant = spec.tenants[
            bisect_right(tenant_cdf, rng.random() * tenant_cdf[-1])][0]
        requests.append(PullRequest(
            index=len(requests), at=t, tenant=tenant,
            image=f"{tenant}/{image}",
            token=spec.tokens.get(tenant)))
    return requests


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


@dataclass
class WorkloadReport:
    """What one workload run did, open-loop accounting included."""

    offered: int = 0                 # requests in the tape
    completed: int = 0
    dropped: int = 0                 # retry budget exhausted
    failed: int = 0                  # non-retryable errors (auth, missing)
    retries: int = 0
    overloads: int = 0               # 503-style admission rejections seen
    faults: int = 0                  # transient faults seen (incl. flakes)
    backoff_seconds: float = 0.0
    makespan: float = 0.0            # last completion time
    latencies: list[float] = field(default_factory=list)

    @property
    def p50(self) -> float:
        return _percentile(sorted(self.latencies), 0.50)

    @property
    def p99(self) -> float:
        return _percentile(sorted(self.latencies), 0.99)

    @property
    def pulls_per_sec(self) -> float:
        elapsed = self.makespan
        return self.completed / elapsed if elapsed > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "dropped": self.dropped,
            "failed": self.failed,
            "retries": self.retries,
            "overloads": self.overloads,
            "faults": self.faults,
            "backoff_seconds": round(self.backoff_seconds, 9),
            "makespan": round(self.makespan, 9),
            "pulls_per_sec": round(self.pulls_per_sec, 6),
            "p50": round(self.p50, 9),
            "p99": round(self.p99, 9),
        }


def run_workload(fleet, spec: WorkloadSpec, *,
                 engine: Optional[SimEngine] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 tracer=None) -> WorkloadReport:
    """Play *spec*'s request tape against *fleet* on the sim clock.

    Binds ``fleet.clock`` to the engine for the run (activating admission
    control) and installs *fault_plan*'s injector when given, restoring
    both afterwards.  Transient failures — overload 503s, registry
    flakes — are retried per *retry_policy* from ``max(now + backoff,
    retry_at)``; a request that exhausts the budget is counted dropped.
    """
    from ..cluster.fleet import FleetOverloadError  # lazy: sim <- cluster
    engine = engine if engine is not None else SimEngine()
    policy = retry_policy if retry_policy is not None \
        else RetryPolicy(seed=spec.seed)
    requests = generate_requests(spec)
    report = WorkloadReport(offered=len(requests))

    def attempt(req: PullRequest, n: int) -> None:
        now = engine.now
        try:
            end = fleet.timed_pull(req.image, now=now, token=req.token)
        except TransientError as exc:
            report.faults += 1
            if isinstance(exc, FleetOverloadError):
                report.overloads += 1
            if n < policy.budget:
                delay = policy.backoff(n, f"pull|{req.index}")
                at = max(now + delay, exc.retry_at)
                report.retries += 1
                report.backoff_seconds += at - now
                engine.at(at, attempt, req, n + 1)
            else:
                report.dropped += 1
            return
        except RegistryError:
            report.failed += 1
            return
        report.completed += 1
        report.latencies.append(end - req.at)
        report.makespan = max(report.makespan, end)

    prev_clock = fleet.clock
    prev_injector = fleet.fault_injector
    fleet.clock = engine.clock
    if fault_plan is not None and prev_injector is None:
        fault_plan.bind_registry(fleet.name)
        fleet.fault_injector = fault_plan.injector(engine.clock)
    try:
        for req in requests:
            engine.at(req.at, attempt, req, 0)
        engine.run()
    finally:
        fleet.clock = prev_clock
        fleet.fault_injector = prev_injector
    if tracer is not None:
        m = tracer.metrics.counters
        m.count("net.workload_offered", report.offered)
        m.count("net.workload_completed", report.completed)
        m.count("net.workload_dropped", report.dropped)
        m.count("net.workload_retries", report.retries)
    return report

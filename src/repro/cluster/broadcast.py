"""Daemonless blob distribution for parallel deploy (§4.2 / §6.3).

Two strategies for getting a pushed image's blobs onto N compute nodes:

* ``registry`` — every node pulls every blob straight from the site
  registry.  Egress is O(N·image) and, since the registry has one uplink,
  makespan is O(N): the canonical fan-out bottleneck.
* ``tree`` — a **binomial-tree broadcast**: nodes that already hold a
  blob root their own trees (a forest — every pre-existing holder serves
  round 0); if nobody holds it, rank 0 pulls it from the registry *once*.
  Holders re-serve chunks to peers over node-to-node links, doubling the
  holder set every round.  Registry egress drops to O(image) and makespan
  to O(log N) at fixed link bandwidth.  Transfers are chunked and
  pipelined — a relay re-serves chunks while still receiving the tail of
  the blob — and every hop dedups against the receiving node's
  :class:`~repro.cas.ContentStore`.

Both strategies are **fault-tolerant** when given a
:class:`~repro.sim.FaultPlan`: transient failures (link-down windows,
registry flakes, slow links tripping the attempt timeout) are retried
with the :class:`~repro.sim.RetryPolicy`'s capped exponential backoff; a
relay that crashes has its unserved subtree **re-parented** onto the
earliest-ready surviving holder (tree repair); a node whose tree is
exhausted falls back to pulling straight from the registry.  The
invariant the fault tests pin down: with any plan that leaves the
registry reachable, surviving nodes converge to stores digest-identical
to the fault-free run — only the makespan degrades.

No daemon appears anywhere in the chain (§3.1): the "peers" are the
user's own job ranks re-serving bytes they already hold, exactly like the
MPI broadcast the application itself will run a moment later.  Nothing
here runs as root, persists beyond the job, or accepts work from anyone
but the job's own ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from ..containers.oci import ImageRef
from ..containers.registry import Registry
from ..errors import RegistryError, ReproError, TransientError
from ..obs.trace import maybe_span
from ..sim import (NS_PER_S, FaultPlan, RetryPolicy, SimEngine, Topology,
                   faulty_transmit, link_restore, link_snapshot, to_ns,
                   transmit)
from .machines import Machine

__all__ = ["BroadcastError", "BroadcastReport", "DEPLOY_STRATEGIES",
           "TransferRecord", "binomial_children", "distribute_blobs",
           "distribute_cache", "distribute_image", "make_deploy_topology"]

DEPLOY_STRATEGIES = ("registry", "tree")


class BroadcastError(ReproError):
    """Bad strategy or missing distribution preconditions."""


def make_deploy_topology(registry: Registry, nodes: Sequence[Machine],
                         topology: Optional[Topology] = None,
                         **kwargs) -> Topology:
    """A star fabric for one deployment: one uplink per endpoint, the
    registry's endpoints (itself, or each shard of a fleet) and every
    node attached (``obj.netlink`` set on each).  Attaches to *topology*
    when given, else to a new ``Topology(**kwargs)``."""
    topo = topology if topology is not None else Topology(**kwargs)
    for endpoint in [*registry.endpoints(), *nodes]:
        topo.attach(endpoint)
    return topo


def binomial_children(n: int) -> dict[int, list[int]]:
    """Children of each position in a binomial broadcast over *n*
    positions (0 is the root).  In round *r*, every current holder *i*
    (< 2^r) sends to *i + 2^r*; a node's children are listed in the round
    order it serves them."""
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    step = 1
    while step < n:
        for i in range(step):
            if i + step < n:
                children[i].append(i + step)
        step *= 2
    return children


@dataclass
class TransferRecord:
    """One blob moving over one hop."""

    digest: str
    size: int
    src: str
    dst: str
    start: float
    end: float

    def as_dict(self) -> dict:
        return {"digest": self.digest[:19], "size": self.size,
                "src": self.src, "dst": self.dst,
                "start": round(self.start, 9), "end": round(self.end, 9)}


@dataclass
class BroadcastReport:
    """What one distribution did, and when everything landed."""

    strategy: str
    blobs: int = 0
    image_bytes: int = 0             # Σ blob sizes (one copy)
    registry_egress_bytes: int = 0   # bytes that left the registry
    registry_blobs_pulled: int = 0
    peer_bytes: int = 0              # bytes moved node-to-node
    peer_sends: int = 0
    blobs_skipped: int = 0           # (node, blob) pairs already local
    node_ready: dict[str, float] = field(default_factory=dict)
    transfers: list[TransferRecord] = field(default_factory=list)
    started_at: float = 0.0
    # fault-path accounting (all zero on a clean run)
    attempts: int = 0                # transfer/pull attempts incl. retries
    retries: int = 0
    backoff_seconds: float = 0.0     # virtual seconds spent backing off
    faults_injected: int = 0         # faults this distribution observed
    reparented_subtrees: int = 0     # children moved off a dead relay
    registry_fallbacks: int = 0      # nodes whose tree was exhausted
    crashed: list[str] = field(default_factory=list)
    degraded: list[str] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Virtual seconds from distribution start until the last node
        held every blob."""
        if not self.node_ready:
            return 0.0
        return max(self.node_ready.values()) - self.started_at

    @property
    def clean(self) -> bool:
        """True when no fault touched this distribution."""
        return not (self.faults_injected or self.crashed or self.degraded)

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "blobs": self.blobs,
            "image_bytes": self.image_bytes,
            "registry_egress_bytes": self.registry_egress_bytes,
            "registry_blobs_pulled": self.registry_blobs_pulled,
            "peer_bytes": self.peer_bytes,
            "peer_sends": self.peer_sends,
            "blobs_skipped": self.blobs_skipped,
            "makespan": round(self.makespan, 9),
            "node_ready": {h: round(t, 9)
                           for h, t in sorted(self.node_ready.items())},
            "transfers": len(self.transfers),
            "attempts": self.attempts,
            "retries": self.retries,
            "backoff_seconds": round(self.backoff_seconds, 9),
            "faults_injected": self.faults_injected,
            "reparented_subtrees": self.reparented_subtrees,
            "registry_fallbacks": self.registry_fallbacks,
            "crashed": list(self.crashed),
            "degraded": list(self.degraded),
        }


class _CastContext:
    """Everything the per-blob casts share for one distribution."""

    def __init__(self, registry, nodes, topology, chunk, engine, report,
                 tracer, plan, policy):
        self.registry = registry
        self.nodes = nodes
        self.topology = topology
        self.chunk = chunk
        self.engine = engine
        self.report = report
        self.tracer = tracer
        self.plan = plan
        self.policy = policy
        self.crashed: set[str] = set()    # hostnames whose crash manifested
        self.degraded: set[str] = set()   # gave up: no path to the blob
        # Event coalescing is only sound when the cast's tree cannot be
        # rewired mid-flight: under a live fault plan a leaf may later be
        # promoted to a relay (re-parenting) or probed for crashes by its
        # serve event, so every transfer keeps its chunk schedule there.
        self.coalesce = (plan is None or plan.empty) and engine.fast

    def blob_source(self, digest: str) -> tuple[str, object]:
        """``(name, link)`` of the endpoint serving *digest*.

        A sharded fleet routes each digest to the nearest live holder on
        its ring; a plain registry is the single origin.  Raises
        :class:`~repro.errors.RegistryError` when no live shard holds the
        blob, and :class:`BroadcastError` when the serving endpoint was
        never attached to the topology."""
        name = self.registry.route_blob(digest).name
        if not self.topology.has(name):
            raise BroadcastError(
                f"registry {name!r} is not attached to the deploy topology")
        return name, self.topology.link(name)

    def crashed_by(self, hostname: str, t: float) -> bool:
        return self.plan is not None and self.plan.crashed_by(hostname, t)

    def mark_crashed(self, hostname: str) -> None:
        if hostname not in self.crashed:
            self.crashed.add(hostname)
            self.report.faults_injected += 1


class _BlobCast:
    """One blob's journey to every node, as events on the engine.

    Fault-free this produces exactly the timings of the straight-line
    implementation (the same ``transmit`` calls in the same order); under
    a fault plan it retries, repairs the tree, and falls back to the
    registry, all deterministically.
    """

    def __init__(self, ctx: _CastContext, digest: str, size: int,
                 strategy: str):
        self.ctx = ctx
        self.digest = digest
        self.size = size
        self.strategy = strategy
        self.blob: Optional[bytes] = None
        # hostname -> machines it still owes the blob to (mutable: repair
        # re-parents subtrees by moving entries between these lists)
        self.children: dict[str, list[Machine]] = {}
        # hostname -> per-chunk arrival times in ns (a pipelined relay)
        # or a single time (every chunk available at once: a pre-existing
        # holder, or a node whose transfer was coalesced)
        self.chunk_avail: dict[str, Union[int, list[int]]] = {}
        self.done: set[str] = set()           # hold the complete blob
        self.dead: set[str] = set()           # crashed, as seen by this cast
        self.ready_at: dict[str, int] = {}    # when the blob landed (ns)

    # -- helpers -----------------------------------------------------------

    @property
    def _r(self):
        return self.ctx.report

    def _link(self, hostname: str):
        return self.ctx.topology.link(hostname)

    def _retry_key(self, kind: str, hostname: str) -> str:
        return f"{self.digest[:19]}|{kind}|{hostname}"

    def _mark_dead(self, hostname: str) -> None:
        self.dead.add(hostname)
        self.ctx.mark_crashed(hostname)

    def _observed(self, hostname: str) -> bool:
        """Does anyone observe *hostname*'s mid-flight chunks?  A relay's
        chunk arrivals seed its children's pipelined sends; a leaf's are
        observed by nobody, so its transfer coalesces into one completion
        event (unless a fault plan could still rewire the tree)."""
        return bool(self.children.get(hostname)) or not self.ctx.coalesce

    # -- entry point -------------------------------------------------------

    def start(self) -> None:
        """Event at distribution start: plan the cast and kick it off."""
        ctx, t0 = self.ctx, self.ctx.engine.now
        live: list[Machine] = []
        for node in ctx.nodes:
            if ctx.crashed_by(node.hostname, t0):
                self._mark_dead(node.hostname)
            else:
                live.append(node)
        holders = [n for n in live if n.content_store.has(self.digest)]
        needy = [n for n in live if not n.content_store.has(self.digest)]
        self._r.blobs_skipped += len(holders)
        if not needy or self.size <= 0:
            return

        if self.strategy == "registry":
            # one pull event per node, all at t0: the §4.2 pull storm is
            # a same-timestamp flood, and the EventQueue bucket fast path
            # absorbs it without heap churn.  FIFO within the bucket
            # keeps the registry link's FIFO reservations in the same
            # order a synchronous loop would produce.
            for node in needy:
                ctx.engine.at(t0, self.pull, node, 0)
            return

        if holders:
            # per-blob dedup: every node already holding the blob roots
            # its own tree — a forest with the needy nodes interleaved
            # round-robin — and the registry is never touched for it
            self.blob = holders[0].content_store.get(self.digest)
            t0_ns = to_ns(t0)
            for k, holder in enumerate(holders):
                self.done.add(holder.hostname)
                self.ready_at[holder.hostname] = t0_ns
                self.chunk_avail[holder.hostname] = t0_ns
                order = [holder] + needy[k::len(holders)]
                self._plant_tree(order)
                ctx.engine.at(t0, self.serve, holder)
        else:
            # rank 0 pulls from the registry exactly once
            self._plant_tree(needy)
            self.pull(needy[0], 0)

    def _plant_tree(self, order: Sequence[Machine]) -> None:
        tree = binomial_children(len(order))
        for i, machine in enumerate(order):
            kids = [order[j] for j in tree[i]]
            if kids:
                self.children.setdefault(machine.hostname, []).extend(kids)

    # -- registry pulls (tree root, fallback, and the direct strategy) -----

    def pull(self, node: Machine, attempt: int) -> None:
        """Event: *node* pulls the blob straight from the registry."""
        ctx, host = self.ctx, node.hostname
        if host in self.done or host in self.dead:
            return
        now = ctx.engine.now
        if ctx.crashed_by(host, now):
            self._mark_dead(host)
            self._orphan(host)
            return
        try:
            src_name, src_link = self.ctx.blob_source(self.digest)
        except TransientError as exc:
            self._r.attempts += 1
            self._transient("pull", node, attempt, exc)
            return
        except RegistryError:
            # no live shard holds this blob: nothing to retry against
            ctx.degraded.add(host)
            return
        self._r.attempts += 1
        timeout = ctx.policy.attempt_timeout if ctx.plan is not None else None
        dst = self._link(host)
        snap_src, snap_dst = link_snapshot(src_link), link_snapshot(dst)
        try:
            # transmit first, fetch second: a flake during the transfer
            # must not leave the pull counted in the source's stats
            timing = faulty_transmit(
                ctx.plan, src_link, dst, self.size,
                chunk_size=ctx.chunk, available=to_ns(now), now=now,
                attempt_timeout=timeout,
                record_arrivals=self._observed(host), fast=ctx.engine.fast)
            blob = ctx.registry.fetch_blob(self.digest)
        except TransientError as exc:
            link_restore(src_link, snap_src)
            link_restore(dst, snap_dst)
            self._transient("pull", node, attempt, exc)
            return
        if self.blob is None:
            self.blob = blob
        self._r.registry_egress_bytes += self.size
        self._r.registry_blobs_pulled += 1
        node.content_store.put(blob)
        self._landed(node, timing, src=src_name)

    # -- peer serving ------------------------------------------------------

    def serve(self, sender: Machine) -> None:
        """Event: *sender* holds (the head of) the blob; re-serve it to
        each child, pipelining chunks as they arrived."""
        host = sender.hostname
        if host in self.dead:
            return
        if self.ctx.crashed_by(host, self.ctx.engine.now):
            self._mark_dead(host)
            self._orphan(host)
            return
        for child in list(self.children.get(host, ())):
            self.send(sender, child, 0)

    def send(self, sender: Machine, child: Machine, attempt: int) -> None:
        """One hop (possibly a retry) from *sender* to *child*."""
        ctx = self.ctx
        shost, chost = sender.hostname, child.hostname
        if chost in self.done or chost in self.dead:
            return
        now = ctx.engine.now
        if shost in self.dead or ctx.crashed_by(shost, now):
            if shost not in self.dead:
                self._mark_dead(shost)
            self._orphan(shost)
            return
        if ctx.crashed_by(chost, now):
            # the child is gone: absorb its subtree — the sender serves
            # the grandchildren directly
            self._mark_dead(chost)
            for grandchild in self._disinherit(chost):
                self.children.setdefault(shost, []).append(grandchild)
                self._r.reparented_subtrees += 1
                ctx.engine.at(now, self.send, sender, grandchild, 0)
            return
        self._r.attempts += 1
        src, dst = self._link(shost), self._link(chost)
        plan = ctx.plan
        if plan is None:
            # nothing can interrupt a clean hop, so there is nothing to
            # roll back and no snapshot to take
            timing = transmit(src, dst, self.size, chunk_size=ctx.chunk,
                              available=self.chunk_avail[shost],
                              record_arrivals=self._observed(chost),
                              fast=ctx.engine.fast)
            self._landed(child, timing, src=shost, peer=True)
            return
        snap_src, snap_dst = link_snapshot(src), link_snapshot(dst)
        try:
            timing = faulty_transmit(
                plan, src, dst, self.size, chunk_size=ctx.chunk,
                available=self.chunk_avail[shost], now=now,
                attempt_timeout=ctx.policy.attempt_timeout,
                record_arrivals=self._observed(chost),
                fast=ctx.engine.fast)
        except TransientError as exc:
            self._transient("send", child, attempt, exc, sender=sender)
            return
        crash_t = plan.crash_time(shost)
        if crash_t is not None and now < crash_t < timing.end / NS_PER_S:
            # the sender dies mid-transfer: the chunks never complete, so
            # roll the reservations and stats back and repair the tree
            link_restore(src, snap_src)
            link_restore(dst, snap_dst)
            self._mark_dead(shost)
            self._orphan(shost)
            return
        self._landed(child, timing, src=shost, peer=True)

    def _landed(self, node: Machine, timing, *, src: str,
                peer: bool = False) -> None:
        """The blob (all chunks) reached *node*."""
        host = node.hostname
        self.done.add(host)
        if peer:
            node.content_store.put(self.blob)
            self._r.peer_bytes += self.size
            self._r.peer_sends += 1
        # a coalesced transfer (chunk_arrivals is None) means the node is
        # a leaf: it holds everything at timing.end, and should it ever
        # serve after all (it can't — coalescing is off under fault
        # plans), scalar availability gives the identical schedule
        arrivals = timing.chunk_arrivals
        self.chunk_avail[host] = arrivals if arrivals is not None \
            else timing.end
        self.ready_at[host] = timing.end
        end = timing.end / NS_PER_S
        self._r.node_ready[host] = max(
            self._r.node_ready.get(host, self._r.started_at), end)
        self._r.transfers.append(TransferRecord(
            self.digest, self.size, src, host, timing.start / NS_PER_S, end))
        if self.strategy == "tree" and self._observed(host):
            # the node becomes a server as soon as its first chunk lands;
            # childless nodes on a clean run never serve, so their
            # no-op serve events coalesce away entirely
            self.ctx.engine.at(timing.first_arrival / NS_PER_S, self.serve,
                               node)

    # -- repair ------------------------------------------------------------

    def _disinherit(self, hostname: str) -> list[Machine]:
        """Remove and return *hostname*'s unserved children."""
        orphans = [c for c in self.children.pop(hostname, [])
                   if c.hostname not in self.done
                   and c.hostname not in self.dead]
        return orphans

    def _orphan(self, hostname: str) -> None:
        """Re-parent a dead relay's unserved subtree onto the
        earliest-ready surviving holder, or fall back to the registry."""
        orphans = self._disinherit(hostname)
        if not orphans:
            return
        now = self.ctx.engine.now
        survivors = [h for h in self.done
                     if h not in self.dead and h != hostname]
        parent_host = min(survivors, key=lambda h: (self.ready_at[h], h),
                          default=None)
        parent = None
        if parent_host is not None:
            parent = next(n for n in self.ctx.nodes
                          if n.hostname == parent_host)
        for child in orphans:
            self._r.reparented_subtrees += 1
            if parent is not None:
                self.children.setdefault(parent_host, []).append(child)
                self.ctx.engine.at(now, self.send, parent, child, 0)
            else:
                # tree exhausted for this child: go straight to the source
                self._r.registry_fallbacks += 1
                self.ctx.engine.at(now, self.pull, child, 0)

    # -- retries -----------------------------------------------------------

    def _transient(self, kind: str, node: Machine, attempt: int,
                   exc: TransientError, *,
                   sender: Optional[Machine] = None) -> None:
        ctx, now = self.ctx, self.ctx.engine.now
        self._r.faults_injected += 1
        if attempt < ctx.policy.budget:
            delay = ctx.policy.backoff(
                attempt, self._retry_key(kind, node.hostname))
            at = max(now + delay, exc.retry_at)
            self._r.retries += 1
            self._r.backoff_seconds += at - now
            with maybe_span(ctx.tracer, f"retry {kind} -> {node.hostname}",
                            "retry", attempt=attempt + 1,
                            backoff=round(at - now, 9), at=round(at, 9)):
                pass
            if kind == "send":
                ctx.engine.at(at, self.send, sender, node, attempt + 1)
            else:
                ctx.engine.at(at, self.pull, node, attempt + 1)
        elif kind == "send":
            # this branch of the tree is exhausted — fall back to the
            # registry rather than deadlocking the subtree
            self._r.registry_fallbacks += 1
            ctx.engine.at(now, self.pull, node, 0)
        else:
            # even the registry path is out of budget: degraded node
            ctx.degraded.add(node.hostname)


def distribute_blobs(
    registry: Registry,
    digests: Iterable[str],
    nodes: Sequence[Machine],
    topology: Topology,
    *,
    strategy: str = "tree",
    engine: Optional[SimEngine] = None,
    tracer=None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> BroadcastReport:
    """Place every blob in *digests* into every node's ContentStore,
    timing the transfers on *topology*; returns the distribution report.

    The actual byte movement is real (each node's store ends up holding
    the blobs, digest-verified by the store itself); the timing is the
    simulated-network cost of that movement.  With a *fault_plan*, the
    plan's faults fire on the engine's clock and transfers are retried
    per *retry_policy* (default: ``RetryPolicy(seed=plan.seed)``).
    """
    if strategy not in DEPLOY_STRATEGIES:
        raise BroadcastError(
            f"unknown deploy strategy {strategy!r} "
            f"(choose from {DEPLOY_STRATEGIES})")
    engine = engine if engine is not None else SimEngine()
    digests = list(digests)
    report = BroadcastReport(strategy=strategy, blobs=len(digests),
                             started_at=engine.now)
    for node in nodes:
        report.node_ready[node.hostname] = engine.now

    plan = fault_plan
    if plan is not None:
        plan.bind(n.hostname for n in nodes)
        plan.bind_registry(registry.name)
    if retry_policy is None:
        retry_policy = RetryPolicy(seed=plan.seed if plan is not None else 0)
    ctx = _CastContext(registry, list(nodes), topology,
                       topology.chunk_size, engine, report, tracer, plan,
                       retry_policy)
    installed = plan is not None and registry.fault_injector is None
    if installed:
        registry.fault_injector = plan.injector(engine.clock)
    try:
        with maybe_span(tracer, f"distribute [{strategy}]", "broadcast",
                        strategy=strategy, registry=registry.name,
                        nodes=len(nodes), blobs=len(digests)) as span:
            for digest in digests:
                size = registry.blob_size(digest)
                report.image_bytes += size
                cast = _BlobCast(ctx, digest, size, strategy)
                engine.at(engine.now, cast.start)
            engine.run()
            for host in sorted(ctx.crashed | ctx.degraded):
                report.node_ready.pop(host, None)
            report.crashed = sorted(ctx.crashed)
            report.degraded = sorted(ctx.degraded - ctx.crashed)
            if span is not None:
                span.meta["makespan"] = round(report.makespan, 9)
                span.meta["registry_egress_bytes"] = \
                    report.registry_egress_bytes
                span.meta["peer_bytes"] = report.peer_bytes
                if not report.clean:
                    span.meta["faults_injected"] = report.faults_injected
                    span.meta["retries"] = report.retries
                    span.meta["crashed"] = len(report.crashed)
    finally:
        if installed:
            registry.fault_injector = None
    _count_metrics(tracer, report)
    return report


def _count_metrics(tracer, report: BroadcastReport) -> None:
    """Link-utilization and egress counters on the tracer's metrics."""
    if tracer is None:
        return
    m = tracer.metrics.counters
    m.count("net.deploy_distributions", 1)
    m.count("net.deploy_registry_egress_bytes",
            report.registry_egress_bytes)
    m.count("net.deploy_peer_bytes", report.peer_bytes)
    m.count("net.deploy_peer_sends", report.peer_sends)
    m.count("net.deploy_blobs_skipped", report.blobs_skipped)
    m.count("net.deploy_makespan_usec", int(report.makespan * 1e6))
    if report.faults_injected:
        m.count("net.deploy_faults_injected", report.faults_injected)
    if report.retries:
        m.count("net.deploy_retries", report.retries)
    if report.backoff_seconds:
        m.count("net.deploy_backoff_usec",
                int(report.backoff_seconds * 1e6))
    if report.reparented_subtrees:
        m.count("net.deploy_reparented_subtrees",
                report.reparented_subtrees)
    if report.registry_fallbacks:
        m.count("net.deploy_registry_fallbacks", report.registry_fallbacks)


def distribute_image(
    registry: Registry,
    ref: ImageRef | str,
    nodes: Sequence[Machine],
    topology: Topology,
    *,
    arch: Optional[str] = None,
    strategy: str = "tree",
    engine: Optional[SimEngine] = None,
    tracer=None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> BroadcastReport:
    """Distribute an image's layer blobs to *nodes* ahead of deploy."""
    digests = registry.image_blob_digests(ref, arch=arch)
    return distribute_blobs(registry, digests, nodes, topology,
                            strategy=strategy, engine=engine, tracer=tracer,
                            fault_plan=fault_plan, retry_policy=retry_policy)


def distribute_cache(
    registry: Registry,
    ref: ImageRef | str,
    nodes: Sequence[Machine],
    topology: Topology,
    *,
    strategy: str = "tree",
    engine: Optional[SimEngine] = None,
    tracer=None,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> BroadcastReport:
    """Distribute a build-cache export's blobs (diffs + manifest) so each
    node's cache import is served from its local store."""
    digests = registry.cache_blob_digests(ref)
    return distribute_blobs(registry, digests, nodes, topology,
                            strategy=strategy, engine=engine, tracer=tracer,
                            fault_plan=fault_plan, retry_policy=retry_policy)

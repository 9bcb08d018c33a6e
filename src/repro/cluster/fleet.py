"""A multi-tenant sharded registry fleet (the ROADMAP's scale-out story).

One :class:`~repro.containers.registry.Registry` per world is the §4.2
seed ("a dedicated login node with a docker registry on networked
storage"); production means millions of users hammering push/pull.  This
module grows that seed into a *fleet*:

* **Consistent-hash placement** — blobs land on shards via a
  :class:`HashRing` of sha256 virtual nodes.  Placement is a pure
  function of (digest, shard names, vnodes): two worlds with the same
  fleet shape place every blob identically, and adding a shard relocates
  only ~K/N keys (the minimal-movement property the ring tests pin).
* **Replication with read fan-out** — every blob is written to R
  distinct shards clockwise from its hash point; reads go to the
  *nearest live* holder (least queue depth, ring order as tie-break), so
  a shard crash just re-routes to the replicas.
* **Peer-to-peer shard fill** — replicas and rebalance targets are
  filled shard-to-shard with the existing binomial-tree broadcast
  (:func:`~repro.cluster.broadcast.distribute_blobs`), not with origin
  re-uploads; the moved bytes are accounted as ``rebalance_bytes``, never
  as client push/pull traffic (the zero-double-counting invariant).
* **Per-tenant namespaces, quotas, and token auth** — repositories are
  namespaced ``tenant/repo:tag``.  A registered tenant's repos are
  private: pushes and pulls must present the tenant's token; pushes
  beyond the byte quota are rejected with a *retryable* error (quota can
  free up).  Per-tenant stats are computed only from that tenant's own
  repositories and never name another tenant's blob digests.
* **Admission control with backpressure** — each shard is a FIFO server
  on the sim clock with a bounded queue; an arrival that would exceed
  the bound gets a 503-style :class:`FleetOverloadError` carrying
  ``retry_at``, which composes with the PR-6
  :class:`~repro.sim.RetryPolicy` exactly like a registry flake.

The fleet *is* a :class:`Registry`: the front door and every metadata
table are inherited and held once, and only the blob plane and tenancy
are the fleet's own.  Podman pushes, ch-image pulls, the §6.2.5 policy,
the supply-chain gate, and the tree-broadcast deploy path all work
unchanged when :func:`deploy_fleet` swaps it in as the world's site
registry.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..archive import TarArchive
from ..cas.store import blob_digest
from ..containers.oci import ImageConfig, ImageRef, Manifest
from ..containers.registry import Registry, TransferStats, as_ref
from ..errors import RegistryError, TransientError

__all__ = [
    "FleetError",
    "FleetAuthError",
    "FleetQuotaError",
    "FleetOverloadError",
    "HashRing",
    "RegistryShard",
    "RegistryFleet",
    "Tenant",
    "deploy_fleet",
]


class FleetError(RegistryError):
    """A fleet-level registry operation failed."""


class FleetAuthError(FleetError):
    """Missing or wrong tenant token (the 401/403 of this world)."""


class FleetQuotaError(TransientError, FleetError):
    """Push rejected: tenant byte quota exhausted.  Retryable — quota
    frees up when the tenant deletes images or is re-provisioned."""


class FleetOverloadError(TransientError, FleetError):
    """Shard admission queue full (the 503 of this world).  ``retry_at``
    is the earliest virtual time a queue slot can free up."""


# --------------------------------------------------------------------------
# Consistent-hash ring


def _ring_hash(key: str) -> int:
    """Deterministic 64-bit ring position (sha256 prefix — no process
    randomization, so placement agrees across worlds and runs)."""
    return int.from_bytes(
        hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Each shard contributes ``vnodes`` points at
    ``sha256(f"{shard}#{i}")``; a key is owned by the first ``n``
    *distinct* shards clockwise from ``sha256(key)``.  Determinism and
    the minimal-movement property both follow from the points being a
    pure function of the shard name.

    Placement changes only when a shard joins or leaves, so
    :meth:`holders` is memoized per ``(key, n)`` and :meth:`add` /
    :meth:`remove` clear the memo.
    """

    def __init__(self, shards: Iterable[str] = (), *, vnodes: int = 64):
        if vnodes <= 0:
            raise FleetError(f"vnodes must be positive: {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []  # sorted (hash, shard)
        self._shards: set[str] = set()
        self._memo: dict[tuple[str, int], tuple[str, ...]] = {}
        for name in shards:
            self.add(name)

    @property
    def shards(self) -> list[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def _vnode_points(self, name: str) -> list[tuple[int, str]]:
        return [(_ring_hash(f"{name}#{i}"), name)
                for i in range(self.vnodes)]

    def add(self, name: str) -> None:
        if name in self._shards:
            return
        self._shards.add(name)
        self._memo.clear()
        for point in self._vnode_points(name):
            insort(self._points, point)

    def remove(self, name: str) -> None:
        if name not in self._shards:
            return
        self._shards.discard(name)
        self._memo.clear()
        dead = set(self._vnode_points(name))
        self._points = [p for p in self._points if p not in dead]

    def holders(self, key: str, n: int = 1) -> tuple[str, ...]:
        """The first *n* distinct shards clockwise from *key*'s point,
        primary first.  ``n`` is clamped to the shard count."""
        found = self._memo.get((key, n))
        if found is None:
            found = self._memo[key, n] = self._walk(key, n)
        return found

    def _walk(self, key: str, n: int) -> tuple[str, ...]:
        if not self._shards:
            raise FleetError("hash ring has no shards")
        n = min(n, len(self._shards))
        start = bisect_right(self._points, (_ring_hash(key), "\uffff"))
        found: list[str] = []
        for i in range(len(self._points)):
            _, shard = self._points[(start + i) % len(self._points)]
            if shard not in found:
                found.append(shard)
                if len(found) == n:
                    break
        return tuple(found)

    def placement(self, keys: Iterable[str], n: int = 1
                  ) -> dict[str, tuple[str, ...]]:
        """``{key: holders}`` for many keys at once (test/rebalance aid)."""
        return {key: self.holders(key, n) for key in keys}


# --------------------------------------------------------------------------
# Shards


@dataclass
class ShardStats:
    """Admission + service accounting for one shard (JSON-friendly)."""

    admitted: int = 0
    rejected: int = 0                # overload 503s returned
    served_blobs: int = 0
    served_bytes: int = 0
    queue_depth_max: int = 0
    busy_seconds: float = 0.0        # virtual service time reserved

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "served_blobs": self.served_blobs,
            "served_bytes": self.served_bytes,
            "queue_depth_max": self.queue_depth_max,
            "busy_seconds": round(self.busy_seconds, 9),
        }


class RegistryShard:
    """One registry service of the fleet: a :class:`Registry` plus a
    bounded FIFO admission queue on the sim clock.

    The shard quacks like a broadcast endpoint too (``hostname`` +
    ``content_store``), so :func:`~repro.cluster.broadcast.
    distribute_blobs` can fill it peer-to-peer like a compute node.
    """

    def __init__(self, name: str, *, queue_limit: Optional[int] = None,
                 service_bandwidth: float = 256 * 1024,
                 service_latency: float = 1e-4):
        if queue_limit is not None and queue_limit <= 0:
            raise FleetError(f"queue_limit must be positive: {queue_limit}")
        self.name = name
        self.registry = Registry(name)
        self.alive = True
        self.queue_limit = queue_limit
        self.service_bandwidth = service_bandwidth
        self.service_latency = service_latency
        self.stats = ShardStats()
        self._busy_until = 0.0
        self._completions: list[float] = []  # in-flight op end times

    # -- broadcast-endpoint duck type -------------------------------------

    @property
    def hostname(self) -> str:
        return self.name

    @property
    def content_store(self):
        return self.registry.store

    # -- admission queue ---------------------------------------------------

    def queue_depth(self, now: float) -> int:
        """Operations queued or in service at virtual time *now*; forgets
        the ones complete by then.

        ``_completions`` is sorted: :meth:`reserve` appends
        ``max(now, _busy_until) + service`` and then advances
        ``_busy_until`` to it, so no completion precedes the one before
        it, and the ones done by *now* are a prefix."""
        c = self._completions
        del c[:bisect_right(c, now)]
        return len(c)

    def retry_hint(self, now: float) -> float:
        """Earliest time a queue slot can free up."""
        c = self._completions
        i = bisect_right(c, now)
        return c[i] if i < len(c) else now

    def check_admission(self, now: float, extra: int = 0) -> None:
        """Raise :class:`FleetOverloadError` if one more operation (plus
        *extra* already planned in this request) would exceed the bound.
        Does not reserve — callers reserve with :meth:`reserve` once the
        whole request is admissible."""
        if self.queue_limit is None:
            return
        if self.queue_depth(now) + extra >= self.queue_limit:
            self.stats.rejected += 1
            raise FleetOverloadError(
                f"{self.name}: admission queue full "
                f"({self.queue_limit} deep at t={now:.3f})",
                retry_at=self.retry_hint(now))

    def reserve(self, now: float, nbytes: int) -> float:
        """Reserve FIFO service for *nbytes*; returns the completion
        time.  Callers must have passed :meth:`check_admission`."""
        start = max(now, self._busy_until)
        service = self.service_latency + nbytes / self.service_bandwidth
        end = start + service
        self._busy_until = end
        self._completions.append(end)
        self.stats.admitted += 1
        self.stats.busy_seconds += service
        self.stats.queue_depth_max = max(self.stats.queue_depth_max,
                                         self.queue_depth(now))
        return end

    def as_dict(self) -> dict:
        d = self.stats.as_dict()
        d.update(self.registry.stats.as_dict())
        d["alive"] = self.alive
        d["storage_bytes"] = self.registry.storage_bytes()
        return d


# --------------------------------------------------------------------------
# Tenancy


@dataclass
class Tenant:
    """One namespace: auth token, quota, and private per-tenant stats."""

    name: str
    token: Optional[str] = None
    quota_bytes: Optional[int] = None
    public: bool = False             # anyone may pull (pushes stay gated)
    digests: set[str] = field(default_factory=set)
    bytes_used: int = 0              # unique blob bytes under this tenant
    pushes: int = 0
    pulls: int = 0
    quota_rejections: int = 0
    auth_rejections: int = 0

    def stats(self) -> dict:
        """This tenant's view only — never names another tenant's blobs."""
        return {
            "tenant": self.name,
            "bytes_used": self.bytes_used,
            "quota_bytes": self.quota_bytes,
            "blobs": len(self.digests),
            "digests": sorted(self.digests),
            "pushes": self.pushes,
            "pulls": self.pulls,
            "quota_rejections": self.quota_rejections,
            "auth_rejections": self.auth_rejections,
        }


# --------------------------------------------------------------------------
# The fleet


class RegistryFleet(Registry):
    """N registry shards behind one consistent-hash front door.

    A :class:`Registry` whose blob plane is sharded.  The front door —
    ref parsing, spans, fault injection, sign-on-push, verify-on-pull,
    the §6.2.5 policy, transfer accounting — and every metadata table
    (manifests, cache pointers, signatures, attestations) are inherited
    and held once, the way production registries back metadata with a
    shared database.  Shards hold blob *bytes* only: the fleet overrides
    placement (ring + replicas + peer fill, all-or-nothing per request)
    and serving (routing + admission), and wraps the shared push/pull
    bodies in tenant auth and quota.
    """

    def __init__(self, name: str, *, n_shards: int, replicas: int = 1,
                 vnodes: int = 64, queue_limit: Optional[int] = None,
                 service_bandwidth: float = 256 * 1024,
                 service_latency: float = 1e-4,
                 clock=None, tracer=None):
        if n_shards <= 0:
            raise FleetError(f"n_shards must be positive: {n_shards}")
        if not 1 <= replicas <= n_shards:
            raise FleetError(
                f"replicas must be in [1, {n_shards}]: {replicas}")
        super().__init__(name, tracer=tracer)
        self.replicas = replicas
        self.shards: list[RegistryShard] = [
            RegistryShard(f"{name}.s{i:02d}", queue_limit=queue_limit,
                          service_bandwidth=service_bandwidth,
                          service_latency=service_latency)
            for i in range(n_shards)
        ]
        self._by_name = {s.name: s for s in self.shards}
        self.ring = HashRing((s.name for s in self.shards), vnodes=vnodes)
        self.tenants: dict[str, Tenant] = {}
        self.rebalance_bytes = 0         # shard-to-shard fill traffic
        self.rebalance_blobs = 0
        #: Optional sim clock; admission control needs time to queue
        #: against, so backpressure is active only when a clock is bound.
        #: A fault injector's plan additionally drives shard liveness
        #: (crash ⇒ ring re-route to replicas).
        self.clock = clock
        # every blob digest the fleet has accepted, for rebalancing
        self._known: set[str] = set()

    # -- time / liveness ---------------------------------------------------

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now
        if self.fault_injector is not None:
            return self.fault_injector.clock.now
        return 0.0

    def _plan(self):
        return None if self.fault_injector is None \
            else self.fault_injector.plan

    def _is_live(self, shard: RegistryShard, now: float) -> bool:
        if not shard.alive:
            return False
        plan = self._plan()
        return plan is None or not plan.crashed_by(shard.name, now)

    def live_shards(self) -> list[RegistryShard]:
        now = self._now()
        return [s for s in self.shards if self._is_live(s, now)]

    # -- placement / routing -----------------------------------------------

    def blob_holders(self, digest: str) -> list[str]:
        """Shard names that must hold *digest* (primary first)."""
        return self.ring.holders(digest, self.replicas)

    def route_blob(self, digest: str) -> RegistryShard:
        """The nearest live holder of *digest*: least queue depth wins,
        ring order breaks ties.  This is the read fan-out — and the hook
        :func:`~repro.cluster.broadcast.distribute_blobs` uses to route
        per-blob registry pulls instead of assuming one origin."""
        now = self._now()
        holders = self.blob_holders(digest)
        best, best_depth = None, 0
        for name in holders:
            shard = self._by_name[name]
            if not self._is_live(shard, now) \
                    or not shard.registry.has_blob(digest):
                continue
            depth = shard.queue_depth(now)
            if best is None or depth < best_depth:
                best, best_depth = shard, depth
        if best is None:
            raise FleetError(
                f"{self.name}: no live shard holds {digest[:19]}... "
                f"(placement: {list(holders)})")
        return best

    def endpoints(self) -> list[RegistryShard]:
        """One uplink per shard: a fleet has no single origin link."""
        return list(self.shards)

    # -- tenancy -----------------------------------------------------------

    def add_tenant(self, name: str, *, token: Optional[str] = None,
                   quota_bytes: Optional[int] = None,
                   public: bool = False) -> Tenant:
        if "/" in name:
            raise FleetError(f"tenant names are single path segments: "
                             f"{name!r}")
        tenant = Tenant(name, token=token, quota_bytes=quota_bytes,
                        public=public)
        self.tenants[name] = tenant
        return tenant

    def tenant_stats(self, name: str) -> dict:
        try:
            return self.tenants[name].stats()
        except KeyError:
            raise FleetError(f"{self.name}: unknown tenant {name!r}")

    def _tenant_of(self, ref: Optional[ImageRef]) -> Optional[Tenant]:
        if ref is None:
            return None
        return self.tenants.get(ref.repository.split("/", 1)[0])

    def _admit(self, ref: ImageRef, token: Optional[str],
               op: str) -> Optional[Tenant]:
        """Token auth for *op* on *ref*'s namespace; returns its tenant
        (``None`` for an unregistered namespace, which stays open)."""
        tenant = self._tenant_of(ref)
        if tenant is None or (op == "pull" and tenant.public):
            return tenant
        if token != tenant.token or tenant.token is None:
            tenant.auth_rejections += 1
            raise FleetAuthError(
                f"{self.name}: {op} to tenant {tenant.name!r} denied "
                f"(bad or missing token)")
        return tenant

    def _reserve_quota(self, tenant: Optional[Tenant],
                       sizes: dict[str, int]) -> dict[str, int]:
        """Check the quota for a request's blobs (digest -> size) without
        mutating the ledger; returns the not-yet-charged ones for
        :meth:`_commit_quota`."""
        if tenant is None:
            return {}
        new = {d: n for d, n in sizes.items() if d not in tenant.digests}
        added = sum(new.values())
        if tenant.quota_bytes is not None \
                and tenant.bytes_used + added > tenant.quota_bytes:
            tenant.quota_rejections += 1
            raise FleetQuotaError(
                f"{self.name}: tenant {tenant.name!r} quota exhausted "
                f"({tenant.bytes_used} + {added} > {tenant.quota_bytes} B)",
                retry_at=self._now())
        return new

    def _commit_quota(self, tenant: Optional[Tenant],
                      new: dict[str, int]) -> None:
        if tenant is None:
            return
        tenant.digests.update(new)
        tenant.bytes_used += sum(new.values())

    # -- blob plane: placement ---------------------------------------------

    def _put_blobs(self, ref: Optional[ImageRef],
                   blobs: list[bytes]) -> list[str]:
        """Place one request's blobs all-or-nothing.

        The tenant's quota is checked first and charged only after every
        blob is placed.  A mid-request failure (no live shard, injected
        fault) drops the blobs the request introduced and restores the
        front-door counters, so the ledger and ``bytes_pushed`` count
        only bytes actually stored; blobs that pre-existed the request
        are left alone (another image or tenant references them).  Each
        blob is hashed once, here; quota and placement share the digest."""
        tenant = self._tenant_of(ref)
        digests = [blob_digest(blob) for blob in blobs]
        new = self._reserve_quota(
            tenant, {d: len(blob) for d, blob in zip(digests, blobs)})
        snap = _transfer_snapshot(self.stats)
        fresh: list[str] = []
        try:
            for blob, digest in zip(blobs, digests):
                self._place_blob(blob, digest, fresh)
        except Exception:
            for digest in fresh:
                for shard in self.shards:
                    shard.registry.drop_blob(digest)
                self._known.discard(digest)
            _transfer_restore(self.stats, snap)
            raise
        self._commit_quota(tenant, new)
        return digests

    def _place_blob(self, blob: bytes, digest: str,
                    fresh: list[str]) -> None:
        """Write *blob*, hashed to *digest* at the front door, to its
        primary holder and fill the replicas shard-to-shard.  A blob the
        fleet already holds counts as a push skip (:class:`Registry`'s
        dedup rule); a new one is counted as pushed and appended to
        *fresh*."""
        now = self._now()
        holders = [self._by_name[h] for h in self.blob_holders(digest)]
        live = [s for s in holders if self._is_live(s, now)]
        if not live:
            raise FleetError(
                f"{self.name}: no live shard to place {digest[:19]}...")
        if digest in self._known:
            self.stats.blobs_push_skipped += 1
            self.stats.bytes_push_skipped += len(blob)
        else:
            self.stats.blobs_pushed += 1
            self.stats.bytes_pushed += len(blob)
            self._known.add(digest)
            fresh.append(digest)
        primary = live[0]
        primary.registry.put_blob(blob)
        fill = [s for s in live[1:] if not s.registry.has_blob(digest)]
        if fill:
            self._fill(primary, [digest], fill)

    def _fill(self, origin: RegistryShard, digests: Sequence[str],
              targets: Sequence[RegistryShard]) -> None:
        """Peer-to-peer shard fill: re-use the binomial-tree broadcast to
        move *digests* from *origin* to *targets*, shard links only —
        the origin is hit once per blob, peers re-serve.  The moved bytes
        are accounted as rebalance traffic, not client traffic."""
        from .broadcast import distribute_blobs, make_deploy_topology
        snap = _transfer_snapshot(origin.registry.stats)
        topo = make_deploy_topology(origin.registry, targets)
        rep = distribute_blobs(origin.registry, list(digests), targets,
                               topo, strategy="tree")
        # internal fill must not masquerade as client pulls on the origin
        _transfer_restore(origin.registry.stats, snap)
        self.rebalance_bytes += rep.registry_egress_bytes + rep.peer_bytes
        self.rebalance_blobs += rep.blobs * len(targets)
        for shard in targets:
            for digest in digests:
                if not shard.content_store.has(digest):
                    # a zero-byte blob (an empty layer) never travels
                    shard.content_store.put(
                        origin.registry.blob_at_rest(digest))
                shard.registry.adopt_blob(digest)
        if self.tracer is not None:
            self.tracer.metrics.counters.count(
                "net.fleet_rebalance_bytes",
                rep.registry_egress_bytes + rep.peer_bytes)

    # -- blob plane: residency and serving ---------------------------------

    def has_blob(self, digest: str) -> bool:
        return any(s.registry.has_blob(digest) for s in self.shards)

    def _resident(self, digest: str) -> RegistryShard:
        """A shard holding *digest*: ring holders first, then any."""
        for shard in [self._by_name[h] for h in self.blob_holders(digest)] \
                + self.shards:
            if shard.registry.has_blob(digest):
                return shard
        raise FleetError(f"{self.name}: no blob {digest[:19]}...")

    def blob_size(self, digest: str) -> int:
        return self._resident(digest).registry.blob_size(digest)

    def blob_at_rest(self, digest: str) -> bytes:
        return self._resident(digest).registry.blob_at_rest(digest)

    def storage_bytes(self) -> int:
        """Bytes at rest across all shards (replication included)."""
        return sum(s.registry.storage_bytes() for s in self.shards)

    def _serve(self, shard: RegistryShard, digest: str) -> bytes:
        """*shard* serves one blob through the front door."""
        blob = shard.registry.fetch_blob(digest)
        shard.stats.served_blobs += 1
        shard.stats.served_bytes += len(blob)
        self.stats.blobs_pulled += 1
        self.stats.bytes_pulled += len(blob)
        return blob

    def _get_blob(self, digest: str) -> bytes:
        """Ring routing, then admission (when a clock is bound), then the
        nearest live holder serves; service is reserved only for a blob
        it served."""
        shard = self.route_blob(digest)
        if self.clock is None:
            return self._serve(shard, digest)
        now = self._now()
        shard.check_admission(now)
        blob = self._serve(shard, digest)
        shard.reserve(now, len(blob))
        return blob

    def fetch_blob(self, digest: str, *, local_store=None) -> bytes:
        """Pull one blob through the front door: local CAS short-circuit
        and flake injection (shared with :class:`Registry`), then ring
        routing, admission, and the shard serves."""
        return self._fetch(digest, local_store)

    # -- tenancy around the shared push / pull bodies ----------------------

    def push(self, ref: ImageRef | str, config: ImageConfig,
             layers: Iterable[object], *,
             token: Optional[str] = None,
             attestations: Optional[dict[str, bytes]] = None) -> Manifest:
        """:meth:`Registry.push` for the tenant *token* authorizes;
        placement and quota charging are all-or-nothing."""
        ref = as_ref(ref)
        tenant = self._admit(ref, token, "push")
        manifest = self._push(ref, config, list(layers), attestations)
        if tenant is not None:
            tenant.pushes += 1
        return manifest

    def pull(self, ref: ImageRef | str, *, arch: Optional[str] = None,
             local_store=None, token: Optional[str] = None):
        ref = as_ref(ref)
        tenant = self._admit(ref, token, "pull")
        result = self._pull(ref, arch, local_store)
        if tenant is not None:
            tenant.pulls += 1
        return result

    def push_cache(self, ref: ImageRef | str, manifest: bytes,
                   blobs: Iterable[bytes], *,
                   token: Optional[str] = None) -> str:
        ref = as_ref(ref)
        self._admit(ref, token, "push")
        return self._push_cache(ref, manifest, list(blobs))

    def pull_cache(self, ref: ImageRef | str, *, local_store=None,
                   token: Optional[str] = None
                   ) -> tuple[bytes, Callable[[str], bytes]]:
        ref = as_ref(ref)
        self._admit(ref, token, "pull")
        return self._pull_cache(ref, local_store)

    def timed_pull(self, ref: ImageRef | str, *,
                   now: Optional[float] = None, arch: Optional[str] = None,
                   token: Optional[str] = None) -> float:
        """One workload-generator pull: route and *admission-check every
        layer first* (all-or-nothing, so a rejected request reserves no
        service and no bytes are double-counted on retry), then serve
        every layer, then reserve; returns the virtual completion time.
        A layer a shard's store refuses fails the pull before anything is
        reserved."""
        ref = as_ref(ref)
        now = self._now() if now is None else now
        tenant = self._admit(ref, token, "pull")
        if self.fault_injector is not None:
            self.fault_injector.check("fetch_blob")
        manifest = self.manifest(ref, arch=arch)
        self._verify_served(ref, manifest)
        planned: list[tuple[RegistryShard, str]] = []
        pending: dict[str, int] = {}
        for digest in manifest.layers:
            shard = self.route_blob(digest)
            shard.check_admission(now, extra=pending.get(shard.name, 0))
            pending[shard.name] = pending.get(shard.name, 0) + 1
            planned.append((shard, digest))
        blobs = [self._serve(shard, digest) for shard, digest in planned]
        end = now
        for (shard, _), blob in zip(planned, blobs):
            end = max(end, shard.reserve(now, len(blob)))
        if tenant is not None:
            tenant.pulls += 1
        return end

    # -- fleet operations --------------------------------------------------

    def crash_shard(self, name: str) -> None:
        """Mark a shard dead (tests / explicit ops; fault plans do this
        on the clock instead).  Reads re-route to the replicas."""
        self._by_name[name].alive = False

    def restore_shard(self, name: str) -> None:
        shard = self._by_name[name]
        shard.alive = True
        self.repair()

    def add_shard(self, *, queue_limit: Optional[int] = None) -> RegistryShard:
        """Grow the fleet by one shard and rebalance: only the ~K/N keys
        the ring moves are filled (peer-to-peer), and shards that are no
        longer holders release their copies."""
        shard = RegistryShard(
            f"{self.name}.s{len(self.shards):02d}",
            queue_limit=(queue_limit if queue_limit is not None
                         else self.shards[0].queue_limit),
            service_bandwidth=self.shards[0].service_bandwidth,
            service_latency=self.shards[0].service_latency)
        self.shards.append(shard)
        self._by_name[shard.name] = shard
        old_ring = self.ring
        self.ring = HashRing((s.name for s in self.shards),
                             vnodes=old_ring.vnodes)
        self.rebalance()
        return shard

    def rebalance(self) -> int:
        """Converge every known blob onto its current holder set: fill
        missing replicas shard-to-shard (grouped by origin so the tree
        broadcast batches), then release copies on ex-holders: a fill's
        origin may be one of them.  Metadata lives at the front door, so
        there is nothing else to backfill.  Returns the number of blob
        movements."""
        now = self._now()
        moved = 0
        fills: dict[str, dict[str, list[str]]] = {}  # origin -> target -> d
        released: list[tuple[RegistryShard, str]] = []
        for digest in sorted(self._known):
            holders = self.blob_holders(digest)
            holder_set = set(holders)
            current = [s for s in self.shards
                       if s.registry.has_blob(digest)]
            sources = [s for s in current if self._is_live(s, now)]
            if not sources:
                continue
            origin = sources[0].name
            for name in holders:
                shard = self._by_name[name]
                if self._is_live(shard, now) \
                        and not shard.registry.has_blob(digest):
                    fills.setdefault(origin, {}).setdefault(
                        name, []).append(digest)
                    moved += 1
            released += [(shard, digest) for shard in current
                         if shard.name not in holder_set]
        for origin, by_target in sorted(fills.items()):
            # batch: all targets missing the same digest set fill in one
            # tree; otherwise per-target
            by_digests: dict[tuple, list[RegistryShard]] = {}
            for target, digests in sorted(by_target.items()):
                by_digests.setdefault(tuple(digests), []).append(
                    self._by_name[target])
            for digests, targets in by_digests.items():
                self._fill(self._by_name[origin], list(digests), targets)
        for shard, digest in released:
            shard.registry.drop_blob(digest)
        return moved

    def repair(self) -> int:
        """Re-fill replicas after a shard returns (alias of rebalance)."""
        return self.rebalance()

    # -- reporting ---------------------------------------------------------

    def hit_ratio(self) -> float:
        """Front-door pull hit ratio: fraction of requested blobs served
        from the caller's local CAS instead of shard egress."""
        served = self.stats.blobs_pulled + self.stats.blobs_pull_skipped
        return self.stats.blobs_pull_skipped / served if served else 0.0

    def report(self) -> dict:
        return {
            "fleet": self.name,
            "shards": len(self.shards),
            "replicas": self.replicas,
            "tenants": sorted(self.tenants),
            "stats": self.stats.as_dict(),
            "hit_ratio": round(self.hit_ratio(), 6),
            "rebalance_bytes": self.rebalance_bytes,
            "rebalance_blobs": self.rebalance_blobs,
            "per_shard": {s.name: s.as_dict() for s in self.shards},
        }


def _transfer_snapshot(stats: TransferStats) -> dict:
    return dict(stats.__dict__)


def _transfer_restore(stats: TransferStats, snap: dict) -> None:
    stats.__dict__.update(snap)


def deploy_fleet(world, *, n_shards: int, replicas: int = 1,
                 name: Optional[str] = None, **kwargs) -> RegistryFleet:
    """Replace *world*'s site registry with a fleet of *n_shards*.

    Existing site-registry content is re-pushed through fleet placement
    so already-published images stay pullable, then the registry's
    §6.2.5 repository policies carry over (after the re-push, so images
    published before a policy was set still move).  The network entry
    and ``world.site_registry`` both point at the fleet afterwards, so
    every workflow (Podman push, ch-image pull, tree broadcast) routes
    through it transparently.
    """
    old = world.site_registry
    if isinstance(old, RegistryFleet):
        return old
    fleet = RegistryFleet(name or old.name, n_shards=n_shards,
                          replicas=replicas, **kwargs)
    for repository in old.repositories():
        for tag in old.tags(repository):
            ref = ImageRef(repository=repository, tag=tag)
            # re-place every arch variant through the ring
            for _, manifest in sorted(old.manifest_variants(ref).items()):
                layers = [TarArchive.deserialize(old.fetch_blob(d))
                          for d in manifest.layers]
                fleet.push(ref, manifest.config, layers)
    for repository, require_flattened in old._policies.items():
        fleet.set_repo_policy(repository,
                              require_flattened=require_flattened)
    world.network.registries[fleet.name] = fleet
    world.site_registry = fleet
    return fleet

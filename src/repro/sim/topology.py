"""The network cost model: per-endpoint links with bandwidth and latency.

Every endpoint that moves blobs — each :class:`~repro.cluster.Machine` and
each :class:`~repro.containers.registry.Registry` — gets one
:class:`NetLink`: its uplink into the cluster fabric, full-duplex, with a
transmit side and a receive side that are each serialized FIFO (a NIC can
only put one chunk on the wire at a time).  This is deliberately the
*simplest* model that exhibits the §4.2 scaling problem: a registry with
one egress link serving N nodes is an O(N) pull storm no matter how fat
the fabric is, while peer-to-peer re-serving spreads the transmit load
over N links and turns deploy makespan into O(log N).

There is no daemon anywhere in this model — links belong to endpoints, and
transfers are initiated by the job processes themselves (§3.1).

Link time is exact: a link's latency, its reservation horizons and its
:class:`LinkStats` are integer nanoseconds (byte·ns for the congestion
integral), so sums do not depend on their order and equal times are
equal.  Bandwidth stays a rate in bytes/second; :func:`wire_ns` turns a
chunk into nanoseconds on the wire and is the one place a duration is
rounded.  The engine's clock stays in float seconds: a caller converts
where a transfer starts (:func:`to_ns`) and schedules its events at
``ns / NS_PER_S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ReproError

__all__ = ["DEFAULT_BANDWIDTH", "DEFAULT_CHUNK_SIZE", "DEFAULT_LATENCY",
           "LinkStats", "NS_PER_S", "NetLink", "Topology", "TopologyError",
           "to_ns", "wire_ns"]

NS_PER_S = 1_000_000_000

#: Defaults sized so the simulated KB-scale images take tens of
#: milliseconds per transfer — far above the per-hop latency, so the
#: asymptotic story (O(N) vs O(log N)) dominates the constants.
DEFAULT_BANDWIDTH = 256 * 1024      # bytes/second, each direction
DEFAULT_LATENCY = 100_000           # ns (0.1 ms), one-way per endpoint
DEFAULT_CHUNK_SIZE = 1024           # bytes per pipelined chunk


class TopologyError(ReproError):
    """Unknown endpoint or bad link parameters."""


def to_ns(seconds: float) -> int:
    """A virtual time in float seconds (the engine's clock) as integer
    nanoseconds."""
    return round(seconds * NS_PER_S)


def wire_ns(nbytes: int, bandwidth: float) -> int:
    """Nanoseconds *nbytes* take on the wire at *bandwidth* bytes/second,
    rounded to the nearest ns."""
    return round(nbytes * NS_PER_S / bandwidth)


@dataclass(slots=True)
class LinkStats:
    """Traffic accounting for one link (one endpoint's uplink).

    Slotted: these objects are mutated on the transmit hot path (every
    transfer does eight attribute reads/writes here), and ``__slots__``
    drops the per-instance dict both for speed and for the ~10k-link
    fleets the engine benchmark builds.
    """

    bytes_tx: int = 0
    bytes_rx: int = 0
    chunks_tx: int = 0
    chunks_rx: int = 0
    busy_tx_ns: int = 0              # wire time the transmit side was busy
    busy_rx_ns: int = 0
    #: Σ chunk_bytes × (arrival − available): bytes weighted by their total
    #: time in flight *including queueing* — the congestion integral the
    #: ablation reports as bytes·seconds.
    byte_ns: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly, in seconds."""
        return {
            "bytes_tx": self.bytes_tx,
            "bytes_rx": self.bytes_rx,
            "chunks_tx": self.chunks_tx,
            "chunks_rx": self.chunks_rx,
            "busy_tx_seconds": round(self.busy_tx_ns / NS_PER_S, 9),
            "busy_rx_seconds": round(self.busy_rx_ns / NS_PER_S, 9),
            "byte_seconds": round(self.byte_ns / NS_PER_S, 9),
        }


@dataclass(slots=True)
class NetLink:
    """One endpoint's full-duplex uplink into the fabric.

    ``tx_free_at`` / ``rx_free_at`` are the FIFO reservation horizons: the
    earliest virtual time (ns) the next chunk may start in that direction.
    ``latency`` is one-way, in ns.  Slotted for the same hot-path reason as
    :class:`LinkStats`.
    """

    name: str
    bandwidth: float = DEFAULT_BANDWIDTH
    latency: int = DEFAULT_LATENCY
    tx_free_at: int = 0
    rx_free_at: int = 0
    stats: LinkStats = field(default_factory=LinkStats)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise TopologyError(f"{self.name}: bandwidth must be positive")
        if not isinstance(self.latency, int) or self.latency < 0:
            raise TopologyError(f"{self.name}: latency must be a "
                                f"non-negative integer of ns: "
                                f"{self.latency!r}")

    @property
    def utilization_window(self) -> int:
        """The horizon (ns) this link's reservations currently extend to."""
        return max(self.tx_free_at, self.rx_free_at)

    def reset_time(self) -> None:
        """Forget reservations (stats survive) — new simulation epoch."""
        self.tx_free_at = 0
        self.rx_free_at = 0


class Topology:
    """The set of endpoints and their links for one deployment.

    Endpoints are named (a machine's hostname, a registry's name).
    :meth:`attach` additionally hangs the link off the object itself as
    ``obj.netlink``, so cost-model-aware code can find it either way.
    """

    def __init__(self, *, bandwidth: float = DEFAULT_BANDWIDTH,
                 latency: int = DEFAULT_LATENCY,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size <= 0:
            raise TopologyError(f"chunk_size must be positive: {chunk_size}")
        self.default_bandwidth = bandwidth
        self.default_latency = latency
        self.chunk_size = chunk_size
        self._links: dict[str, NetLink] = {}

    def add(self, name: str, *, bandwidth: Optional[float] = None,
            latency: Optional[int] = None) -> NetLink:
        """Register an endpoint (idempotent) and return its link."""
        link = self._links.get(name)
        if link is None:
            link = NetLink(
                name,
                bandwidth=(bandwidth if bandwidth is not None
                           else self.default_bandwidth),
                latency=(latency if latency is not None
                         else self.default_latency))
            self._links[name] = link
        return link

    def attach(self, obj, name: Optional[str] = None, *,
               bandwidth: Optional[float] = None,
               latency: Optional[int] = None) -> NetLink:
        """Register *obj* (a Machine, a Registry, ...) as an endpoint and
        set ``obj.netlink``.  The name defaults to ``obj.hostname`` or
        ``obj.name``."""
        if name is None:
            name = getattr(obj, "hostname", None) or getattr(obj, "name",
                                                             None)
        if not name:
            raise TopologyError(f"cannot infer an endpoint name for {obj!r}")
        link = self.add(name, bandwidth=bandwidth, latency=latency)
        obj.netlink = link
        return link

    def link(self, name: str) -> NetLink:
        try:
            return self._links[name]
        except KeyError:
            raise TopologyError(f"unknown endpoint {name!r} "
                                f"(known: {sorted(self._links)})")

    def has(self, name: str) -> bool:
        return name in self._links

    @property
    def links(self) -> dict[str, NetLink]:
        return dict(self._links)

    def utilization(self) -> dict[str, dict]:
        """Per-link traffic stats, JSON-friendly and sorted."""
        return {name: link.stats.as_dict()
                for name, link in sorted(self._links.items())}

    def reset_time(self) -> None:
        for link in self._links.values():
            link.reset_time()

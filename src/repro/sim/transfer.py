"""Timed, chunked, pipelined point-to-point transfers.

A transfer moves ``size`` bytes from one endpoint's link to another's in
``chunk_size`` pieces.  Each chunk independently reserves the sender's
transmit side and the receiver's receive side (FIFO — ``free_at``
horizons), takes :func:`~repro.sim.topology.wire_ns` of ``min(bandwidths)``
on the wire, and lands after both endpoints' one-way latencies.  Because
chunk *c*'s start time is ``max(available[c], tx_free, rx_free)``, a relay
that is still receiving a blob can already re-serve the chunks it has —
that is the pipelining the tree broadcast leans on, and it falls out of
the cost model rather than being special-cased.

Every time here is an integer of nanoseconds, so the two implementations
agree exactly:

* the **reference chunk loop** (:func:`transmit_reference`) walks every
  chunk — required when ``available`` is a per-chunk sequence, i.e. the
  source is itself mid-receive;
* the **closed-form bulk path** handles scalar ``available`` (a registry,
  or a relay that already holds the whole blob): the chunks go out back
  to back, so the schedule and the :class:`~repro.sim.LinkStats`
  increments are sums in closed form — O(1) stat mutations, no per-chunk
  work unless the arrival list is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .topology import NetLink, wire_ns

__all__ = ["TransferTiming", "chunk_sizes", "transmit", "transmit_reference"]


def chunk_sizes(size: int, chunk_size: int) -> list[int]:
    """Split *size* bytes into full chunks plus a remainder."""
    if size <= 0:
        return []
    n_full, rem = divmod(size, chunk_size)
    return [chunk_size] * n_full + ([rem] if rem else [])


@dataclass(slots=True)
class TransferTiming:
    """When one blob's chunks arrived at the receiver, in ns.

    ``chunk_arrivals`` is ``None`` for a coalesced transfer
    (``record_arrivals=False``): nobody observes the intermediate chunks,
    so the schedule is never materialized — only its first and last
    points (``first_arrival`` / ``end``) are kept.
    """

    size: int
    start: int                       # first chunk's wire start
    end: int                         # last chunk's arrival
    first_arrival: int = 0           # first chunk's arrival
    chunk_arrivals: Optional[list[int]] = field(default=None)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _zero_size(src: NetLink, dst: NetLink,
               available: Union[int, Sequence[int]]) -> TransferTiming:
    # A zero-size transfer still cannot complete before its data exists
    # (with a per-chunk sequence the source finishes receiving at
    # max(available)) *nor* before both FIFO horizons are free — an empty
    # blob queues behind in-flight traffic like any other send.
    ready = available if isinstance(available, int) \
        else max(available, default=0)
    t = max(ready, src.tx_free_at, dst.rx_free_at)
    return TransferTiming(size=0, start=t, end=t, first_arrival=t,
                          chunk_arrivals=[])


def transmit(src: NetLink, dst: NetLink, size: int, *, chunk_size: int,
             available: Union[int, Sequence[int]],
             record_arrivals: bool = True,
             fast: bool = True) -> TransferTiming:
    """Move *size* bytes ``src -> dst``; returns the chunk arrival times.

    *available* is either a single time in ns (all bytes ready at the
    source — a registry or a node that already holds the blob) or a
    per-chunk sequence (the source is itself still receiving — pipelined
    relay).

    With ``record_arrivals=False`` the per-chunk arrival list is not
    materialized (``chunk_arrivals is None``); use it for transfers whose
    intermediate chunks nobody observes.  All timings and LinkStats are
    identical either way.  With ``fast=False`` (the reference engine's
    choice, :attr:`~repro.sim.SimEngine.fast`) every transfer takes the
    per-chunk loop.
    """
    if fast and isinstance(available, int) and size > 0:
        return _transmit_bulk(src, dst, size, chunk_size, available,
                              record_arrivals)
    return transmit_reference(src, dst, size, chunk_size=chunk_size,
                              available=available,
                              record_arrivals=record_arrivals)


def transmit_reference(src: NetLink, dst: NetLink, size: int, *,
                       chunk_size: int,
                       available: Union[int, Sequence[int]],
                       record_arrivals: bool = True) -> TransferTiming:
    """:func:`transmit` forced down the per-chunk reference loop, even
    for scalar availability.  The bulk path must equal this exactly — it
    is the oracle the property tests compare against.  It is also the
    only path able to model a pipelined relay, where each chunk has its
    own availability time."""
    if size <= 0:
        return _zero_size(src, dst, available)
    chunks = chunk_sizes(size, chunk_size)
    if isinstance(available, int):
        available = [available] * len(chunks)
    elif len(available) != len(chunks):
        raise ValueError(
            f"have {len(available)} chunk availability times for "
            f"{len(chunks)} chunks")

    rate = min(src.bandwidth, dst.bandwidth)
    hop_latency = src.latency + dst.latency
    # every chunk but the last is full
    wires = [wire_ns(chunk_size, rate)] * (len(chunks) - 1) \
        + [wire_ns(chunks[-1], rate)]
    free = max(src.tx_free_at, dst.rx_free_at)
    start = max(available[0], free)
    arrivals = []
    byte_ns = 0
    for nbytes, wire, ready in zip(chunks, wires, available):
        # max(ready, free), without the call: this loop is the relay hot path
        free = (ready if ready > free else free) + wire
        arrival = free + hop_latency
        arrivals.append(arrival)
        byte_ns += nbytes * (arrival - ready)

    _flush(src, dst, free, size, len(chunks), sum(wires), byte_ns)
    return TransferTiming(size=size, start=start, end=arrivals[-1],
                          first_arrival=arrivals[0],
                          chunk_arrivals=arrivals if record_arrivals
                          else None)


def _transmit_bulk(src: NetLink, dst: NetLink, size: int, chunk_size: int,
                   ready: int, record_arrivals: bool) -> TransferTiming:
    """Closed-form transfer for scalar availability.

    Every byte is ready at ``ready``, so after the first chunk none waits
    on data: the ``n`` full chunks end at ``start + k·wire`` and the
    remainder ``rem_wire`` after them, and each chunk's
    ``nbytes·(arrival − ready)`` sums in closed form.
    """
    rate = min(src.bandwidth, dst.bandwidth)
    hop_latency = src.latency + dst.latency
    start = max(ready, src.tx_free_at, dst.rx_free_at)
    n, rem = divmod(size, chunk_size)
    wire = wire_ns(chunk_size, rate)
    rem_wire = wire_ns(rem, rate) if rem else 0
    busy = n * wire + rem_wire
    end = start + busy
    lag = start + hop_latency - ready      # full chunk k: lag + k·wire
    byte_ns = (chunk_size * (n * lag + wire * (n * (n + 1) // 2))
               + rem * (end + hop_latency - ready))
    arrivals = None
    if record_arrivals:
        arrivals = [start + k * wire + hop_latency for k in range(1, n + 1)]
        if rem:
            arrivals.append(end + hop_latency)

    _flush(src, dst, end, size, n + (1 if rem else 0), busy, byte_ns)
    return TransferTiming(size=size, start=start, end=end + hop_latency,
                          first_arrival=start + (wire if n else rem_wire)
                          + hop_latency,
                          chunk_arrivals=arrivals)


def _flush(src: NetLink, dst: NetLink, free: int, size: int, n_chunks: int,
           busy: int, byte_ns: int) -> None:
    """Both horizons move to *free*; one LinkStats update per transfer."""
    src.tx_free_at = dst.rx_free_at = free
    ss = src.stats
    ss.bytes_tx += size
    ss.chunks_tx += n_chunks
    ss.busy_tx_ns += busy
    ss.byte_ns += byte_ns
    ds = dst.stats
    ds.bytes_rx += size
    ds.chunks_rx += n_chunks
    ds.busy_rx_ns += busy
    ds.byte_ns += byte_ns

"""Property tests pinning the closed-form bulk transmit to the loop.

Link time is integer nanoseconds, so for scalar availability
:func:`repro.sim.transmit` (the closed-form bulk path) and
:func:`repro.sim.transmit_reference` (the per-chunk loop) must agree
exactly: ``==`` on every ``TransferTiming`` and ``LinkStats`` field and
on both FIFO horizons, across random sizes, chunk sizes, asymmetric
bandwidths (also scaled by a slow-link window), latencies, busy horizons
and pre-seeded stats — and every one of those fields stays an ``int``.

The last property is the one a closed-form relay hop rests on: down a
chain of equal-bandwidth links, every chunk of a relay hop after the
first starts the moment the previous chunk ends, whatever the horizons.
"""

from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (FaultPlan, NetLink, chunk_sizes, faulty_transmit,
                       transmit, transmit_reference, wire_ns)

# Times, horizons and latencies in ns; up to about eleven days.
times = st.integers(min_value=0, max_value=10**15)
bandwidths = st.one_of(
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=1, max_value=10**9))
latencies = st.integers(min_value=0, max_value=10**10)
seeded = st.integers(min_value=0, max_value=10**18)
sizes = st.integers(min_value=0, max_value=200_000)
chunk_sizes_ = st.integers(min_value=1, max_value=8192)


def _link(name, bw, lat, tx_free, rx_free, pre):
    link = NetLink(name, bandwidth=bw, latency=lat)
    link.tx_free_at = tx_free
    link.rx_free_at = rx_free
    # pre-seeded accounting: the += aggregation must land identically
    link.stats.byte_ns = pre
    link.stats.busy_tx_ns = pre // 2
    link.stats.busy_rx_ns = pre // 3
    return link


def _pair(params):
    (bw_a, bw_b, lat_a, lat_b, tx_free, rx_free, pre) = params
    a = _link("a", bw_a, lat_a, tx_free, 0, pre)
    b = _link("b", bw_b, lat_b, 0, rx_free, pre)
    return a, b


link_params = st.tuples(bandwidths, bandwidths, latencies, latencies,
                        times, times, seeded)


def _assert_all_int(timing, *links):
    """Every time, horizon and stat is an ``int`` (never a float that
    happens to be integral)."""
    values = [timing.size, timing.start, timing.end, timing.first_arrival,
              *(timing.chunk_arrivals or ())]
    for link in links:
        values += [link.tx_free_at, link.rx_free_at, link.latency,
                   *astuple(link.stats)]
    assert all(type(v) is int for v in values), values


def _assert_same(a, b, c, d):
    """Links a/b and c/d hold the same horizons and stats."""
    assert a.stats == c.stats
    assert b.stats == d.stats
    assert (a.tx_free_at, a.rx_free_at) == (c.tx_free_at, c.rx_free_at)
    assert (b.tx_free_at, b.rx_free_at) == (d.tx_free_at, d.rx_free_at)


@settings(max_examples=200, deadline=None)
@given(size=sizes, chunk_size=chunk_sizes_, ready=times, params=link_params)
def test_bulk_transmit_is_bit_identical_to_the_loop(size, chunk_size, ready,
                                                    params):
    a, b = _pair(params)
    c, d = _pair(params)
    fast = transmit(a, b, size, chunk_size=chunk_size, available=ready)
    slow = transmit_reference(c, d, size, chunk_size=chunk_size,
                              available=ready)
    assert fast == slow                  # dataclass: every field, exact
    _assert_same(a, b, c, d)
    _assert_all_int(fast, a, b)
    _assert_all_int(slow, c, d)


@settings(max_examples=100, deadline=None)
@given(size=sizes, chunk_size=chunk_sizes_, ready=times, params=link_params,
       factor=st.floats(min_value=0.01, max_value=1.0))
def test_slow_link_bulk_equals_the_loop(size, chunk_size, ready, params,
                                        factor):
    """A slow-link window scales both bandwidths by a float factor for
    the transfer; the bulk path and the loop still agree exactly."""
    plan = FaultPlan().add_slow_link("b", 0.0, 1e9, factor)
    a, b = _pair(params)
    c, d = _pair(params)
    fast = faulty_transmit(plan, a, b, size, chunk_size=chunk_size,
                           available=ready, now=1.0)
    slow = faulty_transmit(plan, c, d, size, chunk_size=chunk_size,
                           available=ready, now=1.0, fast=False)
    assert fast == slow
    _assert_same(a, b, c, d)
    _assert_all_int(fast, a, b)
    assert (a.bandwidth, b.bandwidth) == (params[0], params[1])


@settings(max_examples=100, deadline=None)
@given(size=st.integers(min_value=1, max_value=200_000),
       chunk_size=chunk_sizes_, ready=times, params=link_params)
def test_coalesced_transmit_only_drops_the_arrival_list(size, chunk_size,
                                                        ready, params):
    """record_arrivals=False (the coalescing fast path) must be a pure
    memory optimization: identical endpoints, horizons, and stats."""
    a, b = _pair(params)
    c, d = _pair(params)
    full = transmit(a, b, size, chunk_size=chunk_size, available=ready)
    lean = transmit(c, d, size, chunk_size=chunk_size, available=ready,
                    record_arrivals=False)
    assert lean.chunk_arrivals is None
    assert full.chunk_arrivals is not None
    assert full.chunk_arrivals[0] == full.first_arrival
    assert full.chunk_arrivals[-1] == full.end
    assert (lean.size, lean.start, lean.end, lean.first_arrival) == \
           (full.size, full.start, full.end, full.first_arrival)
    _assert_same(a, b, c, d)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(min_value=1, max_value=50_000),
       chunk_size=st.integers(min_value=1, max_value=4096),
       readies=st.lists(times, min_size=1, max_size=8),
       params=link_params)
def test_sequence_availability_stays_on_the_reference_loop(size,
                                                           chunk_size,
                                                           readies,
                                                           params):
    """A pipelined relay (per-chunk availability) goes through the loop
    and agrees with transmit_reference trivially — guarding against a
    'bulk for sequences too' change that silently breaks pipelining."""
    n = len(chunk_sizes(size, chunk_size))
    avail = [readies[i % len(readies)] for i in range(n)]
    a, b = _pair(params)
    c, d = _pair(params)
    fast = transmit(a, b, size, chunk_size=chunk_size, available=avail)
    slow = transmit_reference(c, d, size, chunk_size=chunk_size,
                              available=avail)
    assert fast == slow
    _assert_same(a, b, c, d)
    _assert_all_int(fast, a, b)


@settings(max_examples=50, deadline=None)
@given(params=link_params, ready=times)
def test_zero_size_clamps_to_horizons_on_both_paths(params, ready):
    a, b = _pair(params)
    c, d = _pair(params)
    fast = transmit(a, b, 0, chunk_size=64, available=ready)
    slow = transmit_reference(c, d, 0, chunk_size=64, available=ready)
    assert fast == slow
    assert fast.start == fast.end == max(ready, a.tx_free_at,
                                         b.rx_free_at)
    _assert_same(a, b, c, d)
    _assert_all_int(fast, a, b)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(min_value=1, max_value=50_000),
       chunk_size=st.integers(min_value=1, max_value=4096),
       bandwidth=bandwidths, ready=times,
       hops=st.lists(st.tuples(latencies, times, times), min_size=2,
                     max_size=6))
def test_relay_hop_is_one_busy_period_after_its_first_chunk(
        size, chunk_size, bandwidth, ready, hops):
    """Down a chain of equal-bandwidth links with arbitrary latencies and
    horizons, each relay hop's chunks after the first go out back to
    back: chunk c starts at chunk c-1's end, i.e. arrives exactly its own
    wire time after chunk c-1.  A relay hop is then priced by the bulk
    closed form from its first chunk's start."""
    chain = [_link(f"n{i}", bandwidth, lat, tx_free, rx_free, 0)
             for i, (lat, tx_free, rx_free) in enumerate(hops)]
    wires = [wire_ns(n, bandwidth) for n in chunk_sizes(size, chunk_size)]
    available = ready
    for src, dst in zip(chain, chain[1:]):
        timing = transmit(src, dst, size, chunk_size=chunk_size,
                          available=available)
        arrivals = timing.chunk_arrivals
        for c in range(1, len(arrivals)):
            assert arrivals[c] - arrivals[c - 1] == wires[c]
        available = arrivals

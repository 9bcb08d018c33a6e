"""Oracles for the fleet's constant-cost read path.

Three fast paths, each checked against what it replaced:

* the ring's memoized ``holders`` against a freshly built ring, after
  random shard joins and departures;
* the shard's sorted admission queue (``bisect`` on ``_completions``)
  against the list-comprehension queue it replaced, kept here as the
  reference;
* ``route_blob``'s single pass: least queue depth wins, ties go to the
  primary, and a crashed or emptied primary re-routes to the replica.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive import TarArchive, TarMember
from repro.cluster import HashRing, RegistryFleet, RegistryShard
from repro.cluster.fleet import FleetError, FleetOverloadError
from repro.containers import ImageConfig
from repro.kernel import FileType

_prop = settings(max_examples=80, derandomize=True, deadline=None)

NAMES = [f"site.s{i:02d}" for i in range(6)]
KEYS = [f"sha256:key{k}" for k in range(40)]


# -- the memoized ring ------------------------------------------------------

_ring_ops = st.lists(st.tuples(st.sampled_from(["add", "remove", "query"]),
                               st.sampled_from(NAMES),
                               st.sampled_from(KEYS),
                               st.integers(1, 4)), max_size=30)


@_prop
@given(ops=_ring_ops, vnodes=st.sampled_from([1, 4, 16]))
def test_memoized_holders_match_a_fresh_ring(ops, vnodes):
    ring = HashRing(NAMES[:4], vnodes=vnodes)
    for op, name, key, n in ops:
        if op == "add":
            ring.add(name)
        elif op == "remove":
            ring.remove(name)
        if not len(ring):
            with pytest.raises(FleetError):
                ring.holders(key, n)
            continue
        fresh = HashRing(ring.shards, vnodes=vnodes)
        # the query fills the memo that the next add or remove must clear
        assert ring.holders(key, n) == fresh.holders(key, n)
        for k in KEYS[:8]:
            assert ring.holders(k, n) == fresh.holders(k, n)


def test_holders_cannot_be_mutated_through_the_memo():
    ring = HashRing(NAMES[:3])
    first = ring.holders(KEYS[0], 2)
    assert isinstance(first, tuple)
    assert ring.holders(KEYS[0], 2) is first


# -- the sorted admission queue ---------------------------------------------

class _ListQueueShard(RegistryShard):
    """The admission queue before it was kept sorted: every query filters
    the whole completion list."""

    def queue_depth(self, now):
        self._completions = [t for t in self._completions if t > now]
        return len(self._completions)

    def retry_hint(self, now):
        pending = [t for t in self._completions if t > now]
        return min(pending) if pending else now


def _apply(shard, op, now, arg):
    try:
        if op == "admit":
            shard.check_admission(now, extra=arg)
            return ("admitted",)
        if op == "reserve":
            return ("end", shard.reserve(now, arg))
        if op == "depth":
            return ("depth", shard.queue_depth(now))
        return ("hint", shard.retry_hint(now))
    except FleetOverloadError as exc:
        return ("overload", exc.retry_at)


# half-second service steps on a clock that advances by half-seconds:
# completions land exactly on query times, so the t > now boundary is
# exercised
_queue_ops = st.lists(st.tuples(
    st.sampled_from(["admit", "reserve", "reserve", "depth", "hint"]),
    st.integers(0, 2).map(lambda i: i / 2),
    st.integers(0, 3)), max_size=60)


@_prop
@given(ops=_queue_ops, queue_limit=st.sampled_from([None, 1, 2, 4]))
def test_sorted_queue_matches_the_list_queue(ops, queue_limit):
    kw = dict(queue_limit=queue_limit, service_bandwidth=1.0,
              service_latency=0.5)
    fast, ref = RegistryShard("a", **kw), _ListQueueShard("a", **kw)
    now = 0.0
    for op, step, arg in ops:
        now += step
        assert _apply(fast, op, now, arg) == _apply(ref, op, now, arg)
        assert fast._completions == ref._completions
        assert fast._completions == sorted(fast._completions)
        assert fast.stats == ref.stats


# -- routing ----------------------------------------------------------------

def _fleet_with_one_blob():
    fleet = RegistryFleet("site", n_shards=4, replicas=2)
    fleet.push("app:v1", ImageConfig(), [TarArchive([TarMember(
        "bin", FileType.REG, 0o644, 0, 0, data=b"x" * 100)])])
    (digest,) = fleet.image_blob_digests("app:v1")
    primary, replica = (fleet._by_name[h]
                        for h in fleet.blob_holders(digest))
    return fleet, digest, primary, replica


class TestRouteBlob:
    def test_an_idle_tie_goes_to_the_primary(self):
        fleet, digest, primary, _ = _fleet_with_one_blob()
        assert fleet.route_blob(digest) is primary

    def test_an_equal_queue_goes_to_the_primary(self):
        fleet, digest, primary, replica = _fleet_with_one_blob()
        primary.reserve(0.0, 100)
        replica.reserve(0.0, 100)
        assert fleet.route_blob(digest) is primary

    def test_a_shorter_queue_wins(self):
        fleet, digest, primary, replica = _fleet_with_one_blob()
        primary.reserve(0.0, 100)
        assert fleet.route_blob(digest) is replica
        replica.reserve(0.0, 100)
        replica.reserve(0.0, 100)
        assert fleet.route_blob(digest) is primary

    def test_a_crashed_primary_reroutes_to_the_replica(self):
        fleet, digest, primary, replica = _fleet_with_one_blob()
        replica.reserve(0.0, 100)
        fleet.crash_shard(primary.name)
        assert fleet.route_blob(digest) is replica

    def test_a_primary_without_the_blob_is_skipped(self):
        fleet, digest, primary, replica = _fleet_with_one_blob()
        primary.registry.drop_blob(digest)
        assert fleet.route_blob(digest) is replica

    def test_no_live_holder_names_the_placement(self):
        fleet, digest, primary, replica = _fleet_with_one_blob()
        fleet.crash_shard(primary.name)
        fleet.crash_shard(replica.name)
        with pytest.raises(FleetError,
                           match=rf"placement: \['{primary.name}', "
                                 rf"'{replica.name}'\]"):
            fleet.route_blob(digest)


# -- growing the fleet ------------------------------------------------------


def test_add_shard_moves_only_the_keys_a_fresh_ring_moves():
    """4 -> 5 shards: the grown fleet's memoized ring places every blob
    where a freshly built 5-shard ring does; only the blobs whose
    holder set changed are filled (onto the new shard), and every
    ex-holder releases its copy."""
    fleet = RegistryFleet("site", n_shards=4, replicas=2)
    fleet.push("app:v1", ImageConfig(), [
        TarArchive([TarMember(f"f{i}", FileType.REG, 0o644, 0, 0,
                              data=bytes([i]) * (i + 1))])
        for i in range(40)])
    digests = fleet.image_blob_digests("app:v1")
    before = {d: set(fleet.blob_holders(d)) for d in digests}
    filled = fleet.rebalance_blobs

    new = fleet.add_shard()
    fresh = HashRing([s.name for s in fleet.shards], vnodes=fleet.ring.vnodes)
    moved = 0
    for digest in digests:
        holders = fresh.holders(digest, 2)
        assert tuple(fleet.blob_holders(digest)) == holders
        assert {s.name for s in fleet.shards
                if s.registry.has_blob(digest)} == set(holders)
        gained = set(holders) - before[digest]
        assert gained <= {new.name}
        moved += len(gained)
    assert 0 < moved < len(digests)
    assert fleet.rebalance_blobs - filled == moved
    _, layers = fleet.pull("app:v1")
    assert [layer.digest() for layer in layers] == digests

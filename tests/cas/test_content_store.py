"""Property tests for the content-addressed store: round-trips, GC
safety, and the eviction invariants the build cache depends on."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cas import CasError, ContentStore, blob_digest

_prop = settings(max_examples=50, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])

blobs_st = st.lists(st.binary(min_size=0, max_size=64), max_size=20)


class TestRoundTrip:
    @_prop
    @given(blobs=blobs_st)
    def test_put_get_roundtrip(self, blobs):
        """Every blob ever put comes back byte-identical via its digest."""
        store = ContentStore()
        digests = [store.put(b) for b in blobs]
        for digest, blob in zip(digests, blobs):
            assert digest == blob_digest(blob)
            assert store.get(digest) == blob

    @_prop
    @given(blobs=blobs_st)
    def test_dedup_stores_unique_bytes_once(self, blobs):
        store = ContentStore()
        for b in blobs:
            store.put(b)
        unique = {bytes(b) for b in blobs}
        assert store.blob_count == len(unique)
        assert store.size_bytes == sum(len(b) for b in unique)
        assert store.stats.bytes_deduped == \
            store.stats.bytes_in - store.stats.bytes_stored

    def test_get_missing_raises(self):
        store = ContentStore()
        with pytest.raises(CasError):
            store.get("sha256:" + "0" * 64)
        assert store.stats.misses == 1


class TestIntegrity:
    """``get`` returns only bytes that hash to their key, and hashes
    only bytes the store did not hash itself."""

    def test_get_hashes_only_bytes_it_did_not_hash(self, blob_hashes):
        store = ContentStore()
        digest = store.put(b"layer")
        assert store.get(digest) == store.get(digest) == b"layer"
        assert blob_hashes == [b"layer"]                   # put's hash only
        store._blobs[digest] = bytes(bytearray(b"layer"))  # another object
        assert store.get(digest) == store.get(digest) == b"layer"
        assert blob_hashes == [b"layer"] * 2

    def test_swapped_bytes_that_fail_are_dropped(self):
        store = ContentStore()
        digest = store.put(b"layer")
        store._blobs[digest] = b"bit rot"         # swapped in under the key
        with pytest.raises(CasError, match="does not match its digest"):
            store.get(digest)
        assert (store.has(digest), store.blob_count) == (False, 0)
        assert store.put(b"layer") == digest      # a fresh copy heals it
        assert store.get(digest) == b"layer"

    def test_put_replaces_bytes_it_did_not_hash(self, blob_hashes):
        """A put over a copy swapped in under the key stores the bytes it
        just hashed instead of deduplicating against the copy; a put over
        bytes the store hashed is a dedup hit.  Neither hashes twice."""
        store = ContentStore()
        digest = store.put(b"layer")
        store.incref(digest)
        store._blobs[digest] = b"LAYER"           # rotten, same length
        assert store.put(b"layer") == digest
        assert store.stats.dedup_hits == 0
        assert (store.get(digest), store.size_bytes) == (b"layer", 5)
        assert store.refcount(digest) == 1
        store.put(b"layer")
        assert store.stats.dedup_hits == 1
        assert blob_hashes == [b"layer"] * 3

    def test_put_with_expect_refuses_other_bytes(self):
        store = ContentStore()
        want = blob_digest(b"layer")
        with pytest.raises(CasError, match="does not match its digest"):
            store.put(b"evil", expect=want)
        assert (store.blob_count, store.stats.puts) == (0, 0)
        assert store.put(b"layer", expect=want) == want


class TestGcSafety:
    @_prop
    @given(blobs=blobs_st,
           protect=st.lists(st.sampled_from(["ref", "keep", "no"]),
                            max_size=20))
    def test_gc_never_reclaims_protected_or_kept(self, blobs, protect):
        """GC reclaims exactly the unprotected, un-kept blobs — never a
        referenced or keep-listed one."""
        store = ContentStore()
        keep = set()
        shielded = set()
        for blob, how in zip(blobs, protect):
            d = store.put(blob)
            if how == "ref":
                store.incref(d)
                shielded.add(d)
            elif how == "keep":
                keep.add(d)
        before = set(store.digests())
        reclaimed = set(store.gc(keep=keep))
        # refs are untouched by gc, so protected() still answers for
        # reclaimed digests: exactly the unprotected, un-kept ones went
        expected = {d for d in before
                    if not store.protected(d) and d not in keep}
        assert reclaimed == expected
        for d in shielded | keep:
            assert store.has(d)

    def test_decref_reexposes_to_gc(self):
        store = ContentStore()
        d = store.put(b"layer")
        store.incref(d)
        assert store.gc() == []
        store.decref(d)
        assert store.gc() == [d]
        with pytest.raises(CasError):
            store.decref(d)  # underflow


class TestEviction:
    @_prop
    @given(blobs=st.lists(st.binary(min_size=1, max_size=32),
                          min_size=1, max_size=30),
           protect=st.lists(st.booleans(), max_size=30))
    def test_bound_holds_unless_everything_is_protected(self, blobs,
                                                        protect):
        """After any put, either the size bound holds or everything
        resident except the blob just inserted is protected (the bound
        overflows rather than lose referenced data, and put never evicts
        its own incoming blob) — and protected blobs are never evicted."""
        store = ContentStore(max_bytes=64)
        shielded = {}
        for blob, prot in zip(blobs, protect + [False] * len(blobs)):
            d = store.put(blob)
            if prot and not store.protected(d):
                store.incref(d)
                shielded[d] = bytes(blob)
            assert (store.size_bytes <= 64
                    or all(store.protected(x)
                           for x in store.digests()[:-1]))
            for sd, sblob in shielded.items():
                assert store.has(sd), "evicted a referenced blob"
        for sd, sblob in shielded.items():
            assert store.get(sd) == sblob

    def test_lru_order_evicts_coldest_first(self):
        store = ContentStore(max_bytes=8)
        a = store.put(b"aaaa")
        b = store.put(b"bbbb")
        store.get(a)           # a is now hotter than b
        store.put(b"cccc")     # must evict b, not a
        assert store.has(a) and not store.has(b)
        assert store.stats.evictions == 1
        assert store.stats.bytes_evicted == 4

    def test_bad_bound_rejected(self):
        with pytest.raises(CasError):
            ContentStore(max_bytes=0)

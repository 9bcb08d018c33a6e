"""Unit tests for the Merkle-keyed build cache: key derivation,
self-healing records, GC reachability, and registry export/import."""

import json

import pytest

from repro.archive import TarArchive, TarMember
from repro.cas import BuildCache, ContentStore
from repro.cas.cache import CacheManifestError
from repro.containers import Registry
from repro.kernel import FileType


def _diff(path: str, data: bytes) -> TarArchive:
    return TarArchive([TarMember(path=path, ftype=FileType.REG, mode=0o644,
                                 uid=0, gid=0, data=data)])


def _chain(cache: BuildCache, base: str = "sha256:base", *texts: str,
           store: bool = True) -> str:
    """Extend a chain through *texts*, storing a diff per instruction."""
    key = cache.begin(base)
    for n, text in enumerate(texts):
        key = cache.extend(key, "RUN", text)
        if store:
            cache.store_diff(key, "RUN", text, _diff(f"f{n}", text.encode()))
    return key


class TestKeys:
    def test_chains_are_deterministic(self):
        a, b = BuildCache(), BuildCache()
        ka = _chain(a, "sha256:base", "x", "y", store=False)
        kb = _chain(b, "sha256:base", "x", "y", store=False)
        assert ka == kb

    def test_every_component_partitions(self):
        cache = BuildCache()
        root = cache.begin("sha256:base")
        assert cache.begin("sha256:other") != root
        assert cache.begin("sha256:base", force=True) != root
        assert (cache.begin("sha256:base", force=True, force_mode="seccomp")
                != cache.begin("sha256:base", force=True,
                               force_mode="fakeroot"))
        # force_mode is ignored unless force is on (matches ChImage)
        assert cache.begin("sha256:base", force_mode="seccomp") == root
        k = cache.extend(root, "RUN", "echo hi")
        assert cache.extend(root, "RUN", "echo ho") != k
        assert cache.extend(root, "COPY", "echo hi") != k
        assert cache.extend(root, "RUN", "echo hi", context="sha256:f") != k

    def test_shared_prefix_shares_keys(self):
        cache = BuildCache()
        k1 = _chain(cache, "sha256:base", "a", "b", store=False)
        root = cache.begin("sha256:base")
        k2 = cache.extend(root, "RUN", "a")
        assert cache.extend(k2, "RUN", "b") == k1


class TestHitMissStore:
    def test_roundtrip(self):
        cache = BuildCache()
        key = _chain(cache, "sha256:base", "echo hi")
        got = cache.lookup(key)
        assert got is not None
        assert [m.path for m in got] == ["f0"]
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_evicted_blob_self_heals_to_miss(self):
        # a store too small for any diff to stay
        cache = BuildCache(store=ContentStore(max_bytes=1))
        key = _chain(cache, "sha256:base", "echo hi")
        # the store() itself fit (bound may overflow only for protected
        # blobs — cache diffs are unprotected, so the next put evicts)
        cache.store.put(b"x" * 1)
        assert cache.lookup(key) is None
        assert cache.stats.dropped_records == 1
        assert key not in cache.records  # record dropped, not just missed


class TestGc:
    def test_untag_then_gc_reclaims(self):
        cache = BuildCache()
        key = _chain(cache, "sha256:base", "a", "b")
        cache.tag("img", key)
        assert cache.gc()["records_dropped"] == 0
        assert cache.untag("img")
        res = cache.gc()
        assert res["records_dropped"] == 2
        assert res["blobs_reclaimed"] == 2
        assert res["bytes_reclaimed"] > 0
        assert cache.store.blob_count == 0

    def test_gc_keeps_tag_reachable_prefix(self):
        cache = BuildCache()
        key = _chain(cache, "sha256:base", "a", "b")
        mid = cache.extend(cache.begin("sha256:base"), "RUN", "a")
        cache.tag("short", mid)  # only the first instruction is reachable
        res = cache.gc()
        assert res["records_dropped"] == 1
        assert cache.lookup(mid) is not None
        assert cache.lookup(key) is None

    def test_gc_spares_blobs_shared_with_live_records(self):
        cache = BuildCache()
        root = cache.begin("sha256:base")
        k1 = cache.extend(root, "RUN", "a")
        k2 = cache.extend(root, "RUN", "b")
        same = _diff("f", b"same bytes")
        cache.store_diff(k1, "RUN", "a", same)
        cache.store_diff(k2, "RUN", "b", same)  # dedups to one blob
        cache.tag("keep", k1)
        res = cache.gc()  # drops k2's record but must keep the blob
        assert res["records_dropped"] == 1
        assert res["blobs_reclaimed"] == 0
        assert cache.lookup(k1) is not None

    def test_gc_never_touches_refcounted_blobs_on_shared_store(self):
        store = ContentStore()
        registry_blob = store.put(b"a pushed layer")
        store.incref(registry_blob)  # the registry's reference
        cache = BuildCache(store=store)
        key = _chain(cache, "sha256:base", "a")
        cache.reset()
        assert store.has(registry_blob)

    def test_reset_drops_everything(self):
        cache = BuildCache()
        key = _chain(cache, "sha256:base", "a", "b")
        cache.tag("img", key)
        res = cache.reset()
        assert res["records_dropped"] == 2
        assert not cache.records and not cache.tags
        assert cache.tree() == "build cache is empty"


class TestExportImport:
    def test_registry_roundtrip_hits_everywhere(self):
        src = BuildCache()
        key = _chain(src, "sha256:base", "a", "b")
        src.tag("img", key)
        registry = Registry("site")
        src.export_to_registry(registry, "alice/cache:latest")
        assert registry.has_cache("alice/cache:latest")

        dst = BuildCache()
        installed = dst.import_from_registry(registry, "alice/cache:latest")
        assert installed == 2
        assert dst.keys() == src.keys()
        assert dst.tags == src.tags
        for k in src.keys():
            assert dst.lookup(k).digest() == src.lookup(k).digest()

    def test_import_verifies_blob_digests(self):
        src = BuildCache()
        _chain(src, "sha256:base", "a")
        manifest = src.to_manifest()
        dst = BuildCache()
        with pytest.raises(CacheManifestError):
            dst.import_manifest(manifest, lambda d: b"tampered")
        # checked before it is stored: no bad blob is left behind
        assert (dst.store.blob_count, dst.store.stats.puts) == (0, 0)

    def test_version_gate(self):
        with pytest.raises(CacheManifestError):
            BuildCache().import_manifest({"version": 999}, lambda d: b"")

    def test_manifest_is_canonical_json(self):
        src = BuildCache()
        key = _chain(src, "sha256:base", "a")
        src.tag("img", key)
        one = json.dumps(src.to_manifest(), sort_keys=True)
        two = json.dumps(src.to_manifest(), sort_keys=True)
        assert one == two


class TestIntrospection:
    def test_tree_marks_records_and_tags(self):
        cache = BuildCache()
        key = _chain(cache, "sha256:base", "echo hi")
        cache.tag("img", key)
        text = cache.tree()
        assert "* " in text and "(img)" in text
        assert "RUN echo hi" in text

    def test_summary_counts(self):
        cache = BuildCache()
        _chain(cache, "sha256:base", "a")
        assert "records:       1" in cache.summary()

"""Image references, manifests, and registry behaviour."""

import pytest

from repro.archive import TarArchive, TarMember
from repro.cluster import RegistryFleet
from repro.containers import ImageConfig, ImageRef, Registry
from repro.errors import RegistryError
from repro.kernel import FileType


def layer(name: str, data: bytes = b"payload") -> TarArchive:
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0, data=data)])


class TestImageRef:
    @pytest.mark.parametrize(
        "text,repo,tag,registry",
        [
            ("centos:7", "centos", "7", None),
            ("centos", "centos", "latest", None),
            ("debian:buster", "debian", "buster", None),
            ("library/ubuntu:20.04", "library/ubuntu", "20.04", None),
            ("gitlab.lanl.gov/app:v1", "app", "v1", "gitlab.lanl.gov"),
            ("localhost/foo", "foo", "latest", "localhost"),
        ],
    )
    def test_parse(self, text, repo, tag, registry):
        ref = ImageRef.parse(text)
        assert ref.repository == repo
        assert ref.tag == tag
        assert ref.registry == registry

    def test_parse_invalid(self):
        with pytest.raises(RegistryError):
            ImageRef.parse("UPPER CASE!!")

    def test_str_roundtrip(self):
        assert str(ImageRef.parse("gitlab.x.gov/a/b:v2")) == \
            "gitlab.x.gov/a/b:v2"

    def test_flat_name(self):
        assert "/" not in ImageRef.parse("a/b:c").flat_name
        assert ":" not in ImageRef.parse("a/b:c").flat_name


class TestRegistry:
    def test_push_pull_roundtrip(self):
        r = Registry("hub")
        cfg = ImageConfig(arch="x86_64", env=("A=1",))
        r.push("app:v1", cfg, [layer("f1"), layer("f2", b"other")])
        config, layers = r.pull("app:v1")
        assert config.env == ("A=1",)
        assert [m.path for l in layers for m in l] == ["f1", "f2"]

    def test_pull_unknown(self):
        with pytest.raises(RegistryError):
            Registry("hub").pull("nope:1")

    def test_blob_dedup_on_push(self):
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        r.push("a:1", ImageConfig(), [base, layer("d1", b"1")])
        before = r.stats.bytes_pushed
        r.push("a:2", ImageConfig(), [base, layer("d2", b"2")])
        # base layer not re-sent
        assert r.stats.blobs_push_skipped == 1
        assert r.stats.bytes_pushed - before < base.serialize().__len__()

    def test_multiarch_variants(self):
        r = Registry("hub")
        r.push("centos:7", ImageConfig(arch="x86_64"), [layer("x")])
        r.push("centos:7", ImageConfig(arch="aarch64"), [layer("a")])
        cfg, _ = r.pull("centos:7", arch="aarch64")
        assert cfg.arch == "aarch64"
        with pytest.raises(RegistryError):
            r.pull("centos:7")  # ambiguous without arch

    def test_single_arch_served_for_any_platform(self):
        """The laptop trap: an x86-only image pulls fine on aarch64."""
        r = Registry("hub")
        r.push("app:v1", ImageConfig(arch="x86_64"), [layer("x")])
        cfg, _ = r.pull("app:v1", arch="aarch64")
        assert cfg.arch == "x86_64"

    def test_tags_and_repositories(self):
        r = Registry("hub")
        r.push("app:v1", ImageConfig(), [layer("x")])
        r.push("app:v2", ImageConfig(), [layer("y")])
        r.push("other:1", ImageConfig(), [layer("z")])
        assert r.tags("app") == ["v1", "v2"]
        assert r.repositories() == ["app", "other"]

    def test_history_persists_old_manifests(self):
        """§4.2: registry persistence for debugging old versions."""
        r = Registry("hub")
        r.push("app:v1", ImageConfig(labels=(("gen", "1"),)), [layer("x")])
        r.push("app:v1", ImageConfig(labels=(("gen", "2"),)),
               [layer("x", b"new")])
        assert len(r.history("app")) == 2

    def test_empty_image_rejected(self):
        with pytest.raises(RegistryError):
            Registry("hub").push("a:1", ImageConfig(), [])

    def test_pull_counts_bytes(self):
        r = Registry("hub")
        r.push("a:1", ImageConfig(), [layer("x", b"d" * 50)])
        r.pull("a:1")
        assert r.stats.blobs_pulled == 1
        assert r.stats.bytes_pulled > 0

    @pytest.mark.parametrize("make", [
        lambda: Registry("hub"),
        lambda: RegistryFleet("hub", n_shards=3, replicas=2),
    ], ids=["registry", "fleet"])
    def test_push_skip_counts_bytes_saved(self, make):
        """The dedup saving is measured in bytes, not just blob counts —
        on a single registry and on a fleet's front door alike."""
        r = make()
        base = layer("base", b"x" * 100)
        size = len(base.serialize())
        r.push("a:1", ImageConfig(), [base])
        assert r.stats.bytes_push_skipped == 0
        r.push("a:2", ImageConfig(), [base])
        assert r.stats.blobs_push_skipped == 1
        assert r.stats.bytes_push_skipped == size
        assert r.stats.bytes_pushed == size  # stored exactly once

    def test_repush_replaces_a_rotten_copy(self):
        """An honest re-push over a copy that rotted at rest stores the
        pushed bytes again (counted as a push), so the next pull
        succeeds."""
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        r.push("a:1", ImageConfig(), [base])
        digest = r.image_blob_digests("a:1")[0]
        r.store._blobs[digest] = b"bit rot"
        r.push("a:1", ImageConfig(), [base])
        assert (r.stats.blobs_pushed, r.stats.blobs_push_skipped) == (2, 0)
        _, (pulled,) = r.pull("a:1")
        assert [m.path for m in pulled] == ["base"]
        r.push("a:1", ImageConfig(), [base])
        assert r.stats.blobs_push_skipped == 1

    def test_stats_as_dict(self):
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        r.push("a:1", ImageConfig(), [base])
        r.push("a:2", ImageConfig(), [base])
        r.pull("a:1")
        d = r.stats.as_dict()
        assert set(d) == {"blobs_pushed", "blobs_push_skipped",
                          "bytes_pushed", "bytes_push_skipped",
                          "blobs_pulled", "bytes_pulled",
                          "blobs_pull_skipped", "bytes_pull_skipped"}
        assert d["blobs_push_skipped"] == 1
        assert d["bytes_push_skipped"] == len(base.serialize())
        assert all(isinstance(v, int) for v in d.values())

    def test_pull_skip_counts_local_blobs(self):
        """A node whose local CAS already holds a layer does not re-pull
        it over the wire (the pull-side mirror of push dedup)."""
        from repro.cas import ContentStore
        r = Registry("hub")
        base = layer("base", b"x" * 100)
        size = len(base.serialize())
        r.push("a:1", ImageConfig(), [base])
        node_store = ContentStore()
        r.pull("a:1", local_store=node_store)          # first pull: wire
        assert r.stats.blobs_pulled == 1
        assert r.stats.blobs_pull_skipped == 0
        r.pull("a:1", local_store=node_store)          # second: local hit
        assert r.stats.blobs_pulled == 1               # unchanged
        assert r.stats.blobs_pull_skipped == 1
        assert r.stats.bytes_pull_skipped == size
        # a different node with an empty store still pays the wire cost
        r.pull("a:1", local_store=ContentStore())
        assert r.stats.blobs_pulled == 2


class TestLayerDecodeMemo:
    """A registry decodes each layer blob once, however many nodes pull
    it; only bytes equal to the decoded ones reuse the members."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        real = TarArchive.deserialize.__func__

        def counting(cls, blob):
            calls.append(blob)
            return real(cls, blob)
        monkeypatch.setattr(TarArchive, "deserialize", classmethod(counting))
        return calls

    @staticmethod
    def pushed(r, *layers_):
        r.push("a:1", ImageConfig(), list(layers_))
        return r.manifest("a:1").layers

    def test_equal_bytes_decode_once(self, decodes):
        from repro.cas import ContentStore
        r = Registry("hub")
        self.pushed(r, layer("base"), layer("app", b"other"))
        first = r.pull("a:1")[1]
        for store in (None, ContentStore(), ContentStore()):
            again = r.pull("a:1", local_store=store)[1]
            assert [l.members for l in again] == [l.members for l in first]
        assert len(decodes) == 2

    def test_tampered_node_copy_is_refused(self, decodes):
        """A node-store copy that does not hash to its digest (garbage,
        or another well-formed layer) is refused and dropped before it
        is decoded or counted; the next pull fetches the honest bytes."""
        from repro.cas import ContentStore
        r = Registry("hub")
        (digest,) = self.pushed(r, layer("base"))
        r.pull("a:1")
        node = ContentStore()
        for bad in (b"not|an|archive\n", layer("evil", b"rogue").serialize()):
            node.put(r.blob_at_rest(digest))
            node._blobs[digest] = bad                  # a tampered node copy
            before = r.stats.as_dict()
            with pytest.raises(RegistryError,
                               match="does not match its digest"):
                r.pull("a:1", local_store=node)
            assert not node.has(digest)
            assert r.stats.as_dict() == before
        _, (clean,) = r.pull("a:1", local_store=node)  # over the wire
        assert [m.path for m in clean] == ["base"]
        assert node.get(digest) == r.blob_at_rest(digest)
        assert len(decodes) == 1

    def test_tampered_wire_bytes_are_refused(self, decodes):
        """Registry-side bytes that do not hash to their digest (another
        well-formed layer) are refused before they are stored or
        decoded, also after the honest bytes were served."""
        from repro.cas import ContentStore
        r = Registry("solo")
        (digest,) = self.pushed(r, layer("base"))
        r.pull("a:1")
        r.store._blobs[digest] = layer("evil", b"rogue").serialize()
        node = ContentStore()
        with pytest.raises(RegistryError, match="does not match its digest"):
            r.pull("a:1", local_store=node)
        assert (dict(node._blobs), node.stats.puts) == ({}, 0)
        assert (len(decodes), r.stats.blobs_pulled) == (1, 1)

    def test_returned_layers_are_fresh(self):
        r = Registry("hub")
        self.pushed(r, layer("base"), layer("app", b"other"))
        _, layers = r.pull("a:1")
        layers[0].members.append(TarMember("extra", FileType.REG, 0o644,
                                           0, 0))
        layers.pop()
        _, again = r.pull("a:1")
        assert [[m.path for m in l] for l in again] == [["base"], ["app"]]

    def test_entries_of_dropped_blobs_go(self):
        r = Registry("hub")
        (old,) = self.pushed(r, layer("base"))
        r.pull("a:1")
        r.drop_blob(old)
        r.push("b:1", ImageConfig(), [layer("new", b"new")])
        r.pull("b:1")
        assert tuple(r._decoded) == r.manifest("b:1").layers


class TestSharedContentStore:
    """Registries backed by one CAS dedup blobs across services."""

    def test_cross_registry_dedup(self):
        from repro.cas import ContentStore
        store = ContentStore()
        hub = Registry("hub", store=store)
        site = Registry("site", store=store)
        base = layer("base", b"x" * 100)
        hub.push("a:1", ImageConfig(), [base])
        site.push("b:1", ImageConfig(), [base])
        # the second service never re-stored the bytes...
        assert site.stats.blobs_push_skipped == 1
        assert store.blob_count == 1
        # ...but both account for (and can serve) them
        assert hub.storage_bytes() == site.storage_bytes() > 0
        _, layers = site.pull("b:1")
        assert layers[0].digest() == base.digest()

    def test_registry_blobs_survive_store_gc(self):
        from repro.cas import ContentStore
        store = ContentStore()
        r = Registry("hub", store=store)
        r.push("a:1", ImageConfig(), [layer("x")])
        orphan = store.put(b"nobody references this")
        assert store.gc() == [orphan]
        assert r.pull("a:1")  # still servable

    def test_cache_manifest_roundtrip(self):
        r = Registry("hub")
        blobs = [b"diff one", b"diff two"]
        digest = r.push_cache("alice/cache:latest", b'{"v": 1}', blobs)
        assert r.has_cache("alice/cache:latest")
        assert not r.has_cache("alice/other:latest")
        manifest, fetch = r.pull_cache("alice/cache:latest")
        assert manifest == b'{"v": 1}'
        from repro.cas import blob_digest
        assert fetch(blob_digest(b"diff one")) == b"diff one"
        with pytest.raises(RegistryError):
            r.pull_cache("alice/missing:1")


class TestManifest:
    def test_digests_are_stable(self):
        cfg = ImageConfig(arch="x86_64")
        assert cfg.digest() == ImageConfig(arch="x86_64").digest()
        assert cfg.digest() != ImageConfig(arch="aarch64").digest()

    def test_config_history(self):
        cfg = ImageConfig().with_history("step 1").with_history("step 2")
        assert cfg.history == ("step 1", "step 2")

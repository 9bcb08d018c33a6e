"""The tenant ledger invariant: charged bytes always equal stored bytes.

The regression this file pins: the fleet used to charge the quota
ledger *before* placing blobs, so a push that failed mid-request (no
live shard for one of its blobs) left ``bytes_used`` and ``digests``
charged for bytes that were never stored — a leak that compounds until
the tenant's quota is exhausted by phantom data.  Charging is now
transactional (reserve, place, commit; placements and front-door push
counters roll back on failure), and metadata — manifests, signatures,
attestation records — is held once at the front door, so a restored
shard has nothing to backfill but blobs.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.archive import TarArchive, TarMember
from repro.cas.store import blob_digest
from repro.cluster import RegistryFleet
from repro.cluster.fleet import FleetError, FleetQuotaError
from repro.containers import ImageConfig
from repro.kernel import FileType
from repro.supply import KeyRegistry, build_attestations  # noqa: F401


def layer(name, data):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


def ledger_is_consistent(fleet):
    """Every tenant's ``bytes_used`` equals the total size of its
    *unique* attributed digests, and every attributed digest is
    resident on at least one shard."""
    for tenant in fleet.tenants.values():
        total = 0
        for digest in tenant.digests:
            assert fleet.has_blob(digest), \
                f"{tenant.name} charged for unstored {digest[:19]}..."
            total += fleet.blob_size(digest)
        assert tenant.bytes_used == total, \
            f"{tenant.name}: bytes_used={tenant.bytes_used} != {total}"
    return True


def primary_of(fleet, archive):
    return fleet.blob_holders(blob_digest(archive.serialize()))[0]


def probe_layers(fleet, shard_name, *, off, on):
    """Distinct probe layers split by primary holder: *off* of them
    placed away from *shard_name*, then *on* of them placed on it —
    placement is a pure ring function, so probing payloads finds both."""
    misses, hits = [], []
    for seed in range(128):
        cand = layer(f"p{seed}", bytes([seed % 251]) * 2000)
        bucket = hits if primary_of(fleet, cand) == shard_name else misses
        bucket.append(cand)
        if len(misses) >= off and len(hits) >= on:
            return misses[:off] + hits[:on]
    raise AssertionError("ring never split the probe layers as wanted")


class TestQuotaLeakRegression:
    def make_fleet(self):
        fleet = RegistryFleet("site", n_shards=2, replicas=1)
        fleet.add_tenant("alice", token="tok", quota_bytes=500_000)
        return fleet

    def failing_push(self, fleet):
        """A push whose blobs straddle the crashed shard: early layers
        land on the live shard, then placement of the doomed one fails
        — the partial placement must roll back."""
        doomed_shard = fleet.shards[0].name
        layers = probe_layers(fleet, doomed_shard, off=3, on=1)
        fleet.crash_shard(doomed_shard)
        with pytest.raises(FleetError):
            fleet.push("alice/app:v1", ImageConfig(), layers, token="tok")

    def test_failed_push_charges_nothing(self, ):
        fleet = self.make_fleet()
        self.failing_push(fleet)
        stats = fleet.tenant_stats("alice")
        assert stats["bytes_used"] == 0
        assert stats["digests"] == []
        assert ledger_is_consistent(fleet)

    def test_failed_push_stores_nothing(self):
        """Rollback drops the partial placements too: no orphan blobs,
        and the front-door push counters return to their prior state."""
        fleet = self.make_fleet()
        before = (fleet.storage_bytes(), fleet.stats.blobs_pushed,
                  fleet.stats.bytes_pushed)
        self.failing_push(fleet)
        assert (fleet.storage_bytes(), fleet.stats.blobs_pushed,
                fleet.stats.bytes_pushed) == before

    def test_failed_push_leaves_prior_images_alone(self):
        """Blobs shared with an earlier image survive the rollback —
        only placements the failed request introduced are undone."""
        fleet = self.make_fleet()
        shared = layer("shared", b"s" * 3000)
        fleet.push("alice/base:v1", ImageConfig(), [shared], token="tok")
        used = fleet.tenant_stats("alice")["bytes_used"]
        # crash the shard *not* serving the shared blob, and doom a
        # fresh layer that routes to it
        doomed_shard = next(s.name for s in fleet.shards
                            if s.name != primary_of(fleet, shared))
        (doomed,) = probe_layers(fleet, doomed_shard, off=0, on=1)
        fleet.crash_shard(doomed_shard)
        with pytest.raises(FleetError):
            fleet.push("alice/app:v1", ImageConfig(), [shared, doomed],
                       token="tok")
        assert fleet.tenant_stats("alice")["bytes_used"] == used
        assert fleet.has_blob(blob_digest(shared.serialize()))
        config, layers = fleet.pull("alice/base:v1", token="tok")
        assert len(layers) == 1
        assert ledger_is_consistent(fleet)

    def test_failed_push_sharing_a_layer_leaves_push_counters_alone(self):
        """A failed push that re-placed a pre-existing blob counts it as
        neither a push nor a skip: the front-door counters return exactly
        to their prior state (they used to grow by the shared layer)."""
        fleet = self.make_fleet()
        shared = layer("shared", b"s" * 3000)
        fleet.push("alice/base:v1", ImageConfig(), [shared], token="tok")
        before = fleet.stats.as_dict()
        doomed_shard = next(s.name for s in fleet.shards
                            if s.name != primary_of(fleet, shared))
        (doomed,) = probe_layers(fleet, doomed_shard, off=0, on=1)
        fleet.crash_shard(doomed_shard)
        with pytest.raises(FleetError):
            fleet.push("alice/app:v1", ImageConfig(), [shared, doomed],
                       token="tok")
        assert fleet.stats.as_dict() == before
        assert fleet.stats.bytes_pushed == fleet.storage_bytes()

    def test_quota_rejection_still_charges_nothing(self):
        fleet = RegistryFleet("site", n_shards=2, replicas=1)
        fleet.add_tenant("alice", token="tok", quota_bytes=1000)
        with pytest.raises(FleetQuotaError):
            fleet.push("alice/big:v1", ImageConfig(),
                       [layer("bin", b"x" * 5000)], token="tok")
        assert fleet.tenant_stats("alice")["bytes_used"] == 0
        assert fleet.storage_bytes() == 0
        assert ledger_is_consistent(fleet)

    def test_attestation_blobs_ride_the_same_transaction(self):
        """When the attestation blob cannot be placed, the layers that
        landed first are rolled back with it."""
        fleet = self.make_fleet()
        att = b'{"format":"repro.sbom/v1","packages":[]}'
        doomed_shard = fleet.blob_holders(blob_digest(att))[0]
        # the layer itself lands fine — only the attestation can't place
        (lay,) = probe_layers(fleet, doomed_shard, off=1, on=0)
        fleet.crash_shard(doomed_shard)
        with pytest.raises(FleetError):
            fleet.push("alice/app:v1", ImageConfig(), [lay], token="tok",
                       attestations={"sbom": att})
        assert fleet.tenant_stats("alice")["bytes_used"] == 0
        assert fleet.storage_bytes() == 0


class TestManifestBackfill:
    def push_while_down(self):
        fleet = RegistryFleet("site", n_shards=3, replicas=2)
        fleet.signer = KeyRegistry(seed=0).signer("site-ci")
        fleet.crash_shard("site.s00")
        fleet.push("hpc/app:v1", ImageConfig(),
                   [layer("bin", b"x" * 2000)],
                   attestations={"sbom": b'{"format":"repro.sbom/v1"}'})
        return fleet

    def test_fleet_serves_metadata_through_the_restored_shard_alone(self):
        """End to end: after restore, crash every *other* shard — the
        front door still answers manifest, signature, and attestation
        lookups (metadata never lived on the shards; blob reads still
        follow ring placement, which the restored shard may not hold)."""
        fleet = self.push_while_down()
        fleet.restore_shard("site.s00")
        fleet.crash_shard("site.s01")
        fleet.crash_shard("site.s02")
        assert fleet.live_shards() == [fleet.shards[0]]
        assert fleet.has("hpc/app:v1")
        assert len(fleet.signatures_of("hpc/app:v1")) == 1
        assert "sbom" in fleet.attestation_digests("hpc/app:v1")

    def test_pull_works_after_the_round_trip(self):
        fleet = self.push_while_down()
        fleet.restore_shard("site.s00")
        config, layers = fleet.pull("hpc/app:v1")
        assert layers[0].members[0].data == b"x" * 2000


# -- property suite: the ledger invariant under seeded workloads -------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2),     # tenant index
                  st.integers(0, 15),                     # payload seed
                  st.integers(1, 3)),                     # layer count
        st.tuples(st.just("crash"), st.integers(0, 3)),
        st.tuples(st.just("restore"), st.integers(0, 3)),
    ),
    min_size=1, max_size=20)


class TestLedgerProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_ledger_equals_stored_bytes_under_fault_churn(self, ops):
        """After any interleaving of pushes (some duplicate payloads,
        some rejected by quota, some failed by dead shards) with shard
        crashes and restores, every tenant's ledger equals its unique
        resident attributed bytes."""
        fleet = RegistryFleet("site", n_shards=4, replicas=1)
        names = ["t0", "t1", "t2"]
        for name in names:
            fleet.add_tenant(name, token=name, quota_bytes=60_000)
        version = 0
        for op in ops:
            if op[0] == "push":
                _, who, payload, n_layers = op
                version += 1
                layers = [layer(f"l{i}", bytes([payload + i]) * 1500)
                          for i in range(n_layers)]
                try:
                    fleet.push(f"{names[who]}/app:v{version}",
                               ImageConfig(), layers, token=names[who])
                except (FleetQuotaError, FleetError):
                    pass
            elif op[0] == "crash":
                # never kill the whole fleet: keep one shard live
                if len(fleet.live_shards()) > 1:
                    fleet.crash_shard(f"site.s{op[1]:02d}")
            else:
                fleet.restore_shard(f"site.s{op[1]:02d}")
            assert ledger_is_consistent(fleet)

"""Fault matrix for the registry fleet.

The same seeded workload replayed under shard-crash and registry-flake
plans must converge (reads re-route to replicas, flakes retry to
completion), deploys must land digest-identical node stores, and no byte
may ever be double-counted in shard stats — not by replica fill, not by
retried pulls.

Also the satellite regression: the broadcast's registry path used to
hardcode one origin link; with a fleet it must route every pull through
ring placement.
"""

from dataclasses import replace

import pytest

from repro.archive import TarArchive, TarMember
from repro.cluster import (
    RegistryFleet,
    distribute_blobs,
    make_deploy_topology,
    make_machine,
)
from repro.cas.store import ContentStore
from repro.containers import ImageConfig, Registry
from repro.errors import RegistryError
from repro.kernel import FileType
from repro.sim import FaultPlan, SimClock, WorkloadSpec, run_workload

LAYER_SIZES = (3000, 1500)


def layer(name, data=b"payload"):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


SPEC = WorkloadSpec(seed=11, rate=30.0, duration=4.0, zipf_s=1.1,
                    images=[f"app:v{i}" for i in range(4)],
                    tenants=[("alice", 3.0), ("bob", 1.0)])


def make_fleet(*, queue_limit=None):
    fleet = RegistryFleet("site", n_shards=4, replicas=2,
                          queue_limit=queue_limit)
    for i, ref in enumerate(SPEC.refs()):
        fleet.push(ref, ImageConfig(),
                   [layer("bin", bytes([i % 251]) * LAYER_SIZES[0]),
                    layer("lib", bytes([(i * 7) % 251]) * LAYER_SIZES[1])])
    return fleet


def shard_pull_bytes(fleet):
    return sum(s.registry.stats.bytes_pulled for s in fleet.shards)


def served_bytes(fleet):
    return sum(s.stats.served_bytes for s in fleet.shards)


def image_bytes(fleet):
    ref = SPEC.refs()[0]
    return sum(fleet.blob_size(d) for d in fleet.image_blob_digests(ref))


CRASH_PLAN = FaultPlan(seed=11).add_node_crash("site.s01", 1.0)
FLAKE_PLAN = FaultPlan(seed=11).add_registry_flake(0.5, 0.9)


class TestWorkloadFaultMatrix:
    def test_shard_crash_reroutes_to_replicas(self):
        fleet = make_fleet()
        report = run_workload(fleet, SPEC, fault_plan=CRASH_PLAN)
        assert report.completed == report.offered
        assert report.failed == 0 and report.dropped == 0

    def test_registry_flake_retries_to_completion(self):
        fleet = make_fleet()
        report = run_workload(fleet, SPEC, fault_plan=FLAKE_PLAN)
        assert report.completed == report.offered
        assert report.faults > 0 and report.retries > 0
        assert report.dropped == 0

    @pytest.mark.parametrize("plan_key", ["crash", "flake", "clean"])
    def test_seeded_replay_is_identical(self, plan_key):
        plans = {"crash": lambda: FaultPlan(seed=11).add_node_crash(
                     "site.s01", 1.0),
                 "flake": lambda: FaultPlan(seed=11).add_registry_flake(
                     0.5, 0.9),
                 "clean": lambda: None}
        dicts = []
        for _ in range(2):
            fleet = make_fleet()
            plan = plans[plan_key]()
            dicts.append(run_workload(fleet, SPEC,
                                      fault_plan=plan).as_dict())
        assert dicts[0] == dicts[1]

    @pytest.mark.parametrize("plan_key", ["crash", "flake", "clean"])
    def test_zero_double_counted_bytes(self, plan_key):
        """Every served byte appears exactly once in the shard stats:
        front-door pulls == shard registry pulls == shard served bytes ==
        completed requests x image bytes.  Failed attempts (flakes,
        overloads) and replica fill must not inflate any of them."""
        plans = {"crash": lambda: FaultPlan(seed=11).add_node_crash(
                     "site.s01", 1.0),
                 "flake": lambda: FaultPlan(seed=11).add_registry_flake(
                     0.5, 0.9),
                 "clean": lambda: None}
        fleet = make_fleet()
        # replica fill never masquerades as client traffic
        assert shard_pull_bytes(fleet) == 0
        assert fleet.stats.bytes_pulled == 0
        assert fleet.rebalance_bytes > 0
        report = run_workload(fleet, SPEC, fault_plan=plans[plan_key]())
        expected = report.completed * image_bytes(fleet)
        assert fleet.stats.bytes_pulled == expected
        assert shard_pull_bytes(fleet) == expected
        assert served_bytes(fleet) == expected

    def test_backpressure_rejections_reserve_nothing(self):
        fleet = make_fleet(queue_limit=2)
        hot = WorkloadSpec(seed=3, rate=400.0, duration=1.0,
                           images=SPEC.images, tenants=SPEC.tenants)
        report = run_workload(fleet, hot, fault_plan=None)
        assert report.overloads > 0
        assert report.completed + report.dropped == report.offered
        expected = report.completed * image_bytes(fleet)
        assert fleet.stats.bytes_pulled == expected
        assert shard_pull_bytes(fleet) == expected
        rejected = sum(s.stats.rejected for s in fleet.shards)
        assert rejected >= report.overloads


class TestDeployConvergence:
    def node_trees(self, plan, strategy="tree"):
        fleet = make_fleet()
        ref = SPEC.refs()[0]
        digests = fleet.image_blob_digests(ref)
        nodes = [make_machine(f"cn{i}") for i in range(8)]
        topo = make_deploy_topology(fleet, nodes)
        report = distribute_blobs(fleet, digests, nodes, topo,
                                  strategy=strategy, fault_plan=plan)
        trees = {n.hostname: sorted(n.content_store.digests())
                 for n in nodes}
        return trees, report, fleet

    def test_shard_crash_converges_digest_identical(self):
        clean, _, _ = self.node_trees(None)
        crashed, report, _ = self.node_trees(
            FaultPlan(seed=11).add_node_crash("site.s01", 0.0))
        assert crashed == clean
        assert not report.crashed  # compute nodes all survived

    def test_registry_flake_converges_digest_identical(self):
        clean, _, _ = self.node_trees(None)
        flaked, report, _ = self.node_trees(
            FaultPlan(seed=11).add_registry_flake(0.0, 0.05),
            strategy="registry")
        assert flaked == clean
        assert report.retries > 0

    def test_retried_pulls_count_shard_bytes_once(self):
        _, report, fleet = self.node_trees(
            FaultPlan(seed=11).add_registry_flake(0.0, 0.05),
            strategy="registry")
        assert report.retries > 0
        assert shard_pull_bytes(fleet) == report.registry_egress_bytes


class TestLedgerUnderFaults:
    """Satellite: ledger == stored bytes through the whole fault matrix.

    The workload runs against *registered* tenants so every push is
    quota-charged; after crash, flake, and clean replays the charged
    bytes must equal the resident bytes of each tenant's attributed
    digests — the transactional push may never leak a phantom charge."""

    CHARGED_SPEC = replace(SPEC, tokens={"alice": "alice", "bob": "bob"})

    def charged_fleet(self):
        fleet = RegistryFleet("site", n_shards=4, replicas=2)
        for name, _ in SPEC.tenants:
            fleet.add_tenant(name, token=name, quota_bytes=1_000_000)
        for i, ref in enumerate(SPEC.refs()):
            tenant = ref.split("/", 1)[0]
            fleet.push(ref, ImageConfig(),
                       [layer("bin", bytes([i % 251]) * LAYER_SIZES[0]),
                        layer("lib",
                              bytes([(i * 7) % 251]) * LAYER_SIZES[1])],
                       token=tenant)
        return fleet

    def assert_ledger_equals_stored(self, fleet):
        for tenant in fleet.tenants.values():
            stored = 0
            for digest in tenant.digests:
                assert fleet.has_blob(digest), \
                    f"{tenant.name} charged for unstored {digest[:19]}..."
                stored += fleet.blob_size(digest)
            assert tenant.bytes_used == stored, \
                f"{tenant.name}: charged {tenant.bytes_used}, " \
                f"stored {stored}"

    @pytest.mark.parametrize("plan_key", ["crash", "flake", "clean"])
    def test_ledger_equals_stored_bytes(self, plan_key):
        plans = {"crash": lambda: FaultPlan(seed=11).add_node_crash(
                     "site.s01", 1.0),
                 "flake": lambda: FaultPlan(seed=11).add_registry_flake(
                     0.5, 0.9),
                 "clean": lambda: None}
        fleet = self.charged_fleet()
        self.assert_ledger_equals_stored(fleet)
        report = run_workload(fleet, self.CHARGED_SPEC,
                              fault_plan=plans[plan_key]())
        assert report.completed > 0
        self.assert_ledger_equals_stored(fleet)

    def test_mid_workload_crash_push_rolls_back_cleanly(self):
        """A push that fails because its primary shard is down must not
        move any tenant's ledger — replayed here on the charged fleet."""
        fleet = self.charged_fleet()
        before = {n: fleet.tenant_stats(n)["bytes_used"]
                  for n, _ in SPEC.tenants}
        fleet.crash_shard("site.s01")
        fleet.crash_shard("site.s02")
        fleet.crash_shard("site.s03")
        failed = 0
        for seed in range(32):
            try:
                fleet.push(f"alice/probe:v{seed}", ImageConfig(),
                           [layer(f"p{seed}", bytes([seed]) * 2500)],
                           token="alice")
            except Exception:
                failed += 1
        assert failed > 0      # one live shard can't hold every ring slot
        self.assert_ledger_equals_stored(fleet)
        after = {n: fleet.tenant_stats(n)["bytes_used"]
                 for n, _ in SPEC.tenants}
        assert after["bob"] == before["bob"]


class TestFleetPullDigestCheck:
    """A fleet pull into a node store keeps only bytes that hash to the
    digest it asked for: the serving shard's store checks them."""

    def test_clean_pull_stores_every_layer(self):
        fleet = make_fleet()
        ref = SPEC.refs()[0]
        store = ContentStore()
        fleet.pull(ref, local_store=store)
        assert sorted(store.digests()) == \
            sorted(fleet.image_blob_digests(ref))

    def test_corrupt_shard_fails_the_pull_and_stores_nothing(self):
        fleet = make_fleet()
        ref = SPEC.refs()[0]
        digest = fleet.image_blob_digests(ref)[0]
        holders = [s for s in fleet.shards
                   if s.name in fleet.blob_holders(digest)]
        for read in (lambda store: fleet.pull(ref, local_store=store),
                     lambda store: fleet.fetch_blob(digest,
                                                    local_store=store)):
            for shard in holders:
                shard.registry.store._blobs[digest] = b"bit rot"
            before = (fleet.stats.as_dict(),
                      [(s.stats.as_dict(), s.registry.stats.as_dict())
                       for s in fleet.shards])
            store = ContentStore()
            with pytest.raises(RegistryError,
                               match="does not match its digest"):
                read(store)
            assert store.blob_count == 0
            # nothing served or counted, and the rotten copy read is gone
            assert (fleet.stats.as_dict(),
                    [(s.stats.as_dict(), s.registry.stats.as_dict())
                     for s in fleet.shards]) == before
            assert [s.registry.has_blob(digest)
                    for s in holders].count(False) == 1

    def test_a_rotten_replica_is_dropped_and_the_other_serves(self):
        fleet = make_fleet()
        ref = SPEC.refs()[0]
        digest = fleet.image_blob_digests(ref)[0]
        shard = fleet.route_blob(digest)
        shard.registry.store._blobs[digest] = b"bit rot"
        with pytest.raises(RegistryError, match="does not match"):
            fleet.fetch_blob(digest)
        assert fleet.route_blob(digest) is not shard
        store = ContentStore()
        fleet.pull(ref, local_store=store)
        assert sorted(store.digests()) == \
            sorted(fleet.image_blob_digests(ref))


class TestRefusedBlobsReserveNothing:
    """A shard reserves service only for a blob it served: with a clock
    bound, a blob its store refuses leaves every queue untouched."""

    @staticmethod
    def rotten_fleet():
        fleet = make_fleet()
        fleet.clock = SimClock()
        ref = SPEC.refs()[0]
        digest = fleet.image_blob_digests(ref)[-1]
        for shard in fleet.shards:
            if shard.registry.has_blob(digest):
                shard.registry.store._blobs[digest] = b"bit rot"
        return fleet, ref, digest

    @staticmethod
    def reservations(fleet):
        return [(s.stats.admitted, s.stats.busy_seconds)
                for s in fleet.shards]

    def test_a_refused_fetch_reserves_nothing(self):
        fleet, _, digest = self.rotten_fleet()
        with pytest.raises(RegistryError, match="does not match"):
            fleet.fetch_blob(digest)
        assert self.reservations(fleet) == [(0, 0.0)] * len(fleet.shards)

    def test_a_timed_pull_with_a_rotten_layer_reserves_nothing(self):
        fleet, ref, _ = self.rotten_fleet()
        with pytest.raises(RegistryError, match="does not match"):
            fleet.timed_pull(ref, now=0.0)
        assert self.reservations(fleet) == [(0, 0.0)] * len(fleet.shards)


class TestBroadcastFleetRouting:
    """Satellite regression: no single-origin assumption left."""

    def two_shard_fleet(self):
        fleet = RegistryFleet("site", n_shards=2, replicas=1)
        fleet.push("alice/app:v1", ImageConfig(),
                   [layer("bin", b"b" * 4000), layer("lib", b"l" * 2000)])
        digests = fleet.image_blob_digests("alice/app:v1")
        by_shard = {d: fleet.blob_holders(d)[0] for d in digests}
        if len(set(by_shard.values())) < 2:
            pytest.skip("blobs hashed to one shard; pick other layers")
        return fleet, digests, by_shard

    def test_registry_strategy_routes_per_blob_placement(self):
        fleet, digests, by_shard = self.two_shard_fleet()
        nodes = [make_machine(f"cn{i}") for i in range(4)]
        topo = make_deploy_topology(fleet, nodes)
        report = distribute_blobs(fleet, digests, nodes, topo,
                                  strategy="registry")
        srcs = {t.digest: t.src for t in report.transfers}
        for d in digests:
            assert srcs[d] == by_shard[d]
        assert len({t.src for t in report.transfers}) == 2

    def test_tree_root_pull_honors_placement(self):
        fleet, digests, by_shard = self.two_shard_fleet()
        nodes = [make_machine(f"cn{i}") for i in range(8)]
        topo = make_deploy_topology(fleet, nodes)
        report = distribute_blobs(fleet, digests, nodes, topo,
                                  strategy="tree")
        for d in digests:
            root_pulls = [t for t in report.transfers
                          if t.digest == d and t.src.startswith("site.")]
            assert len(root_pulls) == 1
            assert root_pulls[0].src == by_shard[d]
        assert all(n.content_store.has(d) for n in nodes for d in digests)

    def test_single_registry_path_is_unchanged(self):
        registry = Registry("solo")
        registry.push("app:v1", ImageConfig(),
                      [layer("bin", b"b" * 4000)])
        digests = registry.image_blob_digests("app:v1")
        nodes = [make_machine(f"cn{i}") for i in range(4)]
        topo = make_deploy_topology(registry, nodes)
        report = distribute_blobs(registry, digests, nodes, topo,
                                  strategy="tree")
        root_srcs = {t.src for t in report.transfers
                     if not t.src.startswith("cn")}
        assert root_srcs == {"solo"}

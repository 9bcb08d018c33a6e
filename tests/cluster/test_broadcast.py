"""Daemonless blob distribution (§4.2/§6.3): binomial-tree broadcast vs
registry fan-out, plus the astra-deploy CLI that fronts it."""

import pytest

from repro.archive import TarArchive, TarMember
from repro.cluster import (
    BroadcastError,
    astra_deploy_cli,
    binomial_children,
    distribute_blobs,
    distribute_image,
    make_astra,
    make_deploy_topology,
    make_machine,
    make_world,
)
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType, Syscalls
from repro.obs import attach_tracer
from repro.sim import FaultPlan, SimEngine


def layer(name, data=b"payload"):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


@pytest.fixture
def registry():
    r = Registry("site")
    r.push("app:v1", ImageConfig(),
           [layer("bin", b"b" * 4000), layer("lib", b"l" * 2000)])
    return r


@pytest.fixture
def digests(registry):
    return registry.image_blob_digests("app:v1")


def nodes_named(n):
    return [make_machine(f"cn{i}") for i in range(n)]


class TestBinomialChildren:
    def test_single_position(self):
        assert binomial_children(1) == {0: []}

    def test_five_positions(self):
        assert binomial_children(5) == {
            0: [1, 2, 4], 1: [3], 2: [], 3: [], 4: []}

    def test_every_position_has_one_parent(self):
        children = binomial_children(8)
        served = [c for kids in children.values() for c in kids]
        assert sorted(served) == list(range(1, 8))

    def test_rounds_double_the_holders(self):
        # the root serves one child per round: log2(N) sends for the root
        assert len(binomial_children(8)[0]) == 3


class TestDistributeBlobs:
    def test_registry_direct_egress_is_o_n(self, registry, digests):
        nodes = nodes_named(8)
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="registry")
        assert rep.registry_blobs_pulled == 8 * len(digests)
        assert rep.registry_egress_bytes == 8 * rep.image_bytes
        assert rep.peer_sends == 0
        for node in nodes:
            assert all(node.content_store.has(d) for d in digests)

    def test_tree_egress_is_o_image(self, registry, digests):
        nodes = nodes_named(8)
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree")
        assert rep.registry_blobs_pulled == len(digests)
        assert rep.registry_egress_bytes == rep.image_bytes
        assert rep.peer_sends == 7 * len(digests)
        assert rep.peer_bytes == 7 * rep.image_bytes
        for node in nodes:
            assert all(node.content_store.has(d) for d in digests)

    def test_tree_makespan_beats_registry_direct(self):
        results = {}
        for strategy in ("registry", "tree"):
            r = Registry("site")
            r.push("app:v1", ImageConfig(),
                   [layer("bin", b"b" * 4000), layer("lib", b"l" * 2000)])
            nodes = nodes_named(8)
            topo = make_deploy_topology(r, nodes)
            results[strategy] = distribute_blobs(
                r, r.image_blob_digests("app:v1"), nodes, topo,
                strategy=strategy)
        assert results["tree"].makespan < results["registry"].makespan
        assert results["registry"].makespan >= 2 * results["tree"].makespan

    def test_holder_roots_the_tree(self, registry, digests):
        """A node that already has a blob serves it — the registry is
        never touched for that blob (per-blob dedup)."""
        nodes = nodes_named(4)
        blob = registry.fetch_blob(digests[0])
        nodes[2].content_store.put(blob)
        pulled_before = registry.stats.blobs_pulled
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_blobs(registry, [digests[0]], nodes, topo,
                               strategy="tree")
        assert rep.blobs_skipped == 1
        assert rep.registry_blobs_pulled == 0
        assert rep.registry_egress_bytes == 0
        assert registry.stats.blobs_pulled == pulled_before
        assert rep.peer_sends == 3  # the three needy nodes
        assert all(n.content_store.has(digests[0]) for n in nodes)

    def test_multiple_holders_root_a_forest(self):
        """Regression: with several pre-seeded holders only holders[0]
        used to serve — the rest sat idle.  Every holder now roots its
        own subtree, so more holders means a shorter makespan."""
        def run(n_holders):
            r = Registry("site")
            r.push("app:v1", ImageConfig(), [layer("bin", b"b" * 8000)])
            digest = r.image_blob_digests("app:v1")[0]
            blob = r.fetch_blob(digest)
            nodes = nodes_named(9)
            for k in range(n_holders):
                nodes[k].content_store.put(blob)
            topo = make_deploy_topology(r, nodes)
            rep = distribute_blobs(r, [digest], nodes, topo,
                                   strategy="tree")
            for n in nodes:
                assert n.content_store.has(digest)
            return rep

        one, three = run(1), run(3)
        assert three.registry_blobs_pulled == 0
        # all three holders actually served somebody
        assert {"cn0", "cn1", "cn2"} <= {t.src for t in three.transfers}
        assert three.makespan < one.makespan

    def test_all_holders_means_no_transfers(self, registry, digests):
        nodes = nodes_named(2)
        for d in digests:
            blob = registry.fetch_blob(d)
            for n in nodes:
                n.content_store.put(blob)
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree")
        assert rep.blobs_skipped == 2 * len(digests)
        assert rep.peer_sends == 0 and rep.registry_blobs_pulled == 0
        assert rep.makespan == 0.0

    def test_node_ready_covers_every_node(self, registry, digests):
        nodes = nodes_named(5)
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree")
        assert set(rep.node_ready) == {n.hostname for n in nodes}
        assert rep.makespan == max(rep.node_ready.values())
        d = rep.as_dict()
        assert d["strategy"] == "tree" and d["blobs"] == len(digests)
        assert d["transfers"] == len(rep.transfers)

    def test_unknown_strategy_rejected(self, registry, digests):
        nodes = nodes_named(2)
        topo = make_deploy_topology(registry, nodes)
        with pytest.raises(BroadcastError):
            distribute_blobs(registry, digests, nodes, topo,
                             strategy="bittorrent")

    def test_span_and_metrics_emitted(self, registry, digests):
        nodes = nodes_named(4)
        tracer = attach_tracer(nodes[0].kernel)
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree", tracer=tracer)
        spans = [s for root in tracer.roots for s in root.walk()
                 if s.kind == "broadcast"]
        assert len(spans) == 1
        assert spans[0].meta["strategy"] == "tree"
        assert spans[0].meta["makespan"] == pytest.approx(rep.makespan,
                                                          abs=1e-9)
        net = tracer.metrics.snapshot()["counters"]
        assert net["net.deploy_distributions"] == 1
        assert net["net.deploy_registry_egress_bytes"] == rep.image_bytes
        assert net["net.deploy_peer_sends"] == 3 * len(digests)

    def test_shared_engine_starts_from_its_clock(self, registry, digests):
        nodes = nodes_named(2)
        topo = make_deploy_topology(registry, nodes)
        engine = SimEngine()
        engine.clock.advance_to(10.0)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree", engine=engine)
        assert rep.started_at == 10.0
        assert all(t >= 10.0 for t in rep.node_ready.values())

    def test_registry_flake_without_a_plan_rolls_the_pull_back(
            self, registry, digests):
        """A fault injector already on the registry can fail the root's
        ``fetch_blob`` while the distribution itself has no plan: the
        pull's transfer is rolled back and retried, so the registry link
        carries the image once and every node still gets it."""
        nodes = nodes_named(4)
        topo = make_deploy_topology(registry, nodes)
        engine = SimEngine()
        registry.fault_injector = FaultPlan(seed=3).add_registry_flake(
            0.0, 0.05).injector(engine.clock)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree", engine=engine)
        assert rep.retries == len(digests)
        assert topo.link("site").stats.bytes_tx == rep.image_bytes
        assert all(node.content_store.has(d)
                   for node in nodes for d in digests)


class TestOptimizationParity:
    """The engine fast paths (bulk transmit, bucket queue, leaf-event
    coalescing) must be invisible: identical reports — every float —
    and digest-identical node stores on a fast and a reference engine
    (each built with its choice, whatever ``REPRO_SIM_REFERENCE`` says)."""

    def _run(self, strategy, *, fast, holders=0, plan=None):
        r = Registry("site")
        r.push("app:v1", ImageConfig(),
               [layer("bin", b"b" * 4000), layer("lib", b"l" * 2000)])
        ds = r.image_blob_digests("app:v1")
        nodes = nodes_named(9)
        for k in range(holders):
            nodes[k].content_store.put(r.fetch_blob(ds[0]))
        topo = make_deploy_topology(r, nodes)
        rep = distribute_blobs(r, ds, nodes, topo, strategy=strategy,
                               fault_plan=plan, engine=SimEngine(fast=fast))
        stores = {n.hostname: sorted(n.content_store.digests())
                  for n in nodes}
        return rep.as_dict(), rep.node_ready, stores

    @pytest.mark.parametrize("strategy", ["tree", "registry"])
    def test_clean_run_parity(self, strategy):
        opt = self._run(strategy, fast=True)
        ref = self._run(strategy, fast=False)
        assert opt == ref     # dict equality: exact floats, not approx

    def test_holder_forest_parity(self):
        opt = self._run("tree", fast=True, holders=3)
        ref = self._run("tree", fast=False, holders=3)
        assert opt == ref

    def test_fault_plan_disables_coalescing_but_stays_identical(self):
        """Under a live fault plan every transfer keeps its chunk
        schedule (repair may promote leaves to relays), yet the bulk
        transmit and bucket queue still apply — results must match the
        reference engine exactly, including the repaired tree."""
        def plan():
            return FaultPlan(seed=7).add_node_crash("cn1", 1e-6)

        opt = self._run("tree", fast=True, plan=plan())
        ref = self._run("tree", fast=False, plan=plan())
        assert opt == ref


class TestDistributeImage:
    def test_layers_land_on_every_node(self, registry):
        nodes = nodes_named(3)
        topo = make_deploy_topology(registry, nodes)
        rep = distribute_image(registry, "app:v1", nodes, topo)
        assert rep.blobs == 2
        for d in registry.image_blob_digests("app:v1"):
            assert all(n.content_store.has(d) for n in nodes)


class TestMakeDeployTopology:
    def test_attaches_registry_and_nodes(self, registry):
        nodes = nodes_named(2)
        topo = make_deploy_topology(registry, nodes, bandwidth=10.0)
        assert registry.netlink is topo.link("site")
        for n in nodes:
            assert n.netlink is topo.link(n.hostname)
            assert n.netlink.bandwidth == 10.0


class TestDeployCli:
    @pytest.fixture
    def astra(self):
        return make_astra(make_world(), n_compute=4)

    def write_dockerfile(self, astra):
        proc = astra.login.login("alice")
        Syscalls(proc).write_file(
            "/home/alice/Dockerfile",
            b"FROM centos:7\nRUN yum install -y atse\n")
        return "/home/alice/Dockerfile"

    def test_tree_deploy(self, astra):
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["--deploy-strategy", "tree", "--nodes", "4",
                    "-t", "app", "-f", path, "alice"])
        assert status == 0, out
        assert "distribution [tree]" in out
        assert "makespan:" in out
        assert "busiest link:" in out

    def test_strategy_off_is_rejected(self, astra):
        """Every deploy is timed: there is no untimed 'off' strategy."""
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["--deploy-strategy=off", "--nodes", "2",
                    "-t", "app", "-f", path, "alice"])
        assert status == 1
        assert "unknown strategy 'off'" in out
        assert not astra.world.site_registry.has("alice/app:latest")

    @pytest.mark.parametrize("nodes", ["0", "-2"])
    def test_node_count_below_one_rejected(self, astra, nodes):
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["--nodes", nodes, "-t", "app", "-f", path, "alice"])
        assert status == 1
        assert f"bad node count '{nodes}'" in out

    def test_node_count_above_cluster_rejected_before_build(self, astra):
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["--nodes=9", "-t", "app", "-f", path, "alice"])
        assert status == 1
        assert "bad node count 9" in out
        assert not astra.world.site_registry.has("alice/app:latest")

    @pytest.mark.parametrize("runtime", ["singularity", "docker"])
    def test_cached_rejects_other_runtimes(self, astra, runtime):
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["--cached", "--runtime", runtime,
                    "-t", "app", "-f", path, "alice"])
        assert status == 1
        assert repr(runtime) in out
        assert not astra.world.site_registry.has("alice/app:latest")

    def test_missing_required_args_prints_usage(self, astra):
        status, out = astra_deploy_cli(astra, ["alice"])
        assert status == 1 and out.startswith("usage:")

    def test_unknown_strategy(self, astra):
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["--deploy-strategy", "carrier-pigeon",
                    "-t", "app", "-f", path, "alice"])
        assert status == 1 and "unknown strategy" in out

    def test_unknown_option(self, astra):
        status, out = astra_deploy_cli(
            astra, ["--frobnicate", "-t", "a", "-f", "/x", "alice"])
        assert status == 1 and "unknown option" in out

    def test_bad_node_count(self, astra):
        status, out = astra_deploy_cli(
            astra, ["--nodes", "lots", "-t", "a", "-f", "/x", "alice"])
        assert status == 1 and "bad node count" in out

    def test_unknown_user(self, astra):
        path = self.write_dockerfile(astra)
        status, out = astra_deploy_cli(
            astra, ["-t", "app", "-f", path, "mallory"])
        assert status == 1 and "no account" in out

    def test_unreadable_dockerfile(self, astra):
        status, out = astra_deploy_cli(
            astra, ["-t", "app", "-f", "/no/such/file", "alice"])
        assert status == 1 and "can't read" in out

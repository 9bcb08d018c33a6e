"""Fault injection through the push -> broadcast -> deploy pipeline.

The acceptance invariant: any seeded fault plan that leaves the registry
reachable converges to node trees digest-identical to the fault-free run,
and the same seed reproduces the identical report twice.
"""

import pytest

from repro.archive import TarArchive, TarMember
from repro.cluster import (
    astra_deploy_cli,
    distribute_blobs,
    make_astra,
    make_deploy_topology,
    make_machine,
    make_world,
)
from repro.cluster.astra import astra_build_workflow
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType, Syscalls
from repro.sim import FaultPlan, RetryPolicy

ATSE_DOCKERFILE = """\
FROM centos:7
RUN yum install -y openmpi hdf5
RUN yum install -y atse
"""


def layer(name, data=b"payload"):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


def fresh_fabric(n_nodes=8):
    registry = Registry("site")
    registry.push("app:v1", ImageConfig(),
                  [layer("bin", b"b" * 4000), layer("lib", b"l" * 2000)])
    digests = registry.image_blob_digests("app:v1")
    nodes = [make_machine(f"cn{i}") for i in range(n_nodes)]
    topo = make_deploy_topology(registry, nodes)
    return registry, digests, nodes, topo


def node_trees(nodes):
    return {n.hostname: sorted(n.content_store.digests()) for n in nodes}


class TestFaultFreeEquivalence:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        reports = []
        for plan in (None, FaultPlan()):
            registry, digests, nodes, topo = fresh_fabric()
            rep = distribute_blobs(registry, digests, nodes, topo,
                                   strategy="tree", fault_plan=plan)
            reports.append(rep.as_dict())
        assert reports[0] == reports[1]


class TestBroadcastUnderFaults:
    def test_link_loss_converges_digest_identical(self):
        """The tentpole invariant: retried transfers land the same bytes
        the fault-free run lands, just later."""
        registry, digests, nodes, topo = fresh_fabric()
        clean = distribute_blobs(registry, digests, nodes, topo,
                                 strategy="tree")
        clean_trees = node_trees(nodes)

        plan = FaultPlan(seed=11, link_loss=0.6, horizon=0.3)
        registry, digests, nodes, topo = fresh_fabric()
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree", fault_plan=plan)
        assert rep.faults_injected > 0 and rep.retries > 0
        assert rep.backoff_seconds > 0
        assert not rep.crashed and not rep.degraded
        assert node_trees(nodes) == clean_trees
        assert rep.makespan > clean.makespan  # the faults cost time

    def test_same_seed_replays_byte_identical(self):
        def run():
            plan = FaultPlan(seed=11, link_loss=0.6, flake_rate=1.0,
                             horizon=0.3)
            registry, digests, nodes, topo = fresh_fabric()
            return distribute_blobs(registry, digests, nodes, topo,
                                    strategy="tree",
                                    fault_plan=plan).as_dict()
        assert run() == run()

    def test_relay_crash_reparents_its_subtree(self):
        """Killing a mid-tree relay must not strand its descendants: they
        re-parent onto a surviving holder and still converge."""
        registry, digests, nodes, topo = fresh_fabric(8)
        # cn0 roots the tree; cn1 relays half of it (binomial positions)
        plan = FaultPlan().add_node_crash("cn1", 1e-6)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree", fault_plan=plan)
        assert rep.crashed == ["cn1"]
        assert rep.reparented_subtrees > 0
        assert "cn1" not in rep.node_ready
        survivors = [n for n in nodes if n.hostname != "cn1"]
        for node in survivors:
            assert all(node.content_store.has(d) for d in digests)
        assert set(rep.node_ready) == {n.hostname for n in survivors}

    def test_exhausted_tree_falls_back_to_registry(self):
        """When every in-tree source for a blob is dead, the orphan pulls
        registry-direct rather than waiting forever."""
        registry, digests, nodes, topo = fresh_fabric(2)
        # cn0 pulls from the registry then dies before serving cn1; the
        # only holder is gone, so cn1 must fall back to the registry
        plan = FaultPlan().add_node_crash("cn0", 0.005)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="tree", fault_plan=plan)
        assert rep.crashed == ["cn0"]
        assert rep.registry_fallbacks > 0
        assert all(nodes[1].content_store.has(d) for d in digests)

    def test_registry_flake_retries_the_pull(self):
        registry, digests, nodes, topo = fresh_fabric(2)
        plan = FaultPlan().add_registry_flake(0.0, 0.01)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="registry", fault_plan=plan)
        assert rep.faults_injected > 0 and rep.retries > 0
        for node in nodes:
            assert all(node.content_store.has(d) for d in digests)
        # the pulls waited out the flake window
        assert all(t >= 0.01 for t in rep.node_ready.values())

    def test_retry_budget_exhaustion_degrades_the_node(self):
        registry, digests, nodes, topo = fresh_fabric(2)
        # cn1's link is down and the policy allows no retries at all
        plan = FaultPlan().add_link_down("cn1", 0.0, 1e9)
        rep = distribute_blobs(registry, digests, nodes, topo,
                               strategy="registry", fault_plan=plan,
                               retry_policy=RetryPolicy(budget=0))
        assert rep.degraded == ["cn1"]
        assert "cn1" not in rep.node_ready
        assert all(nodes[0].content_store.has(d) for d in digests)


class TestWorkflowUnderFaults:
    def run_workflow(self, plan, n=8):
        world = make_world()
        cluster = make_astra(world, n_compute=n)
        report = astra_build_workflow(cluster, "alice", ATSE_DOCKERFILE,
                                      "app", n_nodes=n, fault_plan=plan)
        return report, node_trees(cluster.scheduler.nodes)

    def test_faulty_deploy_converges_digest_identical(self):
        clean, clean_trees = self.run_workflow(None)
        assert clean.success and not clean.degraded

        plan = FaultPlan(seed=7, link_loss=0.5, flake_rate=1.0)
        faulty, trees = self.run_workflow(plan)
        assert faulty.success
        assert faulty.faults_injected > 0 and faulty.retries > 0
        assert not faulty.degraded
        assert trees == clean_trees
        assert faulty.deploy_makespan > clean.deploy_makespan

    def test_node_crash_degrades_but_survivors_succeed(self):
        plan = FaultPlan(seed=3).add_node_crash("astra-cn003", 1e-4)
        report, _ = self.run_workflow(plan)
        assert report.success          # survivors all ran
        assert report.degraded
        assert report.degraded_nodes == ["astra-cn003"]
        assert report.deploy.skipped == ["astra-cn003"]
        assert report.distribution.reparented_subtrees > 0

    def test_push_retries_through_a_flake_window(self):
        plan = FaultPlan().add_registry_flake(0.0, 0.01)
        report, _ = self.run_workflow(plan, n=2)
        assert report.push_ok and report.success
        assert report.push_attempts > 1
        assert report.retries > 0

    def test_push_backoff_books_the_wait_actually_taken(self):
        """The push waits out the whole flake window, not just the drawn
        backoff, and the distribution starts only once it has."""
        report, _ = self.run_workflow(FaultPlan.parse("flake=0:0.5"), n=2)
        assert report.success and report.push_attempts > 1
        assert report.distribution.started_at >= 0.5
        assert report.backoff_seconds == pytest.approx(
            report.distribution.started_at)

    def test_same_seed_reproduces_the_workflow_report(self):
        plan_spec = dict(seed=21, link_loss=0.4, flake_rate=1.0)
        a, trees_a = self.run_workflow(FaultPlan(**plan_spec))
        b, trees_b = self.run_workflow(FaultPlan(**plan_spec))
        assert a.distribution.as_dict() == b.distribution.as_dict()
        assert a.deploy_makespan == b.deploy_makespan
        assert a.faults_injected == b.faults_injected
        assert a.phases == b.phases
        assert trees_a == trees_b


class TestFaultCli:
    @pytest.fixture
    def cluster(self):
        world = make_world()
        cluster = make_astra(world, n_compute=4)
        alice = cluster.login.login("alice")
        Syscalls(alice).write_file("/home/alice/Dockerfile",
                                   ATSE_DOCKERFILE.encode())
        return cluster

    def test_fault_plan_flag(self, cluster):
        status, text = astra_deploy_cli(
            cluster, ["--fault-plan", "seed=7,link-loss=0.5,flake=0:0.01",
                      "--retries", "6", "-t", "app",
                      "-f", "/home/alice/Dockerfile", "alice"])
        assert status == 0, text
        assert "faults:" in text and "retries" in text

    def test_bad_fault_plan_rejected(self, cluster):
        status, text = astra_deploy_cli(
            cluster, ["--fault-plan=bogus-token", "-t", "app",
                      "-f", "/home/alice/Dockerfile", "alice"])
        assert status == 1
        assert "fault token" in text

    def test_fault_free_output_stays_quiet(self, cluster):
        status, text = astra_deploy_cli(
            cluster, ["-t", "app", "-f", "/home/alice/Dockerfile",
                      "alice"])
        assert status == 0, text
        assert "faults:" not in text

    def test_ch_image_fault_plan_needs_parallel(self):
        from repro.core.cli import ch_image_cli
        from repro.core.builder import ChImage
        world = make_world(arches=("x86_64",))
        login = make_machine("login1", network=world.network)
        alice = login.login("alice")
        Syscalls(alice).write_file("/home/alice/Dockerfile",
                                   b"FROM centos:7\nRUN echo hi\n")
        ch = ChImage(login, alice, cache=True)
        status, text = ch_image_cli(
            ch, ["build", "--fault-plan", "worker-crash=0@1e-9",
                 "-t", "app", "-f", "/home/alice/Dockerfile", "."])
        assert status == 1
        assert "--parallel" in text

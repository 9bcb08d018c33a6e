"""Cluster substrate tests: machines, scheduler, CI, Astra workflow."""

import pytest

from repro.cluster import (
    CiError,
    CiJob,
    CiServer,
    Scheduler,
    SchedulerError,
    astra_build_workflow,
    astra_cached_build_workflow,
    laptop_build_workflow,
    make_astra,
    make_machine,
    make_world,
)
from repro.cluster.astra import WorkflowError
from repro.core import ChImage
from repro.kernel import Syscalls
from tests.conftest import ATSE_DOCKERFILE


class TestMachine:
    def test_users_and_homes(self, login):
        alice = login.login("alice")
        sys = Syscalls(alice)
        assert sys.geteuid() == 1000
        assert sys.exists("/home/alice")

    def test_dev_nodes_exist(self, login):
        sys0 = login.root_sys()
        st = sys0.stat("/dev/null")
        assert st.st_rdev == (1, 3)

    def test_subids_allocated(self, login):
        assert login.shadow.subuid().entries_for("alice", 1000)

    def test_no_subids_option(self, world):
        m = make_machine("m", network=world.network, subids=False)
        assert not m.shadow.subuid().entries_for("alice", 1000)

    def test_mount_shared(self, world):
        from repro.kernel import make_nfs
        m = make_machine("m", network=world.network)
        m.mount_shared("/users", make_nfs("nfs-home"))
        res = m.kernel.init_process.mnt_ns.resolve(
            "/users", m.kernel.init_process.cred)
        assert res.fs.fstype == "nfs"


class TestScheduler:
    def test_parallel_ranks(self, world):
        nodes = [make_machine(f"cn{i}", network=world.network)
                 for i in range(4)]
        sched = Scheduler(nodes)
        result = sched.srun(
            "alice", 4,
            lambda node, rank, login: (0, f"rank {rank} on {node.hostname}\n"))
        assert result.success
        assert len(result.rank_outputs) == 4
        assert "rank 3 on cn3" in result.output

    def test_over_allocation(self, world):
        sched = Scheduler([make_machine("cn0", network=world.network)])
        with pytest.raises(SchedulerError):
            sched.srun("alice", 2, lambda n, r, l: (0, ""))

    def test_failed_rank_marks_job(self, world):
        sched = Scheduler([make_machine(f"cn{i}", network=world.network)
                           for i in range(2)])
        result = sched.srun(
            "alice", 2, lambda n, r, l: (1 if r == 1 else 0, ""))
        assert not result.success

    def test_unknown_user(self, world):
        sched = Scheduler([make_machine("cn0", network=world.network,
                                        users={"bob": 1001})])
        with pytest.raises(SchedulerError):
            sched.srun("alice", 1, lambda n, r, l: (0, ""))

    def test_no_nodes(self):
        with pytest.raises(SchedulerError):
            Scheduler([])


class TestCi:
    def test_pipeline_pass(self):
        server = CiServer()
        pipe = server.new_pipeline("app")
        pipe.stage("build").jobs.append(CiJob("compile", lambda: (0, "ok")))
        pipe.stage("test").jobs.append(CiJob("smoke", lambda: (0, "ok")))
        result = server.trigger(pipe)
        assert result.passed
        assert "passed" in result.report()

    def test_stage_gating(self):
        ran = []
        server = CiServer()
        pipe = server.new_pipeline("app")
        pipe.stage("build").jobs.append(
            CiJob("compile", lambda: (ran.append("b"), (1, "boom"))[1]))
        pipe.stage("test").jobs.append(
            CiJob("smoke", lambda: (ran.append("t"), (0, "ok"))[1]))
        result = server.trigger(pipe)
        assert not result.passed
        assert result.failed_stage == "build"
        assert ran == ["b"]  # test stage never ran

    def test_empty_stage_rejected(self):
        server = CiServer()
        pipe = server.new_pipeline("app")
        pipe.stage("build")
        with pytest.raises(CiError):
            server.trigger(pipe)

    def test_history(self):
        server = CiServer()
        for _ in range(2):
            pipe = server.new_pipeline("x")
            pipe.stage("s").jobs.append(CiJob("j", lambda: (0, "")))
            server.trigger(pipe)
        assert len(server.history) == 2


class TestAstraWorkflow:
    @pytest.fixture
    def astra(self, world_multiarch):
        return make_astra(world_multiarch, n_compute=3)

    def test_full_figure6_workflow(self, world_multiarch):
        astra = make_astra(world_multiarch, n_compute=4)
        report = astra_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                      "atse", n_nodes=4)
        assert report.success, report.phases
        assert report.layer_count == 4  # base + 3 RUN layers
        assert world_multiarch.site_registry.has("alice/atse:latest")
        for rank in range(4):
            assert f"[rank {rank}] ATSE on astra-cn{rank + 1:03d} (aarch64)" \
                in report.deploy.output

    def test_aarch64_image_produced(self, astra, world_multiarch):
        astra_build_workflow(astra, "alice", ATSE_DOCKERFILE, "atse")
        config, _ = world_multiarch.site_registry.pull("alice/atse:latest")
        assert config.arch == "aarch64"

    def test_laptop_antipattern_fails_at_deploy(self, astra):
        """§4.2: x86-64 images 'would not execute on Astra'."""
        report = laptop_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                       "atse-x86")
        assert report.build_ok  # builds fine on the laptop...
        assert report.push_ok
        assert report.phases[0] == "build on laptop (x86_64): ok"
        # ...is distributed on the timed path like any other image...
        assert report.distribution.strategy == "tree"
        assert report.deploy.makespan is not None
        assert not report.deploy.success  # ...but cannot run on Astra
        assert "Exec format error" in report.deploy.output

    def test_cached_workflow_exports_cache_and_deploys_one_image(
            self, astra, world_multiarch):
        """§6.2.2 + Fig 6: the cached build exports its instruction cache
        beside the image for the next builder, and the deploy is the
        uncached one: the tree takes one blob, the converted image, out
        of the registry and every rank runs on it."""
        report = astra_cached_build_workflow(
            astra, "alice", ATSE_DOCKERFILE, "atse", n_nodes=3)
        assert report.success, report.phases
        assert report.cache_records == 3          # one per RUN
        registry = world_multiarch.site_registry
        assert registry.cache_blob_digests("alice/atse-cache:latest")
        (digest,) = world_multiarch.network.images
        assert report.distribution.blobs == 1
        assert report.distribution.registry_blobs_pulled == 1
        assert all(node.content_store.has(digest) for node in astra.compute)
        assert report.deploy.rank_statuses == [0] * 3
        assert report.deploy_strategy == "tree"

    @pytest.mark.parametrize("n_nodes", [0, -2, 4])
    def test_bad_node_count_rejected_before_build(self, astra,
                                                  world_multiarch, n_nodes):
        """1 <= n_nodes <= the compute partition, checked before any
        phase runs (astra has 3 compute nodes)."""
        with pytest.raises(WorkflowError, match="bad node count"):
            astra_build_workflow(astra, "alice", ATSE_DOCKERFILE, "atse",
                                 n_nodes=n_nodes)
        assert not world_multiarch.site_registry.has("alice/atse:latest")
        assert astra.scheduler.completed == []

    def test_cached_workflow_bad_node_count_rejected(self, astra):
        with pytest.raises(WorkflowError, match="bad node count"):
            astra_cached_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                        "atse", n_nodes=0)

    def test_build_failure_stops_workflow(self, astra):
        report = astra_build_workflow(astra, "alice",
                                      "FROM centos:7\nRUN false\n", "broken")
        assert not report.build_ok
        assert report.deploy is None

    def test_ci_pipeline_on_compute_nodes(self, astra, world_multiarch):
        """The §5.3.3 production pattern: build + validate as CI jobs using
        normal cluster jobs."""
        server = CiServer("gitlab")
        pipe = server.new_pipeline("atse-app")

        def build_job():
            rep = astra_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                       "ci-atse", n_nodes=1)
            return (0 if rep.build_ok and rep.push_ok else 1,
                    "\n".join(rep.phases))

        def validate_job():
            def smoke(node, rank, login):
                ch = ChImage(node, login)
                path = ch.pull("gitlab.example.gov/alice/ci-atse:latest")
                from repro.core import ChRun
                res = ChRun(node, login).run(
                    path, ["/opt/atse/bin/atse-info"])
                return res.status, res.output
            result = astra.scheduler.srun("alice", 2, smoke)
            return (0 if result.success else 1, result.output)

        pipe.stage("build").jobs.append(CiJob("build-image", build_job))
        pipe.stage("validate").jobs.append(CiJob("smoke-test", validate_job))
        result = server.trigger(pipe)
        assert result.passed, result.report()

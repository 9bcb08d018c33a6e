"""The CI build farm: concurrent whole-image builds with single-flight."""

import pytest

from repro.cluster import (
    BuildFarm,
    CiError,
    CiPipeline,
    farm_build_stage,
    make_astra,
    make_machine,
    make_world,
)
from repro.cluster.astra import astra_cached_build_workflow
from repro.kernel import Syscalls

APP = """\
FROM centos:7
RUN yum install -y openmpi hdf5
RUN yum install -y atse
"""

OTHER = """\
FROM centos:7
RUN yum install -y gcc
"""


@pytest.fixture
def farm(login, alice):
    return BuildFarm(login, alice, parallelism=4, force_mode="seccomp")


class TestBuildFarm:
    def test_independent_images_build_concurrently(self, farm):
        farm.submit(tag="app", dockerfile=APP, force=True)
        farm.submit(tag="tools", dockerfile=OTHER, force=True)
        report = farm.run()
        assert report.success
        assert all(img.success for img in report.images)
        tasks = report.schedule.tasks
        assert {t.worker for t in tasks} == {0, 1}  # really overlapped
        assert report.makespan < sum(t.finish - t.start for t in tasks)

    def test_identical_images_single_flight(self, farm):
        """Two identical concurrent submissions: one executes, the other
        waits and replays warm — the acceptance-criteria inflight hit."""
        farm.submit(tag="app-a", dockerfile=APP, force=True)
        farm.submit(tag="app-b", dockerfile=APP, force=True)
        report = farm.run()
        assert report.success
        assert report.inflight_hits > 0
        assert report.cache_stats.inflight_hits > 0
        a, b = report.images
        assert not a.deduped and b.deduped
        # the follower's replay was pure cache hits, and both tags exist
        assert b.result.cache_hits == a.result.cache_hits + 2
        for tag in ("app-a", "app-b"):
            assert farm.builder.storage.path_of(tag)

    def test_different_dockerfiles_do_not_collide(self, farm):
        farm.submit(tag="a", dockerfile=APP, force=True)
        farm.submit(tag="b", dockerfile=OTHER, force=True)
        report = farm.run()
        assert report.inflight_hits == 0

    def test_run_is_idempotent(self, farm):
        farm.submit(tag="a", dockerfile=OTHER, force=True)
        assert farm.run() is farm.run()

    def test_submit_after_run_rejected(self, farm):
        farm.submit(tag="a", dockerfile=OTHER, force=True)
        farm.run()
        with pytest.raises(CiError, match="already ran"):
            farm.submit(tag="b", dockerfile=OTHER, force=True)

    def test_failed_image_does_not_sink_the_batch(self, farm):
        farm.submit(tag="bad", dockerfile="FROM nope-such-image:1\n")
        farm.submit(tag="good", dockerfile=OTHER, force=True)
        report = farm.run()
        assert not report.success
        bad, good = report.images
        assert not bad.success and good.success


#: shares APP's first RUN (same Merkle prefix), diverges on the second
APP_VARIANT = """\
FROM centos:7
RUN yum install -y openmpi hdf5
RUN yum install -y gcc
"""


class TestPerImageStats:
    """Cache hit/miss/store attribution per submitted image: which image
    filled the shared cache and which one rode it."""

    def test_attribution_across_prefix_sharing_and_duplicates(self, farm):
        farm.submit(tag="a", dockerfile=APP, force=True)
        farm.submit(tag="b", dockerfile=APP_VARIANT, force=True)
        farm.submit(tag="c", dockerfile=APP, force=True)  # duplicate of a
        report = farm.run()
        assert report.success
        stats = report.per_image_stats()
        # a builds cold: both RUNs miss and store
        assert stats["a"]["misses"] == 2 and stats["a"]["stores"] == 2
        assert stats["a"]["hits"] == 0
        # b shares a's first RUN, pays only for its divergent tail
        assert stats["b"]["hits"] == 1
        assert stats["b"]["misses"] == 1 and stats["b"]["stores"] == 1
        # c is a's single-flight follower: warm replay, zero new work
        assert stats["c"]["hits"] == 2
        assert stats["c"]["misses"] == 0 and stats["c"]["stores"] == 0
        assert stats["c"]["inflight_hits"] == 1
        assert report.images[2].deduped

    def test_slices_sum_to_the_aggregate(self, farm):
        farm.submit(tag="a", dockerfile=APP, force=True)
        farm.submit(tag="b", dockerfile=APP_VARIANT, force=True)
        report = farm.run()
        stats = report.per_image_stats()
        for key in ("hits", "misses", "stores"):
            assert sum(s[key] for s in stats.values()) == \
                getattr(report.cache_stats, key)

    def test_priority_breaks_fifo_ties(self, login, alice):
        farm = BuildFarm(login, alice, parallelism=1,
                         force_mode="seccomp")
        farm.submit(tag="late", dockerfile=OTHER, force=True,
                    priority=10)
        farm.submit(tag="early", dockerfile=APP, force=True, priority=0)
        report = farm.run()
        assert report.success
        by_tag = {t.name: t for t in report.schedule.tasks}
        assert by_tag["early"].start <= by_tag["late"].start


class TestFarmFaults:
    def test_worker_crash_requeues_the_stage(self, login, alice):
        """A crashed worker's image requeues onto a survivor and the batch
        still converges."""
        from repro.sim import FaultPlan
        plan = FaultPlan().add_worker_crash(0, 1e-9)
        farm = BuildFarm(login, alice, parallelism=2,
                         force_mode="seccomp", fault_plan=plan)
        farm.submit(tag="app", dockerfile=APP, force=True)
        farm.submit(tag="tools", dockerfile=OTHER, force=True)
        report = farm.run()
        assert report.success, [i.result and i.result.error
                                for i in report.images]
        assert report.degraded
        assert report.worker_crashes == 1
        assert report.requeues >= 1
        assert report.attempts > len(report.images)
        for tag in ("app", "tools"):
            assert farm.builder.storage.path_of(tag)

    def test_killing_the_leader_promotes_a_waiter(self, login, alice):
        """The single-flight deadlock case: the leader's worker dies while
        a waiter is parked behind its flight.  The waiter must be woken
        and promoted, never left waiting on a result that cannot come."""
        from repro.sim import FaultPlan
        plan = FaultPlan().add_worker_crash(0, 1e-9)
        farm = BuildFarm(login, alice, parallelism=2,
                         force_mode="seccomp", fault_plan=plan)
        farm.submit(tag="app-a", dockerfile=APP, force=True)
        farm.submit(tag="app-b", dockerfile=APP, force=True)
        report = farm.run()   # terminating at all proves no deadlock
        assert report.success
        assert report.worker_crashes == 1 and report.requeues >= 1
        for tag in ("app-a", "app-b"):
            assert farm.builder.storage.path_of(tag)

    def test_crash_budget_exhaustion_fails_the_task(self, login, alice):
        from repro.sim import FaultPlan
        plan = FaultPlan().add_worker_crash(0, 1e-9)
        farm = BuildFarm(login, alice, parallelism=2,
                         force_mode="seccomp", fault_plan=plan,
                         retry_budget=0)
        farm.submit(tag="app", dockerfile=APP, force=True)
        farm.submit(tag="tools", dockerfile=OTHER, force=True)
        report = farm.run()
        assert not report.success
        assert any(t.error for t in report.schedule.tasks)

    def test_all_workers_crashed_raises(self, login, alice):
        from repro.core.build_graph import BuildGraphError
        from repro.sim import FaultPlan
        plan = FaultPlan().add_worker_crash(0, 1e-9)
        farm = BuildFarm(login, alice, parallelism=1,
                         force_mode="seccomp", fault_plan=plan)
        farm.submit(tag="app", dockerfile=OTHER, force=True)
        with pytest.raises(BuildGraphError, match="crashed"):
            farm.run()


class TestFarmInPipeline:
    def test_farm_build_stage(self, login, alice):
        farm = BuildFarm(login, alice, parallelism=2, force_mode="seccomp")
        farm.submit(tag="app-a", dockerfile=APP, force=True)
        farm.submit(tag="app-b", dockerfile=APP, force=True)
        pipe = CiPipeline("nightly")
        farm_build_stage(pipe, farm)
        result = pipe.run()
        assert result.passed, result.report()
        outputs = [j.output for j in pipe.stages[0].jobs]
        assert any("single-flight" in o for o in outputs)

    def test_empty_farm_rejected(self, login, alice):
        farm = BuildFarm(login, alice)
        with pytest.raises(CiError, match="no submitted images"):
            farm_build_stage(CiPipeline("p"), farm)

    def test_failure_reported_per_job(self, login, alice):
        farm = BuildFarm(login, alice, force_mode="seccomp")
        farm.submit(tag="bad", dockerfile="FROM nope-such-image:1\n")
        pipe = CiPipeline("p")
        farm_build_stage(pipe, farm)
        result = pipe.run()
        assert not result.passed
        assert "FAILED" in pipe.stages[0].jobs[0].output


MULTISTAGE_ATSE = """\
FROM centos:7 AS deps
RUN yum install -y openmpi hdf5

FROM centos:7 AS toolchain
RUN yum install -y gcc

FROM deps
COPY --from=toolchain /etc/os-release /toolchain-marker
RUN yum install -y atse
"""


class TestAstraParallelBuild:
    def test_workflow_reports_build_makespan(self):
        world = make_world()
        cluster = make_astra(world, n_compute=2)
        report = astra_cached_build_workflow(
            cluster, "alice", MULTISTAGE_ATSE, "atse",
            build_parallelism=3)
        assert report.success, report.phases
        assert report.build_parallelism == 3
        assert report.build_makespan > 0.0
        assert 0.0 < report.build_critical_path <= report.build_makespan
        assert any("parallel 3" in p for p in report.phases)

    def test_workflow_default_stays_sequential(self):
        world = make_world()
        cluster = make_astra(world, n_compute=2)
        report = astra_cached_build_workflow(
            cluster, "alice", MULTISTAGE_ATSE, "atse")
        assert report.success, report.phases
        assert report.build_parallelism == 1
        assert report.build_makespan == 0.0

    def test_cli_parallelism_flag(self):
        world = make_world()
        cluster = make_astra(world, n_compute=2)
        from repro.cluster.cli import astra_deploy_cli
        alice = cluster.login.login("alice")
        Syscalls(alice).write_file("/home/alice/Dockerfile",
                                   MULTISTAGE_ATSE.encode())
        status, text = astra_deploy_cli(
            cluster, ["--cached", "--parallelism", "2", "-t", "atse",
                      "-f", "/home/alice/Dockerfile", "alice"])
        assert status == 0, text
        assert "build makespan:" in text

    def test_cli_parallelism_requires_cached(self):
        world = make_world()
        cluster = make_astra(world, n_compute=2)
        from repro.cluster.cli import astra_deploy_cli
        alice = cluster.login.login("alice")
        Syscalls(alice).write_file("/home/alice/Dockerfile",
                                   MULTISTAGE_ATSE.encode())
        status, text = astra_deploy_cli(
            cluster, ["--parallelism", "2", "-t", "atse",
                      "-f", "/home/alice/Dockerfile", "alice"])
        assert status == 1
        assert "--cached" in text

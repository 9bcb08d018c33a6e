"""Scheduler accounting, failure paths, and the §3.1 shell-descent
invariant — in both sequential and simulated-parallel modes."""

import pytest

from repro.cluster import JobResult, Scheduler, SchedulerError, make_machine
from repro.sim import SimEngine


@pytest.fixture
def nodes(world):
    return [make_machine(f"cn{i}", network=world.network) for i in range(4)]


class TestAccounting:
    def test_multi_job_bookkeeping(self, nodes):
        sched = Scheduler(nodes)
        r1 = sched.srun("alice", 2, lambda n, r, l: (0, f"{r};"))
        r2 = sched.srun("bob", 4, lambda n, r, l: (0, ""))
        assert (r1.job_id, r2.job_id) == (1, 2)
        assert [j.job_id for j in sched.completed] == [1, 2]
        assert r1.output == "0;1;"
        assert r1.nodes == [n.hostname for n in nodes[:2]]

    def test_partial_allocation_leaves_nodes_free(self, nodes):
        sched = Scheduler(nodes)
        seen_free = []
        ran_on = []

        def fn(node, rank, login):
            ran_on.append(node.hostname)
            seen_free.append(set(sched.free_nodes()))
            return 0, ""

        sched.srun("alice", 2, fn)
        assert ran_on == ["cn0", "cn1"]
        # while the job ran, exactly the unallocated nodes were free
        assert seen_free == [{"cn2", "cn3"}] * 2
        assert set(sched.free_nodes()) == {n.hostname for n in nodes}

    def test_failed_status_does_not_raise(self, nodes):
        sched = Scheduler(nodes)
        result = sched.srun("alice", 2,
                            lambda n, r, l: (1 if r == 1 else 0, ""))
        assert not result.success
        assert result.rank_statuses == [0, 1]

    def test_success_requires_every_rank_status(self):
        partial = JobResult(1, ["cn0", "cn1"], ["out"], [0])
        assert not partial.success
        failed = JobResult(1, ["cn0"], [""], [0], error="boom")
        assert not failed.success


class TestFailurePropagation:
    def test_exception_records_partial_result(self, nodes):
        sched = Scheduler(nodes)

        def fn(node, rank, login):
            if rank == 1:
                raise RuntimeError("rank 1 exploded")
            return 0, f"rank {rank} ok\n"

        with pytest.raises(RuntimeError):
            sched.srun("alice", 3, fn)
        assert len(sched.completed) == 1
        partial = sched.completed[0]
        assert partial.error == "rank 1 exploded"
        assert not partial.success
        assert partial.rank_outputs == ["rank 0 ok\n"]  # rank 0 did run
        assert partial.nodes == ["cn0", "cn1", "cn2"]   # allocation on record
        # ...and the allocation was released despite the abort
        assert set(sched.free_nodes()) == {n.hostname for n in nodes}

    def test_missing_account_fails_mid_job(self, world):
        machines = [make_machine("cn0", network=world.network),
                    make_machine("cn1", network=world.network,
                                 users={"bob": 1001})]
        sched = Scheduler(machines)
        with pytest.raises(SchedulerError, match="no account"):
            sched.srun("alice", 2, lambda n, r, l: (0, "ran\n"))
        partial = sched.completed[0]
        assert partial.rank_outputs == ["ran\n"]  # rank 0 completed first

    @pytest.mark.parametrize("count", [0, -2, 5])
    def test_node_count_outside_partition_rejected(self, nodes, count):
        sched = Scheduler(nodes)
        with pytest.raises(SchedulerError, match="requested"):
            sched.srun("alice", count, lambda n, r, l: (0, ""))
        assert sched.completed == []

    def test_unknown_mode_rejected(self, nodes):
        with pytest.raises(SchedulerError):
            Scheduler(nodes).srun("alice", 1, lambda n, r, l: (0, ""),
                                  mode="threads")


class TestShellDescentInvariant:
    """§3.1: job processes must descend from the user's login shell.
    The check must *raise* — a bare assert disappears under python -O."""

    def test_violation_raises_scheduler_error(self, nodes):
        def daemonize(node, rank, login):
            # sever the job from the login shell, as a daemon-spawned
            # process tree would be
            del node.kernel.processes[login.pid]
            return 0, ""

        sched = Scheduler(nodes)
        with pytest.raises(SchedulerError, match="3.1") as excinfo:
            sched.srun("alice", 1, daemonize)
        # an AssertionError would vanish under `python -O`; this survives
        assert not isinstance(excinfo.value, AssertionError)

    def test_violation_raises_in_simulated_mode(self, nodes):
        def daemonize(node, rank, login):
            del node.kernel.processes[login.pid]
            return 0, ""

        sched = Scheduler(nodes)
        with pytest.raises(SchedulerError, match="descend"):
            sched.srun("alice", 2, daemonize, mode="simulated")
        assert sched.completed[0].error  # partial result still recorded

    def test_compliant_job_passes_both_modes(self, nodes):
        sched = Scheduler(nodes)
        fn = lambda n, r, l: (0, "ok")
        assert sched.srun("alice", 2, fn).success
        assert sched.srun("alice", 2, fn, mode="simulated").success


class TestSimulatedMode:
    def test_sequential_mode_has_no_makespan(self, nodes):
        result = Scheduler(nodes).srun("alice", 2, lambda n, r, l: (0, ""))
        assert result.mode == "sequential"
        assert result.makespan is None

    def test_rank_ready_sequence_sets_starts(self, nodes):
        sched = Scheduler(nodes)
        result = sched.srun("alice", 2, lambda n, r, l: (0, ""),
                            mode="simulated", rank_ready=[0.0, 1.5])
        assert result.mode == "simulated"
        assert result.rank_starts == [0.0, 1.5]
        assert result.makespan == pytest.approx(1.5, abs=1e-6)
        assert all(f >= s for s, f in
                   zip(result.rank_starts, result.rank_finishes))

    def test_rank_ready_mapping_by_hostname(self, nodes):
        sched = Scheduler(nodes)
        result = sched.srun("alice", 3, lambda n, r, l: (0, ""),
                            mode="simulated",
                            rank_ready={"cn1": 2.0})
        # starts record event order: the two t=0 ranks fire before cn1
        assert result.rank_starts == [0.0, 0.0, 2.0]
        assert result.makespan == pytest.approx(2.0, abs=1e-6)

    def test_compute_cost_scales_with_ticks(self, nodes):
        sched = Scheduler(nodes)

        def busy(node, rank, login):
            from repro.kernel import Syscalls
            sys = Syscalls(login)
            for i in range(10):
                sys.write_file(f"/tmp/f{i}", b"x")
            return 0, ""

        result = sched.srun("alice", 1, busy, mode="simulated",
                            tick_seconds=1.0)
        assert result.rank_finishes[0] - result.rank_starts[0] >= 10.0

    def test_shared_engine_interleaves_with_other_events(self, nodes):
        engine = SimEngine()
        order = []
        engine.at(0.5, order.append, "external")
        sched = Scheduler(nodes)
        result = sched.srun(
            "alice", 2, lambda n, r, l: (order.append(f"rank{r}"), (0, ""))[1],
            mode="simulated", sim=engine, rank_ready=[0.0, 1.0])
        assert order == ["rank0", "external", "rank1"]
        assert result.success

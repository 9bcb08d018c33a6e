"""The build-graph scheduler: deterministic DAG execution on the sim clock.

Costs here use a fake tick counter with ``tick_seconds=1.0`` so the
virtual-time arithmetic is exact and readable.
"""

import pytest

from repro.cas import BuildCache
from repro.core import BuildGraphError, BuildGraphScheduler


class FakeTicks:
    """A controllable kernel-tick counter."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def costing(ticks: FakeTicks, cost: int, value=True):
    """A task fn that burns *cost* fake ticks and returns *value*."""
    def fn():
        ticks.now += cost
        return value
    return fn


def diamond(scheduler, ticks, costs=(10, 30, 20, 5)):
    """base -> (left, right) -> final, with the given tick costs."""
    base = scheduler.add_task("base", costing(ticks, costs[0]))
    left = scheduler.add_task("left", costing(ticks, costs[1]), deps=[base])
    right = scheduler.add_task("right", costing(ticks, costs[2]),
                               deps=[base])
    scheduler.add_task("final", costing(ticks, costs[3]),
                       deps=[left, right])
    return scheduler.run()


class TestScheduling:
    def test_parallel_overlaps_independent_stages(self):
        ticks = FakeTicks()
        report = diamond(BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                             ticks=ticks), ticks)
        # left (30) and right (20) overlap: 10 + max(30, 20) + 5
        assert report.success
        assert report.makespan == 45.0
        assert report.critical_path == 45.0
        assert report.critical_path_tasks == ["base", "left", "final"]
        assert report.serial_time == 65.0

    def test_sequential_is_the_serial_sum(self):
        ticks = FakeTicks()
        report = diamond(BuildGraphScheduler(parallelism=1, tick_seconds=1.0,
                                             ticks=ticks), ticks)
        assert report.makespan == 65.0
        assert report.critical_path == 45.0  # the floor parallelism hits
        assert report.speedup == 1.0

    def test_queue_wait_accounting(self):
        """With one worker, right waits while left holds the worker."""
        ticks = FakeTicks()
        report = diamond(BuildGraphScheduler(parallelism=1, tick_seconds=1.0,
                                             ticks=ticks), ticks)
        by_name = {t.name: t for t in report.tasks}
        assert by_name["right"].queue_wait == 30.0  # parked 10..40
        assert by_name["left"].queue_wait == 0.0
        assert report.queue_wait_total == 30.0

    def test_fifo_ties_are_deterministic(self):
        """Equal ready times dispatch in priority (insertion) order."""
        for _ in range(3):
            ticks = FakeTicks()
            sched = BuildGraphScheduler(parallelism=1, tick_seconds=1.0,
                                        ticks=ticks)
            for name in ("a", "b", "c"):
                sched.add_task(name, costing(ticks, 10))
            report = sched.run()
            starts = [(t.name, t.start) for t in report.tasks]
            assert starts == [("a", 0.0), ("b", 10.0), ("c", 20.0)]

    def test_priority_overrides_insertion_order(self):
        ticks = FakeTicks()
        sched = BuildGraphScheduler(parallelism=1, tick_seconds=1.0,
                                    ticks=ticks)
        sched.add_task("a", costing(ticks, 10), priority=2)
        sched.add_task("b", costing(ticks, 10), priority=1)
        report = sched.run()
        by_name = {t.name: t for t in report.tasks}
        assert by_name["b"].start < by_name["a"].start

    def test_zero_cost_tasks_complete(self):
        ticks = FakeTicks()
        sched = BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                    ticks=ticks)
        sched.add_task("noop", costing(ticks, 0))
        report = sched.run()
        assert report.success and report.makespan == 0.0


class TestFailures:
    def test_failure_skips_dependents(self):
        ticks = FakeTicks()
        sched = BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                    ticks=ticks)
        bad = sched.add_task("bad", costing(ticks, 10, value=False),
                             ok=bool)
        sched.add_task("child", costing(ticks, 10), deps=[bad])
        report = sched.run()
        assert not report.success
        by_name = {t.name: t for t in report.tasks}
        assert by_name["bad"].state == "failed"
        assert by_name["child"].state == "skipped"

    def test_exception_is_a_failure_not_a_crash(self):
        ticks = FakeTicks()
        sched = BuildGraphScheduler(parallelism=1, tick_seconds=1.0,
                                    ticks=ticks)

        def boom():
            raise RuntimeError("kaboom")

        sched.add_task("boom", boom)
        report = sched.run()
        assert not report.success
        assert "kaboom" in report.tasks[0].error

    def test_no_fail_fast_keeps_independents_running(self):
        ticks = FakeTicks()
        sched = BuildGraphScheduler(parallelism=1, tick_seconds=1.0,
                                    ticks=ticks, fail_fast=False)
        sched.add_task("bad", costing(ticks, 10, value=False), ok=bool)
        sched.add_task("good", costing(ticks, 10))
        report = sched.run()
        by_name = {t.name: t for t in report.tasks}
        assert by_name["bad"].state == "failed"
        assert by_name["good"].state == "done"


class TestApiErrors:
    def test_bad_parallelism(self):
        with pytest.raises(BuildGraphError, match="parallelism"):
            BuildGraphScheduler(parallelism=0)

    def test_forward_dependency_rejected(self):
        sched = BuildGraphScheduler(parallelism=1)
        with pytest.raises(BuildGraphError, match="topological"):
            sched.add_task("x", lambda: True, deps=[0])

    def test_one_shot(self):
        sched = BuildGraphScheduler(parallelism=1)
        sched.add_task("x", lambda: True)
        sched.run()
        with pytest.raises(BuildGraphError, match="already ran"):
            sched.run()


class TestSingleFlight:
    def test_identical_keys_dedupe(self):
        """The follower parks behind the leader, then replays warm."""
        ticks = FakeTicks()
        cache = BuildCache()
        sched = BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                    ticks=ticks, cache=cache)
        sched.add_task("leader", costing(ticks, 10), flight_key="k")
        sched.add_task("follower", costing(ticks, 1), flight_key="k")
        report = sched.run()
        assert report.success
        by_name = {t.name: t for t in report.tasks}
        assert not by_name["leader"].deduped
        assert by_name["follower"].deduped
        # the follower only starts once the leader's flight lands
        assert by_name["follower"].start == by_name["leader"].finish
        assert report.inflight_hits == 1
        assert cache.stats.inflight_hits == 1

    def test_follower_frees_its_worker(self):
        """Parking must not hold a worker slot hostage."""
        ticks = FakeTicks()
        cache = BuildCache()
        sched = BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                    ticks=ticks, cache=cache)
        sched.add_task("leader", costing(ticks, 10), flight_key="k")
        sched.add_task("follower", costing(ticks, 1), flight_key="k")
        sched.add_task("other", costing(ticks, 10))
        report = sched.run()
        by_name = {t.name: t for t in report.tasks}
        # "other" runs beside the leader instead of behind the parked twin
        assert by_name["other"].start == 0.0
        assert report.makespan == 11.0

    def test_distinct_keys_do_not_dedupe(self):
        ticks = FakeTicks()
        cache = BuildCache()
        sched = BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                    ticks=ticks, cache=cache)
        sched.add_task("a", costing(ticks, 10), flight_key="ka")
        sched.add_task("b", costing(ticks, 10), flight_key="kb")
        report = sched.run()
        assert report.inflight_hits == 0

    def test_no_cache_no_dedup(self):
        ticks = FakeTicks()
        sched = BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                    ticks=ticks)
        sched.add_task("a", costing(ticks, 10), flight_key="k")
        sched.add_task("b", costing(ticks, 10), flight_key="k")
        report = sched.run()
        assert report.inflight_hits == 0


class TestReport:
    def test_as_dict_round_trips(self):
        ticks = FakeTicks()
        report = diamond(BuildGraphScheduler(parallelism=2, tick_seconds=1.0,
                                             ticks=ticks), ticks)
        d = report.as_dict()
        assert d["parallelism"] == 2
        assert d["makespan"] == 45.0
        assert len(d["tasks"]) == 4
        assert d["speedup"] == pytest.approx(65.0 / 45.0)

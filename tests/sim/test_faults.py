"""Deterministic fault injection: seeded plans, retry/backoff, and the
rollback guarantees retried transfers depend on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, TransientError
from repro.sim import (
    FaultPlan,
    FaultPlanError,
    NS_PER_S,
    NetLink,
    RetryPolicy,
    SimClock,
    TransientTransferError,
    faulty_transmit,
    link_restore,
    link_snapshot,
    retry_call,
    transmit,
)


def links(n, *, bandwidth=100.0, latency=0):
    return [NetLink(f"l{i}", bandwidth=bandwidth, latency=latency)
            for i in range(n)]


class TestFaultPlanParse:
    def test_explicit_tokens(self):
        plan = FaultPlan.parse(
            "seed=7,horizon=2.0,link-loss=0.25,down=cn1@0.1:0.2,"
            "slow=cn2@0.0:1.0*0.5,crash=cn3@0.4,flake=0.0:0.05,"
            "worker-crash=1@0.3")
        assert plan.seed == 7 and plan.horizon == 2.0
        assert plan.link_loss == 0.25
        assert plan.down_window("cn1", 0.15, 0.18) == (0.1, 0.2)
        assert plan.bandwidth_factor("cn2", 0.5) == 0.5
        assert plan.crash_time("cn3") == 0.4
        assert plan.flake_window(0.01) == (0.0, 0.05)
        assert plan.worker_crash_time(1) == 0.3

    def test_empty_spec_is_empty_plan(self):
        assert FaultPlan.parse(None).empty
        assert FaultPlan.parse("").empty
        assert not FaultPlan.parse("down=cn1@0:1").empty

    def test_bad_tokens_rejected(self):
        for spec in ("bogus=1", "no-equals", "down=cn1@x:y",
                     "flake=1.0:0.5", "slow=cn1@0:1*2.0"):
            with pytest.raises(FaultPlanError):
                FaultPlan.parse(spec)

    def test_fault_plan_error_is_a_repro_error(self):
        assert issubclass(FaultPlanError, ReproError)


class TestFaultPlanBind:
    def test_bind_is_order_independent(self):
        names = [f"cn{i}" for i in range(12)]
        a = FaultPlan(seed=3, link_loss=0.5, slow_rate=0.5,
                      crash_rate=0.3).bind(names)
        b = FaultPlan(seed=3, link_loss=0.5, slow_rate=0.5,
                      crash_rate=0.3).bind(reversed(names))
        assert a.as_dict() == b.as_dict()

    def test_bind_is_idempotent(self):
        plan = FaultPlan(seed=3, link_loss=1.0)
        plan.bind(["cn0"]).bind(["cn0"])
        assert len(plan.as_dict()["down"]["cn0"]) == 1

    def test_different_seeds_differ(self):
        names = [f"cn{i}" for i in range(16)]
        a = FaultPlan(seed=1, link_loss=0.5).bind(names)
        b = FaultPlan(seed=2, link_loss=0.5).bind(names)
        assert a.as_dict() != b.as_dict()

    def test_registry_never_crashes(self):
        plan = FaultPlan(seed=5, crash_rate=1.0, flake_rate=1.0)
        plan.bind_registry("site")
        assert plan.crash_time("site") is None
        assert plan.as_dict()["flakes"]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 20))
    def test_every_seeded_plan_replays_byte_identical(self, seed, n):
        """The replayability contract: same seed + same name set means a
        byte-identical schedule, however many times it is materialized."""
        names = [f"cn{i:03d}" for i in range(n)]
        def build():
            return (FaultPlan(seed=seed, link_loss=0.4, slow_rate=0.3,
                              crash_rate=0.2, flake_rate=0.5)
                    .bind(names).bind_registry("site").as_dict())
        assert build() == build()


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        p = RetryPolicy(seed=9)
        assert p.backoff(3, "push") == p.backoff(3, "push")
        assert p.backoff(3, "push") != p.backoff(3, "pull")

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.5,
                        jitter=0.0)
        delays = [p.backoff(a) for a in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_bounded(self):
        p = RetryPolicy(base_delay=1.0, factor=1.0, max_delay=1.0,
                        jitter=0.25, seed=4)
        for attempt in range(20):
            d = p.backoff(attempt, "k")
            assert 0.75 <= d <= 1.25


class TestFaultyTransmit:
    def test_no_plan_matches_plain_transmit(self):
        a1, b1 = links(2)
        a2, b2 = links(2)
        t1 = transmit(a1, b1, 500, chunk_size=100, available=0)
        t2 = faulty_transmit(None, a2, b2, 500, chunk_size=100,
                             available=0)
        assert (t1.start, t1.end) == (t2.start, t2.end)
        assert link_snapshot(a1) == link_snapshot(a2)

    def test_down_window_aborts_and_rolls_back(self):
        a, b = links(2)
        before_a, before_b = link_snapshot(a), link_snapshot(b)
        plan = FaultPlan().add_link_down("l1", 0.0, 10.0)
        with pytest.raises(TransientTransferError) as exc:
            faulty_transmit(plan, a, b, 500, chunk_size=100, available=0)
        assert exc.value.retry_at == 10.0
        # a retry must not see the aborted attempt's bytes or reservations
        assert link_snapshot(a) == before_a
        assert link_snapshot(b) == before_b

    def test_transfer_outside_window_succeeds(self):
        a, b = links(2)
        plan = FaultPlan().add_link_down("l1", 50.0, 60.0)
        t = faulty_transmit(plan, a, b, 500, chunk_size=100, available=0)
        assert t.end == 5 * NS_PER_S
        assert a.stats.bytes_tx == 500

    def test_slow_window_stretches_the_transfer(self):
        a, b = links(2)
        plan = FaultPlan().add_slow_link("l0", 0.0, 100.0, 0.5)
        t = faulty_transmit(plan, a, b, 500, chunk_size=100,
                            available=0, now=0.0)
        assert t.end == 10 * NS_PER_S  # half bandwidth, double time
        # the degradation is transient: bandwidth itself is restored
        assert a.bandwidth == 100.0

    def test_attempt_timeout_aborts_with_rollback(self):
        a, b = links(2)
        before = link_snapshot(a)
        plan = FaultPlan().add_slow_link("l0", 0.0, 100.0, 0.1)
        with pytest.raises(TransientTransferError):
            faulty_transmit(plan, a, b, 500, chunk_size=100,
                            available=0, now=0.0, attempt_timeout=20.0)
        assert link_snapshot(a) == before

    def test_link_restore_round_trip(self):
        a, b = links(2)
        snap = link_snapshot(a)
        stats = a.stats
        transmit(a, b, 300, chunk_size=100, available=0)
        assert a.stats.bytes_tx == 300
        link_restore(a, snap)
        assert a.stats.bytes_tx == 0
        assert a.stats is stats  # restored in place, not replaced


class TestRetryCall:
    def test_retries_until_success_advancing_the_clock(self):
        clock = SimClock()
        fails = {"n": 3}
        seen = []

        def op(attempt):
            if fails["n"]:
                fails["n"] -= 1
                raise TransientError("flaky", retry_at=0.2)
            return "done"

        result = retry_call(
            op, policy=RetryPolicy(budget=5, jitter=0.0, base_delay=0.01),
            clock=clock, key="t",
            on_retry=lambda a, d, e: seen.append(a))
        assert result == "done"
        assert seen == [0, 1, 2]
        assert clock.now >= 0.2  # waited out the fault window

    def test_budget_exhaustion_reraises(self):
        def op(attempt):
            raise TransientError("always down")

        with pytest.raises(TransientError):
            retry_call(op, policy=RetryPolicy(budget=2, jitter=0.0,
                                              base_delay=0.01))

    def test_non_transient_errors_pass_through(self):
        def op(attempt):
            raise ValueError("real bug")

        with pytest.raises(ValueError):
            retry_call(op, policy=RetryPolicy(budget=5))

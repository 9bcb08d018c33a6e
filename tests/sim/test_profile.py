"""The engine's event counts: ``sim.event.<category>`` counters that
replay identically and never perturb the schedule."""

import functools
import json

from repro.obs.metrics import CounterRegistry
from repro.sim import EVENT, SimEngine, category_of, top_events


class TestCategoryOf:
    def test_function_qualname(self):
        def handler():
            pass
        assert category_of(handler) == \
            "TestCategoryOf.test_function_qualname.<locals>.handler"

    def test_bound_method_qualname(self):
        class Cast:
            def serve(self):
                pass
        assert category_of(Cast().serve).endswith("Cast.serve")

    def test_partial_unwraps_to_the_inner_callable(self):
        def handler(a, b):
            pass
        wrapped = functools.partial(functools.partial(handler, 1), 2)
        assert category_of(wrapped).endswith("handler")

    def test_callable_instance_falls_back_to_type_name(self):
        class Ticker:
            def __call__(self):
                pass
        assert category_of(Ticker()) == "Ticker"


def _counted(*fns):
    """A registry holding one ``sim.event.<category>`` count per call."""
    counters = CounterRegistry()
    for fn in fns:
        counters.count(EVENT + category_of(fn))
    return counters


class TestEngineProfile:
    def test_counts_by_category(self):
        def a():
            pass

        def b():
            pass
        counters = _counted(a, a, b)
        assert counters.snapshot() == {EVENT + category_of(a): 2,
                                       EVENT + category_of(b): 1}
        assert top_events(counters) == [(category_of(a), 2),
                                        (category_of(b), 1)]

    def test_top_is_deterministic(self):
        counters = CounterRegistry()
        for name in ("beta", "alpha", "gamma", "alpha", "beta"):
            counters.count(EVENT + name)
        counters.count("cache.hit", 9)   # not an engine event
        # count-desc, then name: the tie between alpha and beta sorts
        # alphabetically every run
        assert top_events(counters, 2) == [("alpha", 2), ("beta", 2)]
        assert top_events(counters) == [("alpha", 2), ("beta", 2),
                                         ("gamma", 1)]

    def test_as_dict_is_sorted_and_json_friendly(self):
        def z():
            pass

        def a():
            pass
        snap = _counted(z, a).snapshot()
        assert list(snap) == sorted(snap)
        assert json.loads(json.dumps(snap)) == snap


class TestEngineIntegration:
    def test_profile_rides_the_run_loop(self):
        counters = CounterRegistry()
        engine = SimEngine(counters=counters)
        seen = []

        class Job:
            def tick(self, n):
                seen.append(n)
                if n < 3:
                    engine.after(2.0, self.tick, n + 1)

        job = Job()
        engine.at(1.0, job.tick, 1)
        engine.at(1.0, job.tick, 3)   # same-timestamp: counted all the same
        engine.run()
        assert seen == [1, 3, 2, 3]
        assert counters.snapshot() == {
            "sim.event.TestEngineIntegration."
            "test_profile_rides_the_run_loop.<locals>.Job.tick": 4}
        assert engine.events_processed == 4

    def test_profiling_does_not_change_the_schedule(self):
        def run(counters):
            engine = SimEngine(counters=counters)
            order = []
            engine.at(2.0, order.append, "b")
            engine.at(1.0, order.append, "a")
            engine.at(1.0, order.append, "a2")
            end = engine.run()
            return order, end

        bare = run(None)
        counters = CounterRegistry()
        assert run(counters) == bare
        assert top_events(counters) == [("list.append", 3)]

"""Deterministic event counts for the discrete-event engine.

Wall-clock profilers can't explain a simulation: the interesting question
is not "where did the CPU go" but "which *kind* of event dominates the
schedule".  A :class:`~repro.sim.SimEngine` given a
:class:`~repro.obs.metrics.CounterRegistry` counts every event it pops
as ``sim.event.<category>``, the category being the callback's
``__qualname__`` (e.g. ``_BlobCast.send``).  The counts are pure
functions of the schedule: counting never changes a run, and two runs of
the same schedule count identically, so they can be asserted in tests
and diffed across optimization levels.

Wall-clock throughput (events/sec) is deliberately *not* measured here;
the fleet benchmark times :meth:`SimEngine.run` around the engine and
divides by ``events_processed``.
"""

from __future__ import annotations

from typing import Callable

from ..obs.metrics import CounterRegistry

__all__ = ["COUNTERS", "EVENT", "category_of", "top_events"]

#: The counter-name prefix of an engine event's category.
EVENT = "sim.event."


def category_of(fn: Callable) -> str:
    """The profiling category of a callback: its qualified name, seen
    through ``functools.partial`` wrappers; the type name as a last
    resort (e.g. a callable instance)."""
    qualname = getattr(fn, "__qualname__", None)
    if qualname is not None:
        return qualname
    inner = getattr(fn, "func", None)     # functools.partial and friends
    if inner is not None and inner is not fn:
        return category_of(inner)
    return type(fn).__name__


def top_events(counters: CounterRegistry,
               n: int = 5) -> list[tuple[str, int]]:
    """The *n* busiest event categories in *counters* by count
    (count-desc, then name — deterministic)."""
    events = [(name[len(EVENT):], count)
              for name, count in counters.snapshot().items()
              if name.startswith(EVENT)]
    return sorted(events, key=lambda kv: (-kv[1], kv[0]))[:n]


#: Process-global registry: the snapshot walker counts here whichever
#: kernel ran it, fast or reference; per-kernel attribution lives in each
#: tracer's ``metrics.counters``.
COUNTERS = CounterRegistry()

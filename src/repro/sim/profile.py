"""A deterministic profiler for the discrete-event engine.

Wall-clock profilers can't explain a simulation: the interesting question
is not "where did the CPU go" but "which *kind* of event dominates the
schedule".  :class:`EngineProfile` hangs off a
:class:`~repro.sim.SimEngine` and, for every event popped, counts it
under its callback's category (the callable's ``__qualname__`` — e.g.
``_BlobCast.send``) and attributes the **virtual time the event advanced
the clock by** to that category.  Both numbers are pure functions of the
schedule: profiling a run never changes it, and two runs of the same
schedule profile identically — so profiles can be asserted in tests and
diffed across optimization levels.

Wall-clock throughput (events/sec) is deliberately *not* measured here;
the fleet benchmark times :meth:`SimEngine.run` around the engine and
divides by ``events_processed`` so the profiler itself stays
deterministic.
"""

from __future__ import annotations

from typing import Callable

from ..obs.metrics import CounterRegistry

__all__ = ["EngineProfile", "category_of", "COUNTERS"]


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


class EngineProfile:
    """Per-category event counts and virtual-time attribution."""

    __slots__ = ("events", "virtual_seconds", "total_events",
                 "total_virtual_seconds")

    def __init__(self):
        self.events: dict[str, int] = {}
        self.virtual_seconds: dict[str, float] = {}
        self.total_events = 0
        self.total_virtual_seconds = 0.0

    def record(self, fn: Callable, dt: float) -> None:
        """One event popped: *fn* fired after advancing the clock by
        *dt* virtual seconds (clamped at zero — an event scheduled at or
        before the current time advances nothing)."""
        category = category_of(fn)
        self.events[category] = self.events.get(category, 0) + 1
        self.total_events += 1
        if dt > 0.0:
            self.virtual_seconds[category] = \
                self.virtual_seconds.get(category, 0.0) + dt
            self.total_virtual_seconds += dt

    def top(self, n: int = 5) -> list[tuple[str, int]]:
        """The *n* busiest categories by event count (count-desc, then
        name — deterministic)."""
        return sorted(self.events.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:n]

    def as_dict(self) -> dict:
        """JSON-friendly, sorted, rounded — safe to golden-test."""
        return {
            "total_events": self.total_events,
            "total_virtual_seconds": round(self.total_virtual_seconds, 9),
            "events": dict(sorted(self.events.items())),
            "virtual_seconds": {k: round(v, 9)
                                for k, v in sorted(
                                    self.virtual_seconds.items())},
        }

    def __repr__(self) -> str:
        busiest = ", ".join(f"{c}×{n}" for c, n in self.top(3))
        return (f"EngineProfile(events={self.total_events}, "
                f"vt={self.total_virtual_seconds:.6f}s, top: {busiest})")


#: Process-global registry (mirrors how ``opts.ENABLED`` is one switch):
#: the snapshot fast path counts here regardless of which kernel ran it;
#: per-kernel attribution lives in each tracer's ``metrics.counters``.
COUNTERS = CounterRegistry()

"""A discrete-event engine: a priority queue of timestamped callbacks.

This is the classic event-list simulation loop: :meth:`SimEngine.at`
schedules ``fn(*args)`` at a virtual time, :meth:`SimEngine.run` pops
events in time order (FIFO within equal timestamps) and advances the
shared :class:`~repro.sim.SimClock` to each event's timestamp before
firing it.  Callbacks may schedule further events, which is how pipelined
transfers chain: a chunk-arrival event at a relay node schedules that
relay's onward sends.

The default :class:`EventQueue` keeps a binary heap of *distinct*
timestamps with a FIFO bucket per timestamp.  Fleet-scale workloads are
full of equal-time floods — 10k rank-ready events at job start, 10k pull
events at distribution start — and the bucket fast path turns each of
those from 10k × O(log n) heap churn into one heap entry plus O(1)
appends/pops.  :class:`ReferenceEventQueue` is the pre-optimization
``(time, seq, payload)`` heap, kept as the oracle for the throughput
ablation; both orders are identical by construction.

Determinism: no wall clock, no randomness — identical schedules replay
identically, which the golden-transcript discipline of this repo depends
on.  Non-finite timestamps are rejected outright: a NaN compares false
against everything, so it would silently corrupt heap order instead of
failing loudly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Optional

from ..errors import ReproError
from ..obs.metrics import CounterRegistry
from .clock import SimClock
from .opts import default_fast
from .profile import EVENT, category_of

__all__ = ["EventQueue", "ReferenceEventQueue", "SimEngine", "SimError"]


class SimError(ReproError):
    """Misuse of the simulation engine."""


def _check_time(time: float) -> float:
    time = float(time)
    if not math.isfinite(time):
        raise SimError(f"cannot schedule an event at a non-finite "
                       f"time: {time}")
    if time < 0:
        raise SimError(f"cannot schedule an event before t=0: {time}")
    return time


class EventQueue:
    """A time-ordered queue of ``(time, fn, args)`` entries.

    FIFO within equal timestamps; a heap of distinct times with one
    deque bucket each, so same-timestamp floods cost O(1) per event.
    """

    def __init__(self):
        self._times: list[float] = []            # heap of distinct times
        self._buckets: dict[float, deque] = {}
        self._count = 0
        self.scheduled = 0

    def push(self, time: float, fn: Callable, *args: Any) -> None:
        time = _check_time(time)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = bucket = deque()
            heapq.heappush(self._times, time)
        bucket.append((fn, args))
        self._count += 1
        self.scheduled += 1

    def pop(self) -> tuple[float, Callable, tuple]:
        if not self._count:
            raise SimError("pop from an empty event queue")
        time = self._times[0]
        bucket = self._buckets[time]
        fn, args = bucket.popleft()
        if not bucket:
            heapq.heappop(self._times)
            del self._buckets[time]
        self._count -= 1
        return time, fn, args

    def peek_time(self) -> Optional[float]:
        return self._times[0] if self._times else None

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0


class ReferenceEventQueue:
    """The pre-optimization queue: one heap entry per event, a global
    sequence number breaking equal-time ties FIFO.  Pops in exactly the
    order :class:`EventQueue` does — kept as the ablation baseline."""

    def __init__(self):
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count(1)
        self.scheduled = 0

    def push(self, time: float, fn: Callable, *args: Any) -> None:
        time = _check_time(time)
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))
        self.scheduled += 1

    def pop(self) -> tuple[float, Callable, tuple]:
        if not self._heap:
            raise SimError("pop from an empty event queue")
        time, _, fn, args = heapq.heappop(self._heap)
        return time, fn, args

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimEngine:
    """One simulation run: a clock plus its event queue.

    Pass a :class:`~repro.obs.metrics.CounterRegistry` as *counters* to
    count every event as ``sim.event.<category>`` while the engine runs
    (deterministic — it reads no wall clock).

    *fast* (default: :func:`~repro.sim.opts.default_fast`) is fixed for
    the engine's life.  ``False`` runs the reference engine: the plain
    heap queue here, and in the transfers and casts run on this engine
    the per-chunk transmit loop and no event coalescing.
    """

    def __init__(self, clock: Optional[SimClock] = None, *,
                 counters: Optional[CounterRegistry] = None,
                 fast: Optional[bool] = None):
        self.clock = clock if clock is not None else SimClock()
        self.fast = default_fast() if fast is None else fast
        self.queue = EventQueue() if self.fast else ReferenceEventQueue()
        self.events_processed = 0
        self.counters = counters

    @property
    def now(self) -> float:
        return self.clock.now

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at virtual time *time*."""
        self.queue.push(time, fn, *args)

    def after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule {delay}s in the past")
        self.queue.push(self.clock.now + delay, fn, *args)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue in time order (optionally stopping once the
        next event lies beyond *until*); returns the clock reading."""
        queue = self.queue
        clock = self.clock
        counters = self.counters
        processed = 0
        try:
            while queue:
                next_time = queue.peek_time()
                if until is not None and next_time is not None \
                        and next_time > until:
                    break
                time, fn, args = queue.pop()
                if counters is not None:
                    counters.count(EVENT + category_of(fn))
                clock.advance_to(time)
                processed += 1
                fn(*args)
        finally:
            self.events_processed += processed
        if until is not None:
            clock.advance_to(until)
        return clock.now

"""The counter registry and bounded buffers backing the tracer.

Kept free of any kernel imports so the observability layer sits *below*
:mod:`repro.kernel` in the import graph (the kernel imports us, never the
other way around).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Generic, Iterator, TypeVar

__all__ = ["CounterRegistry", "RingBuffer", "TraceMetrics",
           "render_counter_table"]

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """A bounded event buffer: old events are evicted, but we remember how
    many were dropped so exports can say the record is partial."""

    def __init__(self, maxlen: int):
        if maxlen <= 0:
            raise ValueError(f"ring size must be positive: {maxlen}")
        self.maxlen = maxlen
        self._items: deque[T] = deque(maxlen=maxlen)
        self.dropped = 0

    def append(self, item: T) -> None:
        if len(self._items) == self.maxlen:
            self.dropped += 1
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def clear(self) -> None:
        self._items.clear()
        self.dropped = 0

    @property
    def total_seen(self) -> int:
        """Events ever appended (kept + dropped)."""
        return len(self._items) + self.dropped


class CounterRegistry:
    """Deterministic named counters under dotted ``category.event`` names.

    The one counter type: the process-wide
    :data:`repro.sim.profile.COUNTERS` and every tracer's
    :attr:`TraceMetrics.counters` are instances.  Counting is a pure
    function of the operations performed — two identical runs count
    identically — so tests and benchmarks can assert on deltas.
    ``snapshot()``/``delta()`` give cheap before/after views.
    """

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A sorted copy, safe to diff against a later one."""
        return dict(sorted(self._counts.items()))

    def delta(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counts accumulated since *earlier* (a prior ``snapshot()``),
        zero-entries dropped."""
        out = {}
        for name, n in self._counts.items():
            d = n - earlier.get(name, 0)
            if d:
                out[name] = d
        return dict(sorted(out.items()))

    def reset(self) -> None:
        self._counts.clear()


def render_counter_table(counts: dict[str, int],
                         title: str = "engine counters") -> str:
    """Render counters as the per-category profile table the CLI prints:
    dotted names grouped by category, with a derived ``digest`` hit rate
    so cold vs warm builds are explainable at a glance."""
    lines = [title, "  category            event                count"]
    for name in sorted(counts):
        category, _, event = name.partition(".")
        lines.append(f"  {category:<19} {event:<20} {counts[name]:>6}")
    hits = counts.get("digest.memo_hit", 0)
    misses = counts.get("digest.memo_miss", 0)
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        lines.append(f"  digest memo hit rate: {rate:.1f}% "
                     f"({hits} hit / {misses} miss)")
    return "\n".join(lines)


class TraceMetrics:
    """Aggregate counters, never evicted (unlike the event ring).

    * ``syscalls``: per-syscall call counts, **top-level calls only** (what
      the process issued, not what a wrapper issued internally).
    * ``errnos``: per-errno failure counts at **any** depth — an EPERM that a
      fakeroot wrapper absorbed still fired in the kernel and still counts
      (that is exactly the §5.1 "absorbed" signal, and what the errno-
      coverage test walks).
    * ``errnos_by_syscall``: ``(syscall, errno)`` pair counts, any depth.
    * ``counters``: every other subsystem's events, by dotted name —
      ``cache.*`` (build-cache hit/miss/store), ``net.*`` (deploy and
      workload distribution), ``build.*`` (parallel-build scheduling),
      ``matrix.*`` (build-matrix orchestration), ``supply.*`` (signing,
      verification and policy gating), and the snapshot walker's
      ``snapshot.*``/``digest.*``.
    """

    def __init__(self):
        self.syscalls: Counter[str] = Counter()
        self.errnos: Counter[str] = Counter()
        self.errnos_by_syscall: Counter[tuple[str, str]] = Counter()
        self.counters = CounterRegistry()

    def count_call(self, name: str, *, top_level: bool) -> None:
        if top_level:
            self.syscalls[name] += 1

    def count_errno(self, name: str, errno_name: str) -> None:
        self.errnos[errno_name] += 1
        self.errnos_by_syscall[(name, errno_name)] += 1

    def clear(self) -> None:
        self.syscalls.clear()
        self.errnos.clear()
        self.errnos_by_syscall.clear()
        self.counters.reset()

    def snapshot(self) -> dict:
        """A JSON-friendly copy (sorted keys for deterministic exports)."""
        return {
            "syscalls": dict(sorted(self.syscalls.items())),
            "errnos": dict(sorted(self.errnos.items())),
            "errnos_by_syscall": {
                f"{sc}:{en}": n
                for (sc, en), n in sorted(self.errnos_by_syscall.items())
            },
            "counters": self.counters.snapshot(),
        }

"""Syscall tracing and build-phase spans.

The observability layer the paper's evidence calls for: the paper argues by
*transcript* (Figs. 2-3, 5, 8-11 are failing and succeeding builds shown at
errno granularity), so the reproduction must be able to show the same
receipts — which simulated syscalls a build issued, through which
interposition layer (kernel / fakeroot / seccomp / ignore-chown), and which
errnos fired where.

Design constraints:

* **Zero cost when disabled.**  Instrumentation is a per-class method wrap
  whose fast path is one attribute chain (``self.proc.kernel.tracer is
  None``) and a tail call.  No tracer object exists unless attached.
* **Below the kernel in the import graph.**  This module imports only
  :mod:`repro.errors` and :mod:`repro.obs.metrics`, so ``repro.kernel`` can
  import it freely.
* **Layer-aware.**  Each interposition class declares its layer when
  decorated; a ``chown`` answered by fakeroot shows ``layer="fakeroot"`` at
  depth 0 and any real syscalls it issued internally as nested events —
  which is exactly the absorbed-vs-failed distinction the privilege audit
  needs (paper §5.1).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..errors import KernelError
from .metrics import RingBuffer, TraceMetrics

__all__ = [
    "TRACED_SYSCALLS",
    "SyscallEvent",
    "Span",
    "SyscallTracer",
    "attach_tracer",
    "instrument_syscalls",
    "kernel_span",
    "maybe_span",
]

DEFAULT_RING_SIZE = 65536

#: Method names on Syscalls (and its interposing subclasses) that are
#: recorded as syscall events.  Composite conveniences (mkdir_p, the
#: setup_* dances) are deliberately absent: their constituent calls are
#: traced individually, which is what a real strace would show.
TRACED_SYSCALLS = frozenset({
    # identity
    "getuid", "geteuid", "getgid", "getegid", "getgroups",
    # credentials
    "setuid", "seteuid", "setreuid", "setresuid",
    "setgid", "setegid", "setresgid", "setgroups",
    # namespaces & maps
    "unshare_user", "unshare_mount", "unshare_uts", "sethostname",
    "deny_setgroups", "write_uid_map", "write_gid_map",
    # mounts
    "mount_fs", "bind_mount", "pivot_to", "mount_image", "umount",
    # cwd / metadata
    "chdir", "stat", "lstat", "readlink", "readdir",
    # creation
    "mkdir", "mknod", "symlink", "link", "clone_tree",
    # file I/O
    "read_file", "write_file", "truncate",
    # removal / rename
    "unlink", "rmdir", "rename",
    # ownership & permissions
    "chown", "lchown", "chmod",
    # xattrs
    "setxattr", "getxattr", "listxattr", "removexattr",
    # exec
    "prepare_exec",
})


def _short(value: Any) -> str:
    """Compact, single-line rendering of one argument value."""
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return repr(value) if len(value) <= 48 else repr(value[:45] + "...")
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)}B>"
    if isinstance(value, (list, tuple)):
        if len(value) <= 3:
            return "(" + ", ".join(_short(v) for v in value) + ")"
        return f"<{type(value).__name__} n={len(value)}>"
    r = repr(value)
    return r if len(r) <= 48 else f"<{type(value).__name__}>"


def _format_args(args: tuple, kwargs: dict) -> str:
    parts = [_short(a) for a in args]
    parts += [f"{k}={_short(v)}" for k, v in kwargs.items()]
    text = ", ".join(parts)
    return text if len(text) <= 120 else text[:117] + "..."


def _format_result(value: Any) -> str:
    if value is None:
        return "ok"
    return _short(value)


def _ns_level(ns) -> int:
    """Nesting depth of a user namespace (0 = initial)."""
    n = 0
    while ns.parent is not None:
        n += 1
        ns = ns.parent
    return n


@dataclass(slots=True)
class SyscallEvent:
    """One recorded system call."""

    seq: int
    name: str
    layer: str          # which class answered: kernel/fakeroot/seccomp/...
    args: str
    pid: int
    comm: str
    euid: int           # caller's kernel euid at call time
    egid: int
    ns_level: int       # user-namespace nesting depth (0 = initial)
    depth: int          # 0 = issued by userland, >0 = issued by a wrapper
    parent_seq: int     # seq of the enclosing call (0 = top level)
    span_seq: int       # seq of the enclosing span (0 = none)
    start_tick: int
    duration: int       # clock advances while the call ran (a work proxy)
    result: str         # "ok" or a summary; "error" on KernelError
    errno: str          # errno name ("" on success)
    errno_code: int     # numeric errno (0 on success)

    @property
    def ok(self) -> bool:
        return not self.errno


@dataclass(slots=True)
class _Frame:
    """An in-flight syscall (becomes a SyscallEvent at end_call)."""

    seq: int
    name: str
    layer: str
    args: str
    pid: int
    comm: str
    euid: int
    egid: int
    ns_level: int
    depth: int
    parent_seq: int
    start_tick: int
    span: Optional["Span"]


@dataclass
class Span:
    """A named phase of work (build / instruction / layer / push / ...).

    ``syscalls`` counts top-level calls made directly inside this span
    (not inside child spans); ``errnos`` counts failures at *any* nesting
    depth, because an EPERM a wrapper absorbed is still evidence.  Use the
    ``total_*`` accessors for subtree-inclusive numbers.
    """

    seq: int
    name: str
    kind: str
    start_tick: int
    meta: dict = field(default_factory=dict)
    parent_seq: int = 0
    end_tick: Optional[int] = None
    status: str = "ok"
    error: str = ""
    syscalls: Counter = field(default_factory=Counter)
    errnos: Counter = field(default_factory=Counter)
    errnos_by_syscall: Counter = field(default_factory=Counter)
    children: list["Span"] = field(default_factory=list)

    def fail(self, error: str) -> None:
        self.status = "error"
        self.error = error

    @property
    def duration(self) -> int:
        end = self.end_tick if self.end_tick is not None else self.start_tick
        return end - self.start_tick

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def total_syscalls(self) -> Counter:
        total = Counter()
        for s in self.walk():
            total.update(s.syscalls)
        return total

    def total_errnos(self) -> Counter:
        total = Counter()
        for s in self.walk():
            total.update(s.errnos)
        return total

    def total_errnos_by_syscall(self) -> Counter:
        total = Counter()
        for s in self.walk():
            total.update(s.errnos_by_syscall)
        return total


class SyscallTracer:
    """Records syscall events and phase spans for one simulated kernel.

    Attach with :func:`attach_tracer` (or ``REPRO_TRACE=1`` in the
    environment); when ``kernel.tracer`` is None the instrumented methods
    take the no-op fast path.
    """

    def __init__(self, *, clock: Optional[Callable[[], int]] = None,
                 ring_size: int = DEFAULT_RING_SIZE):
        self._clock = clock if clock is not None else (lambda: 0)
        self.events: RingBuffer[SyscallEvent] = RingBuffer(ring_size)
        self.metrics = TraceMetrics()
        self.roots: list[Span] = []
        self._span_stack: list[Span] = []
        self._stack: list[_Frame] = []
        self._seq = itertools.count(1)

    # -- state -----------------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        return self._span_stack[-1] if self._span_stack else None

    @property
    def dropped_events(self) -> int:
        return self.events.dropped

    def clear(self) -> None:
        """Forget everything recorded so far (spans in flight survive)."""
        self.events.clear()
        self.metrics.clear()
        self.roots = [s for s in self._span_stack[:1]]

    # -- syscall recording (called from instrumented methods) -------------------

    def begin_call(self, name: str, layer: str, sys_obj,
                   args: tuple, kwargs: dict) -> _Frame:
        proc = sys_obj.proc
        cred = proc.cred
        frame = _Frame(
            seq=next(self._seq),
            name=name,
            layer=layer,
            args=_format_args(args, kwargs),
            pid=proc.pid,
            comm=proc.comm,
            euid=cred.euid,
            egid=cred.egid,
            ns_level=_ns_level(cred.userns),
            depth=len(self._stack),
            parent_seq=self._stack[-1].seq if self._stack else 0,
            start_tick=self._clock(),
            span=self._span_stack[-1] if self._span_stack else None,
        )
        self._stack.append(frame)
        return frame

    _MISSING = object()

    def end_call(self, frame: _Frame, *, result: Any = _MISSING,
                 error: Optional[KernelError] = None) -> SyscallEvent:
        self._stack.pop()
        top = frame.depth == 0
        if error is not None:
            errno_name = error.errno.name
            errno_code = int(error.errno)
            res = "error"
        else:
            errno_name = ""
            errno_code = 0
            res = _format_result(None if result is self._MISSING else result)
        self.metrics.count_call(frame.name, top_level=top)
        if errno_name:
            self.metrics.count_errno(frame.name, errno_name)
        span = frame.span
        if span is not None:
            if top:
                span.syscalls[frame.name] += 1
            if errno_name:
                span.errnos[errno_name] += 1
                span.errnos_by_syscall[f"{frame.name}:{errno_name}"] += 1
        event = SyscallEvent(
            seq=frame.seq, name=frame.name, layer=frame.layer,
            args=frame.args, pid=frame.pid, comm=frame.comm,
            euid=frame.euid, egid=frame.egid, ns_level=frame.ns_level,
            depth=frame.depth, parent_seq=frame.parent_seq,
            span_seq=span.seq if span is not None else 0,
            start_tick=frame.start_tick,
            duration=self._clock() - frame.start_tick,
            result=res, errno=errno_name, errno_code=errno_code,
        )
        self.events.append(event)
        return event

    # -- spans -------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = "phase", **meta):
        s = Span(seq=next(self._seq), name=name, kind=kind,
                 start_tick=self._clock(), meta=meta)
        parent = self.current_span
        if parent is not None:
            s.parent_seq = parent.seq
            parent.children.append(s)
        else:
            self.roots.append(s)
        self._span_stack.append(s)
        try:
            yield s
        except KernelError as err:
            s.fail(f"{err.errno.name}: {err.msg or err.strerror}")
            raise
        except Exception as exc:
            s.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            s.end_tick = self._clock()
            self._span_stack.pop()


def attach_tracer(kernel, *, ring_size: int = DEFAULT_RING_SIZE
                  ) -> SyscallTracer:
    """Create a tracer clocked by *kernel* and install it as
    ``kernel.tracer``.  Idempotent: an already-attached tracer is kept."""
    if getattr(kernel, "tracer", None) is None:
        kernel.tracer = SyscallTracer(clock=lambda: kernel.ticks,
                                      ring_size=ring_size)
    return kernel.tracer


def kernel_span(kernel, name: str, kind: str = "phase", **meta):
    """A span on *kernel*'s tracer, or a no-op context when untraced."""
    tracer = getattr(kernel, "tracer", None)
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, kind, **meta)


def maybe_span(tracer: Optional[SyscallTracer], name: str,
               kind: str = "phase", **meta):
    """Like :func:`kernel_span` for holders of an optional tracer
    reference (registry, CI server) that have no kernel at hand."""
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, kind, **meta)


def _as_named(name: str, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """The arguments of an ``*at`` call as the trace shows them: its path
    joined onto its ``dir_fd``'s (:meth:`~repro.kernel.mounts.DirFd.join`),
    so a call reads the same whether it walks from ``/`` or from an open
    directory.  Only ``symlink`` takes its path second."""
    kwargs = dict(kwargs)
    fd = kwargs.pop("dir_fd")
    i = 1 if name == "symlink" else 0
    if fd is not None and len(args) > i:
        args = (*args[:i], fd.join(args[i]), *args[i + 1:])
    return args, kwargs


def _wrap(fn: Callable, name: str, layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer = self.proc.kernel.tracer
        if tracer is None:
            return fn(self, *args, **kwargs)
        shown = _as_named(name, args, kwargs) if "dir_fd" in kwargs \
            else (args, kwargs)
        frame = tracer.begin_call(name, layer, self, *shown)
        try:
            result = fn(self, *args, **kwargs)
        except KernelError as err:
            tracer.end_call(frame, error=err)
            raise
        except BaseException as exc:
            tracer.end_call(frame, result=f"!{type(exc).__name__}")
            raise
        tracer.end_call(frame, result=result)
        return result

    wrapper.__traced__ = True  # type: ignore[attr-defined]
    wrapper.__wrapped_syscall__ = fn  # type: ignore[attr-defined]
    return wrapper


def instrument_syscalls(layer: str):
    """Class decorator: wrap every method of the class's own ``__dict__``
    whose name is in :data:`TRACED_SYSCALLS` so calls are recorded with the
    given *layer* label.  Inherited methods keep the layer of the class
    that defined them (a fakeroot ``mkdir`` really is a kernel mkdir)."""

    def decorate(cls):
        for name in TRACED_SYSCALLS:
            fn = cls.__dict__.get(name)
            if fn is None or not callable(fn):
                continue
            if getattr(fn, "__traced__", False):
                continue
            setattr(cls, name, _wrap(fn, name, layer))
        cls.trace_layer = layer
        return cls

    return decorate

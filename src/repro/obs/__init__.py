"""Observability: syscall tracing, build-phase spans, privilege audits.

See docs/OBSERVABILITY.md for the event schema and span model.
"""

from .export import (
    dump_golden,
    event_to_dict,
    events_to_jsonl,
    golden_summary,
    span_to_dict,
    trace_to_dict,
)
from .metrics import CounterRegistry, RingBuffer, TraceMetrics
from .report import (
    PRIVILEGED_SYSCALLS,
    AuditEntry,
    PrivilegeAudit,
    privilege_audit,
    render_span_tree,
    render_summary,
)
from .trace import (
    TRACED_SYSCALLS,
    Span,
    SyscallEvent,
    SyscallTracer,
    attach_tracer,
    instrument_syscalls,
    kernel_span,
    maybe_span,
)

__all__ = [
    "AuditEntry",
    "CounterRegistry",
    "PRIVILEGED_SYSCALLS",
    "PrivilegeAudit",
    "RingBuffer",
    "Span",
    "SyscallEvent",
    "SyscallTracer",
    "TRACED_SYSCALLS",
    "TraceMetrics",
    "attach_tracer",
    "dump_golden",
    "event_to_dict",
    "events_to_jsonl",
    "golden_summary",
    "instrument_syscalls",
    "kernel_span",
    "maybe_span",
    "privilege_audit",
    "render_span_tree",
    "render_summary",
    "span_to_dict",
    "trace_to_dict",
]

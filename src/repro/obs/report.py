"""Human-readable trace reports and the privilege audit.

The audit is a machine-checkable version of the paper's Table 1 / figure
transcripts: for every privileged-class operation a build issued, say
whether the kernel allowed it, a wrapper (fakeroot/seccomp/ignore-chown)
absorbed it, or it truly failed — with the errno the kernel produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .trace import Span, SyscallEvent, SyscallTracer

__all__ = [
    "PRIVILEGED_SYSCALLS",
    "AuditEntry",
    "PrivilegeAudit",
    "privilege_audit",
    "render_span_tree",
    "render_summary",
]

#: Operations that on real Linux require privilege in at least some common
#: invocation (the ones the paper's failure analysis turns on).  Reads and
#: own-file writes are deliberately excluded.
PRIVILEGED_SYSCALLS = frozenset({
    "chown", "lchown", "mknod",
    "setuid", "seteuid", "setreuid", "setresuid",
    "setgid", "setegid", "setresgid", "setgroups",
    "mount_fs", "bind_mount", "pivot_to", "mount_image", "umount",
    "sethostname", "unshare_uts",
    "write_uid_map", "write_gid_map",
    "setxattr", "removexattr",
})


@dataclass
class AuditEntry:
    """One aggregated audit line."""

    syscall: str
    classification: str   # "allowed" | "absorbed" | "failed"
    layer: str            # layer that answered the top-level call
    errno: str            # errno of the top-level call ("" on success)
    kernel_errno: str     # errno the kernel raised underneath a wrapper
    count: int = 0
    example: str = ""     # args of the first occurrence

    def render(self) -> str:
        line = f"{self.syscall}({self.example})"
        if self.errno:
            line += f" -> {self.errno}"
        if self.kernel_errno:
            line += f" [kernel denied: {self.kernel_errno}]"
        if self.count > 1:
            line += f" x{self.count}"
        return line


@dataclass
class PrivilegeAudit:
    """Classified privileged operations for one trace."""

    allowed: list[AuditEntry] = field(default_factory=list)
    absorbed: list[AuditEntry] = field(default_factory=list)
    failed: list[AuditEntry] = field(default_factory=list)
    events_seen: int = 0
    events_dropped: int = 0

    def render(self) -> str:
        lines = ["privilege audit"]
        if self.events_dropped:
            lines.append(f"  (ring buffer dropped {self.events_dropped} "
                         "events; audit is partial)")
        sections = [
            ("failed (privilege truly required, kernel refused)",
             self.failed),
            ("absorbed by an interposition layer (fakeroot/seccomp/...)",
             self.absorbed),
            ("allowed by the kernel", self.allowed),
        ]
        for title, entries in sections:
            total = sum(e.count for e in entries)
            lines.append(f"  {title}: {total}")
            for e in entries:
                lines.append(f"    {e.render()}")
        return "\n".join(lines)


def _children_index(tracer: SyscallTracer) -> dict[int, list[SyscallEvent]]:
    by_parent: dict[int, list[SyscallEvent]] = {}
    for ev in tracer.events:
        if ev.parent_seq:
            by_parent.setdefault(ev.parent_seq, []).append(ev)
    return by_parent


def _nested_errno(ev: SyscallEvent,
                  by_parent: dict[int, list[SyscallEvent]]) -> str:
    """First errno raised by any call the wrapper issued underneath."""
    stack = list(by_parent.get(ev.seq, ()))
    while stack:
        child = stack.pop(0)
        if child.errno:
            return child.errno
        stack.extend(by_parent.get(child.seq, ()))
    return ""


def privilege_audit(tracer: SyscallTracer) -> PrivilegeAudit:
    """Classify every top-level privileged-class call in the event ring."""
    audit = PrivilegeAudit(events_dropped=tracer.events.dropped)
    by_parent = _children_index(tracer)
    buckets: dict[tuple, AuditEntry] = {}
    for ev in tracer.events:
        if ev.depth != 0 or ev.name not in PRIVILEGED_SYSCALLS:
            continue
        audit.events_seen += 1
        if ev.errno:
            cls = "failed"
            kernel_errno = ""
        elif ev.layer != "kernel":
            cls = "absorbed"
            kernel_errno = _nested_errno(ev, by_parent)
        else:
            cls = "allowed"
            kernel_errno = ""
        key = (ev.name, cls, ev.layer, ev.errno, kernel_errno)
        entry = buckets.get(key)
        if entry is None:
            entry = AuditEntry(syscall=ev.name, classification=cls,
                               layer=ev.layer, errno=ev.errno,
                               kernel_errno=kernel_errno, example=ev.args)
            buckets[key] = entry
            getattr(audit, cls).append(entry)
        entry.count += 1
    return audit


def _span_line(span: Span, indent: int, *, top_n: int = 4) -> str:
    own = span.total_syscalls()
    total = sum(own.values())
    parts = [f"{'  ' * indent}{span.name} [{span.kind}]"]
    parts.append(f"{span.duration} ticks")
    parts.append(f"{total} syscalls")
    if own:
        top = ", ".join(f"{n} x{c}" for n, c in own.most_common(top_n))
        parts.append(top)
    errnos = span.total_errnos()
    if errnos:
        parts.append("errnos: " + ", ".join(
            f"{n} x{c}" for n, c in sorted(errnos.items())))
    line = " | ".join(parts)
    if span.status != "ok":
        line += f" | FAILED: {span.error}"
    return line


def render_span_tree(tracer: SyscallTracer, *,
                     root: Optional[Span] = None) -> str:
    """Indented span tree with per-span syscall/errno counts."""
    lines: list[str] = []

    def visit(span: Span, indent: int) -> None:
        lines.append(_span_line(span, indent))
        for child in span.children:
            visit(child, indent + 1)

    roots = [root] if root is not None else tracer.roots
    for s in roots:
        visit(s, 0)
    if not lines:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


def render_summary(tracer: SyscallTracer, *, top_n: int = 10) -> str:
    """Global counters: totals, top syscalls, all errnos."""
    m = tracer.metrics
    total = sum(m.syscalls.values())
    lines = [f"trace summary: {total} top-level syscalls, "
             f"{len(tracer.events)} events kept, "
             f"{tracer.events.dropped} dropped"]
    if m.syscalls:
        lines.append("  top syscalls:")
        for name, count in m.syscalls.most_common(top_n):
            lines.append(f"    {name:<14} {count}")
    if m.errnos:
        lines.append("  errnos (all depths):")
        for name, count in sorted(m.errnos.items()):
            by_sc = ", ".join(
                f"{sc} x{c}" for (sc, en), c in
                sorted(m.errnos_by_syscall.items()) if en == name)
            lines.append(f"    {name:<10} {count}  ({by_sc})")
    return "\n".join(lines)

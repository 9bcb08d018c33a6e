"""Unit tests for the observability layer (repro.obs).

The integration-level guarantees (figure digests, errno coverage) live in
test_golden_transcripts.py and test_errno_coverage.py; here we pin the
tracer mechanics themselves: the disabled fast path, event/layer/nesting
semantics, ring-buffer accounting, span bookkeeping, exports, and the
``ch-image trace`` CLI.
"""

import json

import pytest

from repro.errors import Errno, KernelError
from repro.fakeroot import FakerootSyscalls
from repro.fakeroot.registry import engine_by_name
from repro.kernel import Kernel, Syscalls, make_ext4
from repro.obs import (
    RingBuffer,
    attach_tracer,
    events_to_jsonl,
    golden_summary,
    kernel_span,
    maybe_span,
    privilege_audit,
    render_span_tree,
    render_summary,
    trace_to_dict,
)


@pytest.fixture(autouse=True)
def _no_ambient_tracing(monkeypatch):
    """These tests pin tracer mechanics; a REPRO_TRACE=1 environment would
    pre-attach tracers and change what attach_tracer/enable_tracing do."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)


@pytest.fixture
def traced():
    """(kernel, tracer, root Syscalls) with /tmp ready."""
    k = Kernel(make_ext4(), hostname="obs")
    tracer = attach_tracer(k)
    root = Syscalls(k.init_process)
    root.mkdir("/tmp", 0o777)
    root.chmod("/tmp", 0o1777)
    tracer.clear()
    return k, tracer, root


class TestDisabledFastPath:
    def test_no_tracer_by_default(self):
        k = Kernel(make_ext4(), hostname="plain")
        assert k.tracer is None

    def test_syscalls_unaffected_without_tracer(self):
        k = Kernel(make_ext4(), hostname="plain")
        root = Syscalls(k.init_process)
        root.mkdir("/tmp", 0o777)
        root.write_file("/tmp/f", b"x")
        assert root.read_file("/tmp/f") == b"x"

    def test_repro_trace_env_attaches(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        k = Kernel(make_ext4(), hostname="env")
        assert k.tracer is not None

    def test_kernel_span_is_noop_without_tracer(self):
        k = Kernel(make_ext4(), hostname="plain")
        with kernel_span(k, "phase") as sp:
            assert sp is None
        with maybe_span(None, "phase") as sp:
            assert sp is None


class TestEvents:
    def test_event_fields(self, traced):
        k, tracer, root = traced
        root.write_file("/tmp/f", b"hello")
        ev = [e for e in tracer.events if e.name == "write_file"][-1]
        assert ev.layer == "kernel"
        assert ev.pid == k.init_process.pid
        assert ev.euid == 0 and ev.ns_level == 0
        assert "/tmp/f" in ev.args
        assert ev.ok and not ev.errno

    def test_errno_recorded(self, traced):
        k, tracer, root = traced
        with pytest.raises(KernelError):
            root.stat("/nope")
        ev = list(tracer.events)[-1]
        assert ev.name == "stat"
        assert ev.errno == "ENOENT"
        assert ev.errno_code == int(Errno.ENOENT)
        assert not ev.ok

    def test_fakeroot_nesting_and_layers(self, traced):
        k, tracer, root = traced
        root.write_file("/tmp/f", b"x")
        tracer.clear()
        fr = FakerootSyscalls(root, engine_by_name("fakeroot"))
        fr.chown("/tmp/f", 0, 0)
        top = [e for e in tracer.events if e.depth == 0]
        assert top[-1].name == "chown" and top[-1].layer == "fakeroot"
        # the wrapper consulted the kernel underneath (lstat/stat for the
        # inode key) — those appear as nested children, layer "kernel"
        nested = [e for e in tracer.events if e.depth > 0]
        assert nested and all(e.layer == "kernel" for e in nested)
        assert all(e.parent_seq == top[-1].seq for e in nested)

    def test_metrics_count_top_level_only(self, traced):
        k, tracer, root = traced
        root.write_file("/tmp/f", b"x")
        fr = FakerootSyscalls(root, engine_by_name("fakeroot"))
        tracer.clear()
        fr.chown("/tmp/f", 0, 0)
        assert tracer.metrics.syscalls["chown"] == 1
        # nested kernel work is not double-counted as top-level calls
        assert sum(tracer.metrics.syscalls.values()) == 1


class TestRingBuffer:
    def test_overflow_drops_oldest(self):
        rb = RingBuffer(maxlen=4)
        for i in range(10):
            rb.append(i)
        assert list(rb) == [6, 7, 8, 9]
        assert rb.dropped == 6 and rb.total_seen == 10

    def test_tracer_ring_size(self):
        k = Kernel(make_ext4(), hostname="tiny")
        tracer = attach_tracer(k, ring_size=8)
        root = Syscalls(k.init_process)
        root.mkdir("/tmp", 0o777)
        for i in range(20):
            root.write_file(f"/tmp/f{i}", b"")
        assert len(tracer.events) == 8
        assert tracer.dropped_events > 0
        # counters keep the full totals even after the ring wrapped
        assert tracer.metrics.syscalls["write_file"] == 20


class TestSpans:
    def test_span_counts_and_nesting(self, traced):
        k, tracer, root = traced
        with tracer.span("outer", "phase") as outer:
            root.write_file("/tmp/a", b"")
            with tracer.span("inner", "phase") as inner:
                root.write_file("/tmp/b", b"")
        assert outer.syscalls["write_file"] == 1      # direct only
        assert outer.total_syscalls()["write_file"] == 2
        assert inner.parent_seq == outer.seq
        assert tracer.roots[-1] is outer

    def test_span_failure_from_kernel_error(self, traced):
        k, tracer, root = traced
        with pytest.raises(KernelError):
            with tracer.span("doomed", "phase"):
                root.stat("/nope")
        sp = tracer.roots[-1]
        assert sp.status == "error"
        assert "ENOENT" in sp.error or "No such" in sp.error
        assert sp.errnos["ENOENT"] == 1

    def test_explicit_fail(self, traced):
        k, tracer, root = traced
        with tracer.span("build", "build") as sp:
            sp.fail("exit status 1")
        assert sp.status == "error" and sp.error == "exit status 1"


class TestExports:
    def test_jsonl_round_trips(self, traced):
        k, tracer, root = traced
        root.write_file("/tmp/f", b"x")
        with pytest.raises(KernelError):
            root.stat("/nope")
        lines = events_to_jsonl(tracer).splitlines()
        assert len(lines) == len(tracer.events)
        parsed = [json.loads(l) for l in lines]
        assert parsed[-1]["errno"] == "ENOENT"

    def test_trace_to_dict_shape(self, traced):
        k, tracer, root = traced
        with tracer.span("phase", "phase"):
            root.write_file("/tmp/f", b"x")
        d = trace_to_dict(tracer)
        assert set(d) == {"metrics", "events_kept", "events_dropped",
                          "spans"}
        assert set(d["metrics"]) == {"syscalls", "errnos",
                                     "errnos_by_syscall", "counters"}
        assert d["spans"][-1]["syscalls"]["write_file"] == 1

    def test_golden_summary_excludes_timing(self, traced):
        k, tracer, root = traced
        with tracer.span("build x", "build"):
            root.write_file("/tmp/f", b"x")
        digest = golden_summary(tracer)
        text = json.dumps(digest)
        assert "tick" not in text and "pid" not in text


class TestReports:
    def test_audit_classifies_absorbed_with_kernel_denial(self, traced):
        """The paper's absorbed-vs-failed distinction, at unit level."""
        k, tracer, root = traced
        alice = k.login(1000, 1000, user="alice", home="/tmp")
        asys = Syscalls(alice)
        asys.write_file("/tmp/mine", b"")
        # truly failed: alice chowns to root with no wrapper
        with pytest.raises(KernelError):
            asys.chown("/tmp/mine", 0, 0)
        # absorbed: the same operation under fakeroot
        fr = FakerootSyscalls(asys, engine_by_name("fakeroot"))
        fr.chown("/tmp/mine", 0, 0)
        audit = privilege_audit(tracer)
        assert any(e.syscall == "chown" and e.errno == "EPERM"
                   for e in audit.failed)
        assert any(e.syscall == "chown" and e.layer == "fakeroot"
                   for e in audit.absorbed)
        text = audit.render()
        assert "absorbed" in text and "failed" in text

    def test_render_tree_and_summary(self, traced):
        k, tracer, root = traced
        with tracer.span("build t", "build"):
            with tracer.span("1 RUN x", "instruction"):
                root.write_file("/tmp/f", b"x")
        tree = render_span_tree(tracer)
        assert "build t [build]" in tree
        assert "1 RUN x [instruction]" in tree
        assert "write_file" in render_summary(tracer)


class TestCli:
    def test_trace_needs_tracing_enabled(self, login, alice):
        from repro.core import ChImage
        from repro.core.cli import ch_image_cli
        status, out = ch_image_cli(ChImage(login, alice), ["trace"])
        assert status == 1
        assert "not enabled" in out

    def test_trace_outputs(self, login, alice):
        from repro.core import ChImage
        from repro.core.cli import ch_image_cli
        ch = ChImage(login, alice)
        status, out = ch_image_cli(
            ch, ["build", "--trace", "-t", "t", "-f", "/x", "."])
        assert status == 1  # no Dockerfile at /x, but tracing is now on
        status, out = ch_image_cli(ch, ["trace", "--json"])
        assert status == 0
        json.loads(out)

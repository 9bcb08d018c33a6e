"""Golden-transcript tests for the paper's figure scenarios.

Each test replays one figure under the syscall tracer and compares the
deterministic digest (``repro.obs.export.golden_summary``) against a JSON
file in ``tests/golden/``.  The digests pin down *which* syscall failed
with *which* errno at *which* Dockerfile instruction — the properties the
paper's transcripts exhibit — so a behaviour drift anywhere in the kernel,
fakeroot, or builder layers shows up as a readable JSON diff.

Regenerate after an intentional change with::

    pytest tests/test_golden_transcripts.py --update-golden

and review the golden diff like any other code change.
"""

import pytest

from repro.containers import Podman
from repro.core import ChImage
from repro.obs import attach_tracer, golden_summary

from .conftest import (
    FIG2_DOCKERFILE,
    FIG3_DOCKERFILE,
    FIG5_DOCKERFILE,
    FIG8_DOCKERFILE,
)


def traced_build(login, alice, dockerfile, *, force=False):
    """Run one ch-image build under a fresh tracer; return (tracer, result)."""
    ch = ChImage(login, alice)
    tracer = attach_tracer(login.kernel)
    result = ch.build(tag="foo", dockerfile=dockerfile, force=force)
    return tracer, result


class TestFailureFigures:
    def test_fig02_centos_type3(self, login, alice, golden_check):
        """Figure 2: chown(2) fails with EINVAL inside the yum install."""
        tracer, result = traced_build(login, alice, FIG2_DOCKERFILE)
        assert not result.success
        digest = golden_summary(tracer)
        failing = digest["failing_instruction"]
        assert failing["lineno"] == 3
        assert failing["text"] == "RUN yum install -y openssh"
        # the paper's cpio: chown failure, errno-accurate
        assert failing["errnos_by_syscall"] == {"chown:EINVAL": 1}
        golden_check("fig02_centos_type3", digest)

    def test_fig03_debian_type3(self, login, alice, golden_check):
        """Figure 3: setgroups EPERM (1) and seteuid EINVAL (22)."""
        tracer, result = traced_build(login, alice, FIG3_DOCKERFILE)
        assert not result.success
        digest = golden_summary(tracer)
        failing = digest["failing_instruction"]
        assert failing["lineno"] == 3
        assert failing["text"] == "RUN apt-get update"
        assert failing["errnos_by_syscall"]["setgroups:EPERM"] == 1
        assert failing["errnos_by_syscall"]["seteuid:EINVAL"] == 2
        golden_check("fig03_debian_type3", digest)

    def test_fig05_podman_unprivileged(self, login, golden_check):
        """Figure 5: single-ID Podman; /proc owned by nobody => EACCES."""
        bob = login.login("bob")
        tracer = attach_tracer(login.kernel)
        podman = Podman(login, bob, unprivileged=True,
                        ignore_chown_errors=True)
        result = podman.build(FIG5_DOCKERFILE, "srv")
        assert not result.success
        digest = golden_summary(tracer)
        failing = digest["failing_instruction"]
        assert failing["lineno"] == 2
        assert "EACCES" in failing["errnos"]
        golden_check("fig05_podman_unprivileged", digest)


class TestSuccessFigures:
    def test_fig08_manual_fakeroot(self, login, alice, golden_check):
        """Figure 8: the hand-modified fakeroot Dockerfile succeeds."""
        tracer, result = traced_build(login, alice, FIG8_DOCKERFILE)
        assert result.success, result.text
        digest = golden_summary(tracer)
        assert digest["status"] == "ok"
        assert digest["failing_instruction"] is None
        assert len(digest["instructions"]) == 5
        golden_check("fig08_manual_fakeroot", digest)

    def test_fig10_force_centos(self, login, alice, golden_check):
        """Figure 10: --force absorbs the Fig. 2 chown inside fakeroot."""
        tracer, result = traced_build(login, alice, FIG2_DOCKERFILE,
                                      force=True)
        assert result.success, result.text
        digest = golden_summary(tracer)
        assert digest["status"] == "ok"
        assert digest["meta"]["force"] is True
        # the chown that failed in fig02 now happens under fakeroot and
        # never reaches the kernel as an error at the top level
        yum = digest["instructions"][-1]
        assert yum["status"] == "ok"
        assert "chown:EINVAL" not in yum["errnos_by_syscall"]
        golden_check("fig10_force_centos", digest)

    def test_fig11_force_debian(self, login, alice, golden_check):
        """Figure 11: --force with debderiv config, 2 modified RUNs."""
        tracer, result = traced_build(login, alice, FIG3_DOCKERFILE,
                                      force=True)
        assert result.success, result.text
        assert result.modified_runs == 2
        digest = golden_summary(tracer)
        assert digest["status"] == "ok"
        # the fig03 errnos are gone: apt-get runs sandboxless + fakeroot
        for inst in digest["instructions"]:
            assert "setgroups:EPERM" not in inst["errnos_by_syscall"]
        golden_check("fig11_force_debian", digest)


class TestGoldenDeterminism:
    def test_two_runs_identical(self, world):
        """Two fresh worlds produce byte-identical digests (the property
        that makes the golden files stable across machines and runs)."""
        from repro.cluster import make_machine, make_world
        from repro.obs.export import dump_golden

        texts = []
        for _ in range(2):
            w = make_world(arches=("x86_64",))
            login = make_machine("login1", network=w.network)
            alice = login.login("alice")
            tracer, result = traced_build(login, alice, FIG2_DOCKERFILE,
                                          force=True)
            assert result.success
            texts.append(dump_golden(golden_summary(tracer)))
        assert texts[0] == texts[1]

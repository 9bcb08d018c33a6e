"""ch-image reproduction of the paper's figure transcripts (2, 3, 8-11)."""

import pytest

from repro.core import ChImage
from tests.conftest import (
    FIG2_DOCKERFILE,
    FIG3_DOCKERFILE,
    FIG8_DOCKERFILE,
    FIG9_DOCKERFILE,
)


@pytest.fixture
def ch(login, alice):
    return ChImage(login, alice)


class TestFigure2:
    """Plain Type III build of the CentOS Dockerfile fails at cpio: chown."""

    def test_fails(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE)
        assert not r.success

    def test_transcript_lines(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE)
        text = r.text
        assert "  1 FROM centos:7" in text
        assert "  2 RUN ['/bin/sh', '-c', 'echo hello']" in text
        assert "hello" in text
        assert "  3 RUN ['/bin/sh', '-c', 'yum install -y openssh']" in text
        assert "Installing: openssh-7.4p1-21.el7.x86_64" in text
        assert "Error unpacking rpm package openssh-7.4p1-21.el7.x86_64" \
            in text
        assert "cpio: chown" in text
        assert "error: build failed: RUN command exited with 1" in text

    def test_force_suggested(self, ch):
        """The paper notes ch-image 'suggested --force in a transcript line
        omitted from Figure 2'."""
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE)
        assert "--force" in r.text.splitlines()[-1]


class TestFigure3:
    """Plain Type III Debian build fails in apt's privilege drop."""

    def test_fails_with_exact_errors(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG3_DOCKERFILE)
        assert not r.success
        text = r.text
        assert ("E: setgroups 65534 failed - setgroups "
                "(1: Operation not permitted)") in text
        assert ("E: seteuid 100 failed - seteuid "
                "(22: Invalid argument)") in text
        assert "error: build failed: RUN command exited with 100" in text

    def test_fails_before_install_step(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG3_DOCKERFILE)
        assert "  3 RUN ['/bin/sh', '-c', 'apt-get update']" in r.text
        assert "  4 RUN" not in r.text  # never got there


class TestFigure8:
    """Manually modified CentOS Dockerfile builds (fakeroot by hand)."""

    def test_succeeds(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG8_DOCKERFILE)
        assert r.success, r.text
        # the three manual changes from §5.2 all took effect
        assert "yum install -y epel-release" in r.text
        assert "yum install -y fakeroot" in r.text
        assert "'fakeroot yum install -y openssh'" in r.text
        assert r.text.count("Complete!") >= 3
        assert "grown in 5 instructions: foo" in r.text

    def test_plain_yum_steps_need_no_fakeroot(self, ch):
        """Steps 1-2 (epel-release, fakeroot) install with no wrapper."""
        r = ch.build(tag="foo", dockerfile=FIG8_DOCKERFILE)
        lines = r.text.splitlines()
        epel_idx = next(i for i, l in enumerate(lines)
                        if "epel-release']" in l)
        assert "fakeroot" not in lines[epel_idx]

    def test_ownership_squashed_to_user(self, ch, alice):
        """§5.2: 'this approach will squash the actual ownership of all
        files installed to the invoking user'."""
        r = ch.build(tag="foo", dockerfile=FIG8_DOCKERFILE)
        assert r.success
        path = ch.storage.path_of("foo")
        st = ch.sys.stat(f"{path}/usr/libexec/openssh/ssh-keysign")
        assert st.kuid == 1000 and st.kgid == 1000


class TestFigure9:
    """Manually modified Debian Dockerfile builds (sandbox off + pseudo)."""

    def test_succeeds_with_term_log_warning(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG9_DOCKERFILE)
        assert r.success, r.text
        text = r.text
        assert "Setting up pseudo (1.9.0+git20180920-1) ..." in text
        assert "W: chown to root:adm of file /var/log/apt/term.log failed" \
            in text
        assert "Setting up openssh-client (1:7.9p1-10+deb10u2) ..." in text
        assert "Setting up libxext6 (2:1.3.3-1+b2) ..." in text
        assert "Setting up xauth (1:1.0.10-1) ..." in text
        assert "Processing triggers for libc-bin (2.28-10) ..." in text
        assert "grown in 6 instructions: foo" in text

    def test_warning_does_not_fail_build(self, ch):
        """'These warnings do not fail the build' (§5.2)."""
        r = ch.build(tag="foo", dockerfile=FIG9_DOCKERFILE)
        assert r.success and r.exit_status == 0


class TestFigure10:
    """ch-image --force auto-injection, CentOS."""

    def test_succeeds(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success, r.text

    def test_transcript_lines(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=True)
        text = r.text
        assert "will use --force: rhel7: CentOS/RHEL 7" in text
        assert ("workarounds: init step 1: checking: $ command -v fakeroot "
                "> /dev/null") in text
        assert "+ grep -Eq" in text  # the set -ex echo of the init pipeline
        assert "+ yum install -y epel-release" in text
        assert "+ yum-config-manager --disable epel" in text
        assert "+ yum --enablerepo=epel install -y fakeroot" in text
        assert ("workarounds: RUN: new command: ['fakeroot', '/bin/sh', "
                "'-c', 'yum install -y openssh']") in text
        assert "--force: init OK & modified 1 RUN instructions" in text
        assert "grown in 3 instructions: foo" in text
        assert r.modified_runs == 1

    def test_echo_run_not_modified(self, ch):
        """'ch-image executes the first RUN instruction normally, because it
        doesn't seem to need modification' (§5.3.1)."""
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=True)
        assert "'-c', 'echo hello']" in r.text
        assert "new command: ['fakeroot', '/bin/sh', '-c', 'echo hello']" \
            not in r.text

    def test_epel_left_disabled(self, ch):
        """EPEL is installed but disabled to avoid unexpected upgrades."""
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success
        path = ch.storage.path_of("foo")
        raw = ch.sys.read_file(f"{path}/etc/yum.repos.d/epel.repo").decode()
        assert "enabled=0" in raw

    def test_init_runs_once_for_multiple_runs(self, ch):
        df = ("FROM centos:7\nRUN yum install -y gcc\n"
              "RUN yum install -y openssh\n")
        r = ch.build(tag="multi", dockerfile=df, force=True)
        assert r.success, r.text
        assert r.text.count("workarounds: init step 1: $") == 1
        assert r.modified_runs == 2


class TestFigure11:
    """ch-image --force auto-injection, Debian."""

    def test_succeeds(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG3_DOCKERFILE, force=True)
        assert r.success, r.text

    def test_transcript_lines(self, ch):
        r = ch.build(tag="foo", dockerfile=FIG3_DOCKERFILE, force=True)
        text = r.text
        assert ("will use --force: debderiv: Debian (9, 10) or "
                "Ubuntu (16, 18, 20)") in text
        assert ("workarounds: init step 1: checking: $ apt-config dump | "
                "fgrep -q 'APT::Sandbox::User \"root\"' || ! fgrep -q _apt "
                "/etc/passwd") in text
        assert ("workarounds: init step 1: $ echo 'APT::Sandbox::User "
                "\"root\";' > /etc/apt/apt.conf.d/no-sandbox") in text
        assert ("workarounds: init step 2: checking: $ command -v fakeroot "
                "> /dev/null") in text
        assert ("workarounds: init step 2: $ apt-get update && apt-get "
                "install -y pseudo") in text
        assert "Setting up pseudo (1.9.0+git20180920-1) ..." in text
        assert ("workarounds: RUN: new command: ['fakeroot', '/bin/sh', "
                "'-c', 'apt-get update']") in text
        assert ("workarounds: RUN: new command: ['fakeroot', '/bin/sh', "
                "'-c', 'apt-get install -y openssh-client']") in text
        assert "--force: init OK & modified 2 RUN instructions" in text
        assert "grown in 4 instructions: foo" in text
        assert r.modified_runs == 2

    def test_redundant_update_still_executed(self, ch):
        """'ch-image is not smart enough to notice that it's now redundant
        and could have been skipped' (§5.3.2): apt-get update runs again
        under fakeroot after init already ran it."""
        r = ch.build(tag="foo", dockerfile=FIG3_DOCKERFILE, force=True)
        assert r.text.count("Reading package lists...") >= 3

    def test_force_without_config_match(self, ch, login, alice):
        """An image with no matching distro config."""
        # scratch-like image: pull centos, remove the marker file
        ch.pull("centos:7")
        path = ch.storage.path_of("centos:7")
        ch.sys.unlink(f"{path}/etc/redhat-release")
        ch.sys.unlink(f"{path}/etc/os-release")
        r = ch.build(tag="x", dockerfile="FROM centos:7\nRUN true\n",
                     force=True)
        assert "no suitable configuration found" in r.text
        assert r.success  # nothing needed modification anyway

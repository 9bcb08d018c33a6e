"""ch-image --force=seccomp: the §6.2.2(3) 'move fakeroot into the
container implementation' recommendation, as real Charliecloud later
shipped it."""

import pytest

from repro.core import ChImage, SeccompSyscalls
from repro.fakeroot import FakerootSyscalls
from repro.kernel import FileType, Syscalls
from tests.conftest import FIG2_DOCKERFILE, FIG3_DOCKERFILE


@pytest.fixture
def ch(login, alice):
    return ChImage(login, alice, force_mode="seccomp")


class TestSeccompBuilds:
    def test_centos_builds(self, ch):
        r = ch.build(tag="c", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success, r.text
        assert "will use --force: seccomp" in r.text
        assert r.modified_runs == 2  # every RUN is covered

    def test_debian_builds_without_sandbox_config(self, ch):
        """Unlike fakeroot(1), the runtime filter fakes set*id too, so the
        APT sandbox drop 'succeeds' — no apt.conf change needed at all."""
        r = ch.build(tag="d", dockerfile=FIG3_DOCKERFILE, force=True)
        assert r.success, r.text
        path = ch.storage.path_of("d")
        assert not ch.sys.exists(f"{path}/etc/apt/apt.conf.d/no-sandbox")

    def test_no_image_modification(self, ch):
        """The §6.1 complication removed: fakeroot is NOT installed into
        the image; no EPEL, no pseudo."""
        r = ch.build(tag="c", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success
        path = ch.storage.path_of("c")
        assert not ch.sys.exists(f"{path}/usr/bin/fakeroot")
        assert not ch.sys.exists(f"{path}/etc/yum.repos.d/epel.repo")

    def test_without_force_still_fails(self, ch):
        r = ch.build(tag="c", dockerfile=FIG2_DOCKERFILE, force=False)
        assert not r.success

    def test_covers_file_capabilities(self, ch):
        """The filter intercepts xattrs, so iputils installs (the A6 gap of
        classic fakeroot closed by the runtime approach)."""
        df = "FROM centos:7\nRUN yum install -y iputils\n"
        r = ch.build(tag="ip", dockerfile=df, force=True)
        assert r.success, r.text

    def test_covers_static_binaries(self, ch):
        """Process-level interception wraps static helpers too (the other
        LD_PRELOAD blind spot)."""
        df = "FROM centos:7\nRUN yum install -y sash\n"
        r = ch.build(tag="sash", dockerfile=df, force=True)
        assert r.success, r.text

    def test_invalid_mode_rejected(self, login, alice):
        with pytest.raises(ValueError):
            ChImage(login, alice, force_mode="ebpf")


class TestHostSideLieDatabase:
    """There is none: the filter records nothing, so every RUN, cache hit
    and push sees the tree the kernel holds (zero consistency)."""

    def test_lies_persist_across_runs(self, ch):
        """A later RUN sees no ownership an earlier RUN faked."""
        df = ("FROM centos:7\n"
              "RUN yum install -y openssh\n"
              "RUN ls -lh /usr/libexec/openssh/ssh-keysign\n")
        r = ch.build(tag="c", dockerfile=df, force=True)
        assert r.success, r.text
        assert "root root" in r.text
        assert "ssh_keys" not in r.text.split("ls -lh")[-1]


class TestSeccompSyscalls:
    def test_setid_family_faked(self, login, alice):
        sys = SeccompSyscalls(Syscalls(alice))
        sys.setgroups([65534])  # would be EPERM raw
        sys.seteuid(100)  # would be EINVAL/EPERM raw
        sys.setresgid(100, 100, 100)
        assert alice.cred.euid == 1000  # nothing actually changed

    def test_inherited_across_fork(self, login, alice):
        parent = SeccompSyscalls(Syscalls(alice))
        child_proc = alice.fork()
        child = parent.clone_for(child_proc)
        assert isinstance(child, SeccompSyscalls)
        assert not isinstance(child, FakerootSyscalls)
        assert child.proc is child_proc
        child.setgroups([65534])  # still faked in the child
        assert child_proc.cred.groups == alice.cred.groups

    def test_mknod_and_chown_lies(self, login, alice):
        """Both calls succeed and change nothing: the wrapper stats what
        the raw kernel stats, and the faked device does not exist."""
        sys = SeccompSyscalls(Syscalls(alice))
        raw = Syscalls(alice)
        sys.write_file("/home/alice/f", b"")
        sys.chown("/home/alice/f", 12, 13)
        sys.mknod("/home/alice/dev", FileType.BLK, rdev=(8, 0))
        assert sys.stat("/home/alice/f") == raw.stat("/home/alice/f")
        assert raw.stat("/home/alice/f").kuid == 1000
        assert not raw.exists("/home/alice/dev")

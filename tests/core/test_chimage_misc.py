"""ch-image storage, push flattening, ch-run, force detection, CLI."""

import pytest

from repro.archive import TarArchive
from repro.cluster import make_machine
from repro.containers import ImageRef
from repro.core import (
    ChImage,
    ChRun,
    DEBDERIV,
    RHEL7,
    ch_image_cli,
    detect_config,
    push_image,
)
from repro.fakeroot import FAKEROOT_CLASSIC, FakerootSyscalls
from repro.kernel import Syscalls
from tests.conftest import FIG2_DOCKERFILE


@pytest.fixture
def ch(login, alice):
    return ChImage(login, alice)


class TestStorage:
    def test_pull_flattens_to_user(self, ch):
        path = ch.pull("centos:7")
        st = ch.sys.stat(f"{path}/etc/redhat-release")
        assert (st.kuid, st.kgid) == (1000, 1000)

    def test_pull_idempotent(self, ch):
        assert ch.pull("centos:7") == ch.pull("centos:7")

    def test_list_and_delete(self, ch):
        ch.pull("centos:7")
        assert "centos:7" in ch.storage.list_images()
        ch.storage.delete("centos:7")
        assert "centos:7" not in ch.storage.list_images()

    def test_copy_is_independent(self, ch):
        ch.pull("centos:7")
        ch.storage.copy("centos:7", "work")
        work = ch.storage.path_of("work")
        ch.sys.write_file(f"{work}/marker", b"x")
        base = ch.storage.path_of("centos:7")
        assert not ch.sys.exists(f"{base}/marker")

    def test_storage_dir_layout(self, ch):
        ch.pull("centos:7")
        assert ch.storage.root == "/var/tmp/alice.ch"
        assert ch.sys.exists("/var/tmp/alice.ch/img/centos+7")


class TestForceDetection:
    def test_rhel7_matches_centos(self, ch):
        path = ch.pull("centos:7")
        assert detect_config(ch.sys, path) is RHEL7

    def test_debderiv_matches_buster(self, ch):
        path = ch.pull("debian:buster")
        assert detect_config(ch.sys, path) is DEBDERIV

    def test_no_match(self, ch):
        path = ch.pull("centos:7")
        ch.sys.unlink(f"{path}/etc/redhat-release")
        assert detect_config(ch.sys, path) is None

    def test_rhel7_regex_is_specific(self, ch):
        path = ch.pull("centos:7")
        ch.sys.write_file(f"{path}/etc/redhat-release",
                          b"CentOS Linux release 8.4\n")
        assert detect_config(ch.sys, path) is None

    def test_run_keywords(self):
        assert RHEL7.run_modifiable("yum install -y x")
        assert RHEL7.run_modifiable("rpm -i pkg.rpm")
        assert not RHEL7.run_modifiable("echo hello")
        assert DEBDERIV.run_modifiable("apt-get update")
        assert not DEBDERIV.run_modifiable("make install")


class TestPush:
    def test_push_flattens_ownership(self, ch, world):
        """§6.1: push changes ownership to root:root and clears
        setuid/setgid bits to avoid leaking site IDs."""
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success
        push_image(ch.storage, "foo", "gitlab.example.gov/alice/foo:v1")
        config, layers = world.site_registry.pull("alice/foo:v1")
        assert len(layers) == 1  # single layer, unlike Podman
        for m in layers[0]:
            assert (m.uid, m.gid) == (0, 0)
            assert not m.mode & 0o6000

    def test_fakeroot_remains_in_image(self, ch, world):
        """§6.1 complication: 'fakeroot(1) is installed into the image'."""
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success
        push_image(ch.storage, "foo", "gitlab.example.gov/alice/foo:v1")
        _, layers = world.site_registry.pull("alice/foo:v1")
        assert any(m.path == "usr/bin/fakeroot" for m in layers[0])

    def test_ownership_preserving_push(self, ch, alice, world):
        """§6.2.2 extension: push using fakeroot's lie database."""
        path = ch.pull("centos:7")
        fr = FakerootSyscalls(Syscalls(alice), FAKEROOT_CLASSIC)
        fr.write_file(f"{path}/srv-file", b"x")
        fr.chown(f"{path}/srv-file", 48, 48)
        push_image(ch.storage, "centos:7",
                   "gitlab.example.gov/alice/keep:v1", fakeroot_db=fr.db)
        _, layers = world.site_registry.pull("alice/keep:v1")
        member = layers[0].member("srv-file")
        assert (member.uid, member.gid) == (48, 48)

    def test_push_unknown_image(self, ch):
        from repro.errors import RegistryError
        with pytest.raises(RegistryError):
            push_image(ch.storage, "nope", "gitlab.example.gov/a/b:1")


class TestChRun:
    def test_run_in_pulled_image(self, ch, login, alice):
        path = ch.pull("centos:7")
        run = ChRun(login, alice)
        res = run.run(path, ["cat", "/etc/redhat-release"])
        assert res.status == 0
        assert "CentOS Linux release 7" in res.output

    def test_identity_is_container_root(self, ch, login, alice):
        path = ch.pull("centos:7")
        res = ChRun(login, alice).run(path, ["id", "-u"])
        assert res.output.strip() == "0"

    def test_bind_mount(self, ch, login, alice):
        Syscalls(alice).write_file("/home/alice/data.txt", b"input")
        path = ch.pull("centos:7")
        ch.sys.mkdir_p(f"{path}/mnt")
        res = ChRun(login, alice).run(
            path, ["cat", "/mnt/data.txt"],
            binds=[("/home/alice", "/mnt")])
        assert res.status == 0
        assert res.output == "input"

    def test_bad_image_path(self, login, alice):
        res = ChRun(login, alice).run("/no/such/dir", ["true"])
        assert res.status == 125

    def test_container_cannot_touch_host_etc(self, ch, login, alice):
        """Type III safety: container root is powerless on the host."""
        path = ch.pull("centos:7")
        ch.sys.mkdir_p(f"{path}/host-etc")
        res = ChRun(login, alice).run(
            path, ["/bin/sh", "-c", "echo pwned > /host-etc/motd"],
            binds=[("/etc", "/host-etc")])
        assert res.status != 0
        host_sys = Syscalls(login.kernel.init_process)
        assert not host_sys.exists("/etc/motd")


class TestCli:
    def test_build_via_cli(self, ch, alice):
        Syscalls(alice).write_file("/home/alice/centos7.dockerfile",
                                   FIG2_DOCKERFILE.encode())
        status, out = ch_image_cli(
            ch, ["build", "--force", "-t", "foo", "-f",
                 "/home/alice/centos7.dockerfile", "."])
        assert status == 0
        assert "grown in 3 instructions: foo" in out

    def test_build_profile_prints_the_walker_table(self, world):
        """``--profile`` appends the snapshot walker's counters for this
        build: a cold cached build walks the base once in full and hashes
        every member (the journal walker is a fast path, so the node is
        built fast whatever ``REPRO_SIM_REFERENCE`` says)."""
        login = make_machine("login1", network=world.network, fast=True)
        alice = login.login("alice")
        Syscalls(alice).write_file(
            "/home/alice/Dockerfile",
            b"FROM centos:7\nRUN echo a > /a\nRUN echo b > /b\n")
        status, out = ch_image_cli(
            ChImage(login, alice, cache=True),
            ["build", "--profile", "-t", "foo", "-f",
             "/home/alice/Dockerfile", "."])
        assert status == 0
        assert "grown in 3 instructions: foo" in out
        table = out[out.index("build profile\n"):].splitlines()
        assert table[1].split() == ["category", "event", "count"]
        rows = {tuple(line.split()[:2]): int(line.split()[2])
                for line in table[2:-1]}
        assert rows[("snapshot", "walk_full")] == 1
        assert rows[("snapshot", "walk_dirty")] == 2
        misses = rows[("digest", "memo_miss")]
        assert ("digest", "memo_hit") not in rows
        assert table[-1] == (f"  digest memo hit rate: 0.0% "
                             f"(0 hit / {misses} miss)")

    def test_build_failure_status(self, ch, alice):
        Syscalls(alice).write_file("/home/alice/centos7.dockerfile",
                                   FIG2_DOCKERFILE.encode())
        status, out = ch_image_cli(
            ch, ["build", "-t", "foo", "-f",
                 "/home/alice/centos7.dockerfile", "."])
        assert status == 1
        assert "cpio: chown" in out

    def test_pull_list_delete(self, ch):
        status, out = ch_image_cli(ch, ["pull", "centos:7"])
        assert status == 0
        status, out = ch_image_cli(ch, ["list"])
        assert "centos:7" in out
        status, _ = ch_image_cli(ch, ["delete", "centos:7"])
        assert status == 0

    def test_push_via_cli(self, ch, alice, world):
        ch_image_cli(ch, ["pull", "centos:7"])
        status, out = ch_image_cli(
            ch, ["push", "centos:7", "gitlab.example.gov/alice/c7:1"])
        assert status == 0
        assert "1 layer" in out

    def test_usage_errors(self, ch):
        assert ch_image_cli(ch, [])[0] == 1
        assert ch_image_cli(ch, ["build"])[0] == 1
        assert ch_image_cli(ch, ["frobnicate"])[0] == 1
        assert ch_image_cli(ch, ["pull"])[0] == 1

    @pytest.mark.parametrize("argv,message", [
        (["build", "-f", "/x", "-t"], "ch-image: -t needs a value"),
        (["build", "-t", "foo", "-f"], "ch-image: -f needs a value"),
        (["build", "-t", "foo", "-f", "/x", "--fault-plan"],
         "ch-image: --fault-plan needs a value"),
        (["build", "--parallel", "0", "-t", "foo", "-f", "/x"],
         "ch-image: bad --parallel value '0'"),
        (["build", "--parallel"], "ch-image: bad --parallel value ''"),
        (["build", "--retries=-1", "-t", "foo", "-f", "/x"],
         "ch-image: bad --retries value '-1'"),
        (["build", "--trace", "-f", "/x", "-t"],
         "ch-image: -t needs a value"),
        (["build", "--trace", "--parallel", "0", "-t", "a", "-f", "/x"],
         "ch-image: bad --parallel value '0'"),
    ])
    def test_build_flag_errors(self, ch, argv, message):
        """A trailing -t/-f is an error, not an IndexError; the other
        flag errors keep their exact text.  A rejected build attaches no
        tracer, even with --trace before the bad flag."""
        before = ch.machine.kernel.tracer   # None unless REPRO_TRACE=1
        assert ch_image_cli(ch, argv) == (1, message)
        assert ch.machine.kernel.tracer is before

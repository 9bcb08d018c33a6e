"""Rootless Podman/Buildah integration tests: the Type II story of §4."""

import pytest

from repro.cluster import make_machine
from repro.containers import Podman, PodmanError, enter_container
from repro.errors import RegistryError
from repro.kernel import OVERFLOW_UID
from tests.conftest import FIG2_DOCKERFILE, FIG3_DOCKERFILE, FIG5_DOCKERFILE


@pytest.fixture
def podman(login, alice):
    return Podman(login, alice)


class TestRootlessSetup:
    def test_uid_map_matches_figure4_shape(self, podman, login):
        """Figure 4: 0 -> user, 1..65536 -> subordinate range."""
        entries = podman.uid_map()
        assert entries[0].inside_start == 0
        assert entries[0].outside_start == 1000
        assert entries[0].count == 1
        assert entries[1].inside_start == 1
        assert entries[1].count == 65536
        subuid = login.root_sys().read_file("/etc/subuid").decode()
        assert any(line.startswith("alice:") and line.endswith(":65536")
                   for line in subuid.splitlines())
        # the map needs user namespaces enabled at all (§4.1)
        assert login.kernel.sysctl["user.max_user_namespaces"] > 0

    def test_refuses_without_subids(self, world):
        """§4.1: mappings must be configured by the administrator."""
        m = make_machine("nosubids", network=world.network, subids=False)
        with pytest.raises(PodmanError) as exc:
            Podman(m, m.login("alice"))
        assert "subordinate" in str(exc.value).lower() or \
            "/etc/subuid" in str(exc.value)

    def test_unprivileged_mode_single_map(self, login):
        """Figure 5: unprivileged mode maps exactly one UID."""
        p = Podman(login, login.login("bob"), unprivileged=True,
                   ignore_chown_errors=True)
        entries = p.uid_map()
        assert len(entries) == 1
        assert entries[0].count == 1
        assert entries[0].outside_start == 1001  # bob himself


class TestBuild:
    def test_figure2_builds_type2(self, podman):
        """§4.1: 'the examples detailed in Figures 2 and 3 will both
        succeed as expected when executed by a normal, unprivileged user'."""
        res = podman.build(FIG2_DOCKERFILE, "foo")
        assert res.success, res.text
        assert "Complete!" in res.text

    def test_figure3_builds_type2(self, podman):
        res = podman.build(FIG3_DOCKERFILE, "bar")
        assert res.success, res.text
        assert "Setting up openssh-client" in res.text

    def test_file_capabilities_applied_via_fuse_overlay(self, podman):
        res = podman.build(FIG3_DOCKERFILE, "caps")
        assert res.success
        tree = podman.buildah.image_tree("caps")
        val = podman.buildah.driver.sys.getxattr(
            f"{tree}/usr/lib/openssh/ssh-keysign", "security.capability")
        assert val == b"cap_net_bind_service+ep"

    def test_multi_layer_manifest(self, podman, world):
        res = podman.build(FIG2_DOCKERFILE, "foo")
        assert res.success
        manifest = podman.push("foo", "gitlab.example.gov/alice/foo:1")
        # base layer + one per executed instruction
        assert manifest.layer_count == 1 + res.instructions_run

    def test_unknown_base_image(self, podman):
        res = podman.build("FROM nosuch:1\nRUN true\n", "x")
        assert not res.success

    def test_failing_run_reports_step(self, podman):
        res = podman.build("FROM centos:7\nRUN false\n", "x")
        assert not res.success
        assert 'STEP "RUN false"' in res.error

    def test_build_cache_hits_on_rebuild(self, podman):
        r1 = podman.build(FIG2_DOCKERFILE, "foo")
        assert r1.cache_hits == 0
        r2 = podman.build(FIG2_DOCKERFILE, "foo2")
        assert r2.success
        assert r2.cache_hits == 2  # both RUNs cached
        assert "Using cache" in r2.text

    def test_cache_disabled(self, login, alice):
        p = Podman(login, alice, layers_cache=False)
        p.build(FIG2_DOCKERFILE, "a")
        r2 = p.build(FIG2_DOCKERFILE, "b")
        assert r2.cache_hits == 0

    def test_env_and_workdir(self, podman):
        df = ("FROM centos:7\nENV GREETING=hi\nWORKDIR /data\n"
              "RUN echo $GREETING > msg\n")
        res = podman.build(df, "envtest")
        assert res.success, res.text
        tree = podman.buildah.image_tree("envtest")
        assert podman.buildah.driver.sys.read_file(
            f"{tree}/data/msg") == b"hi\n"

    def test_copy_from_host(self, podman, alice, login):
        from repro.kernel import Syscalls
        Syscalls(alice).write_file("/home/alice/app.conf", b"conf")
        res = podman.build(
            "FROM centos:7\nCOPY /home/alice/app.conf /etc/app.conf\n",
            "copytest")
        assert res.success, res.text
        tree = podman.buildah.image_tree("copytest")
        assert podman.buildah.driver.sys.read_file(
            f"{tree}/etc/app.conf") == b"conf"


class TestUnprivilegedMode:
    def test_openssh_works_with_ignore_chown(self, login):
        """§4.1.1: the single-ID mode + --ignore_chown_errors squashes
        ownership but lets plain chown-only packages install."""
        p = Podman(login, login.login("bob"), unprivileged=True,
                   ignore_chown_errors=True)
        res = p.build(FIG2_DOCKERFILE, "foo")
        assert res.success, res.text
        tree = p.buildah.image_tree("foo")
        st = p.buildah.driver.sys.stat(
            f"{tree}/usr/libexec/openssh/ssh-keysign")
        assert st.kuid == 1001  # squashed to bob, not a subordinate ID

    def test_openssh_server_fails_proc_nobody(self, login):
        """Figure 5: openssh-server fails because /proc is owned by
        nobody in the single-ID namespace."""
        bob = login.login("bob")
        p = Podman(login, bob, unprivileged=True, ignore_chown_errors=True)
        res = p.build(FIG5_DOCKERFILE, "srv")
        assert not res.success
        assert "Permission denied" in res.text
        # the mechanism: inside the build's namespace /proc is nobody's
        tree = p.buildah.driver.image_path("centos:7")
        ctx = enter_container(bob, tree, "type3", dev_fs=login.dev_fs,
                              join_userns=p.buildah._storage_proc.cred.userns)
        st = ctx.sys.stat("/proc/sys/net/ipv4/ip_forward")
        assert st.st_uid == OVERFLOW_UID

    def test_without_ignore_chown_fails(self, login):
        p = Podman(login, login.login("bob"), unprivileged=True,
                   ignore_chown_errors=False)
        res = p.build(FIG2_DOCKERFILE, "foo")
        assert not res.success


class TestRun:
    def test_run_fork_exec_no_daemon(self, podman, login):
        res = podman.build(
            "FROM centos:7\nRUN yum install -y gcc openmpi atse hdf5\n",
            "atse")
        assert res.success, res.text
        out = podman.run("atse", ["/opt/atse/bin/atse-info"])
        assert out.status == 0, out.output
        assert "ATSE" in out.output
        # no dockerd anywhere on the machine
        assert not any(p.comm == "dockerd"
                       for p in login.kernel.processes.values())

    def test_run_sees_root_identity(self, podman):
        podman.build("FROM centos:7\nRUN true\n", "base")
        out = podman.run("base", ["id", "-u"])
        assert out.output.strip() == "0"

    def test_push_and_pull_roundtrip(self, podman, world, login):
        res = podman.build(FIG2_DOCKERFILE, "foo")
        assert res.success
        podman.push("foo", "gitlab.example.gov/alice/foo:v1")
        assert world.site_registry.has("alice/foo:v1")
        p2 = Podman(login, login.login("bob"))
        img = p2.pull("gitlab.example.gov/alice/foo:v1")
        assert p2.buildah.driver.sys.exists(
            f"{img.tree_path}/usr/bin/ssh")

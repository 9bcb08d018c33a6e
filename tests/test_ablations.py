"""The design choices §3-§6 of the paper call out, as ablations A1-A9.

One class per ablation id (DESIGN.md's index points here).  Each class
holds the ablation's comparison: both arms, measured in one world.  A
single arm that another module already pins (a build that merely
succeeds or fails) is not repeated here; the class docstring names that
test instead.
"""

import pytest

from repro.cluster import EphemeralVmBuilder, make_machine, make_world
from repro.containers import DAEMON_STARTUP_TICKS, DockerDaemon, Podman
from repro.containers import enter_container
from repro.core import ChImage, push_image
from repro.kernel import make_nfs
from repro.obs import attach_tracer
from repro.shell import OutputSink, execute
from tests.cluster.test_sandbox import LICENSED_DOCKERFILE
from tests.conftest import ATSE_DOCKERFILE, FIG2_DOCKERFILE

#: RUN instructions in the ATSE Dockerfile: one cache record each
N_RUNS = ATSE_DOCKERFILE.count("RUN ")


class TestA1StorageDrivers:
    """§4.1: "Podman can also use the VFS driver, however this
    implementation is much slower and has significant storage overhead."
    Driver-level accounting: ``tests/containers/test_storage.py``."""

    def test_vfs_costs_more_than_overlay(self, login):
        vfs = Podman(login, login.login("alice"), driver="vfs",
                     layers_cache=False)
        ovl = Podman(login, login.login("bob"), driver="overlay",
                     layers_cache=False)
        assert vfs.build(ATSE_DOCKERFILE, "a").success
        assert ovl.build(ATSE_DOCKERFILE, "b").success
        v, o = vfs.buildah.driver.stats, ovl.buildah.driver.stats
        # vfs duplicates the tree per instruction; overlay stores diffs
        assert v.storage_bytes > 5 * o.storage_bytes
        assert v.bytes_copied > 2 * o.bytes_copied
        # the simulated cost model (metadata + bytes, FUSE overhead too)
        assert vfs.buildah.driver.simulated_cost() \
            > ovl.buildah.driver.simulated_cost()


class TestA2BuildCache:
    """§6.1: "Charliecloud lacks a per-instruction build cache, in
    contrast to other leading Dockerfile interpreters including Podman and
    Docker.  This caching can greatly accelerate repetitive builds."
    That ``ch-image`` without a cache re-executes every RUN is
    ``tests/core/test_extensions.py::TestChImageBuildCache::
    test_default_is_no_cache``."""

    def test_podman_cached_rebuild_runs_nothing(self, login):
        """Rebuild cost as a syscall count, which does not vary from run
        to run the way wall time does.  (Kernel ticks would not show it:
        they count stamped file operations, and applying a cached layer
        stamps as many files as the RUN that made it.)"""
        cached = Podman(login, login.login("alice"))
        uncached = Podman(login, login.login("bob"), layers_cache=False)
        tracer = attach_tracer(login.kernel)
        rebuilds, syscalls = [], []
        for podman in (cached, uncached):
            assert podman.build(ATSE_DOCKERFILE, "warm").success
            tracer.metrics.clear()
            rebuilds.append(podman.build(ATSE_DOCKERFILE, "again"))
            syscalls.append(sum(tracer.metrics.syscalls.values()))
        hit, missed = rebuilds
        assert hit.success and missed.success
        assert hit.cache_hits == N_RUNS and hit.instructions_run == 0
        assert missed.instructions_run == N_RUNS
        assert syscalls[0] < syscalls[1]

    def test_chimage_cache_cold_warm_and_seeded_node(self):
        """The CAS build cache: a warm rebuild executes no RUN and at
        least 85% fewer syscalls than the cold build, and a cache
        exported to the site registry gives a node that never built
        anything a hit on every instruction."""
        world = make_world(arches=("x86_64",))
        ref = "gitlab.example.gov/alice/atse-cache:latest"
        node1 = make_machine("cn001", network=world.network)
        ch1 = ChImage(node1, node1.login("alice"), cache=True)
        tracer = attach_tracer(node1.kernel)
        cold = ch1.build(tag="cold", dockerfile=ATSE_DOCKERFILE, force=True)
        assert cold.success and cold.cache_hits == 0
        cold_syscalls = sum(tracer.metrics.syscalls.values())

        tracer.metrics.clear()
        warm = ch1.build(tag="warm", dockerfile=ATSE_DOCKERFILE, force=True)
        assert warm.success and warm.cache_hits == N_RUNS
        assert sum(tracer.metrics.syscalls.values()) \
            <= cold_syscalls * 0.15
        assert tracer.metrics.counters.get("cache.hit") == N_RUNS

        registry = world.network.registry("gitlab.example.gov")
        ch1.cache.export_to_registry(registry, ref)
        node2 = make_machine("cn002", network=world.network)
        ch2 = ChImage(node2, node2.login("alice"), cache=True)
        assert ch2.cache.import_from_registry(registry, ref) > 0
        seeded = ch2.build(tag="atse", dockerfile=ATSE_DOCKERFILE,
                           force=True)
        assert seeded.success and seeded.cache_hits == N_RUNS


class TestA3DaemonModel:
    """§3.1, §4: client-daemon (Docker) vs fork-exec (Podman,
    Charliecloud).  Process ancestry: ``tests/containers/
    test_docker_runtime.py::TestDockerTypeI::
    test_containers_descend_from_daemon`` and ``tests/containers/
    test_podman_buildah.py::TestRun::test_run_fork_exec_no_daemon``."""

    def test_daemon_startup_cost(self, world):
        m = make_machine("dkr", network=world.network)
        before = m.kernel.ticks
        DockerDaemon(m, docker_group={1000})
        assert m.kernel.ticks - before >= DAEMON_STARTUP_TICKS


class TestA4Layers:
    """§6.1: Charliecloud pushes single-layer flattened images; Podman
    pushes multi-layer OCI images."""

    def test_incremental_push_economics(self, login, world):
        """After a first push, Podman's push of a small change moves far
        fewer bytes than Charliecloud's single-layer re-push; what the
        flattening buys is that no site UID leaks."""
        reg = world.site_registry
        changed = ATSE_DOCKERFILE + "RUN echo tweak > /etc/tweak.conf\n"

        podman = Podman(login, login.login("alice"))
        assert podman.build(ATSE_DOCKERFILE, "app").success
        assert podman.build(changed, "app2").success
        podman.push("app", "gitlab.example.gov/alice/app:v1")
        before = reg.stats.bytes_pushed
        m = podman.push("app2", "gitlab.example.gov/alice/app:v2")
        podman_incremental = reg.stats.bytes_pushed - before
        assert m.layer_count > 1
        assert reg.stats.blobs_push_skipped >= 4  # base + 3 RUN layers

        ch = ChImage(login, login.login("bob"))
        assert ch.build(tag="app", dockerfile=ATSE_DOCKERFILE,
                        force=True).success
        assert ch.build(tag="app2", dockerfile=changed, force=True).success
        push_image(ch.storage, "app", "gitlab.example.gov/bob/app:v1")
        before = reg.stats.bytes_pushed
        m2 = push_image(ch.storage, "app2", "gitlab.example.gov/bob/app:v2")
        ch_incremental = reg.stats.bytes_pushed - before
        assert m2.layer_count == 1
        assert podman_incremental < ch_incremental / 10

        _, layers = reg.pull("bob/app:v1")
        assert {member.uid for layer in layers for member in layer} == {0}


def _machine_with(world, fs, mountpoint="/users"):
    m = make_machine("share", network=world.network)
    m.mount_shared(mountpoint, fs)
    sys0 = m.root_sys()
    sys0.mkdir_p(f"{mountpoint}/alice")
    sys0.chown(f"{mountpoint}/alice", 1000, 1000)
    return m


class TestA5SharedFilesystems:
    """§4.2, §6.1, §6.2.1: Type II storage on shared filesystems.  That
    overlay refuses default NFS and Lustre (no user xattrs) is
    ``tests/containers/test_storage.py::TestOverlay::
    test_refuses_default_nfs`` and ``test_refuses_default_lustre``."""

    def test_vfs_on_nfs_fails_at_chown(self, world):
        """§4.2: 'the filesystem server has no way to enforce the file
        creation of different UIDs on the server side'."""
        m = _machine_with(world, make_nfs("nfs-home"))
        podman = Podman(m, m.login("alice"),
                        storage_dir="/users/alice/containers", driver="vfs")
        result = podman.build(FIG2_DOCKERFILE, "foo")
        # the server rejects the subordinate-UID chown: the Type II
        # advantage is gone and the build dies like a Type III one
        assert not result.success
        assert "cpio: chown" in result.text

    def test_node_local_tmp_works(self, world):
        """Astra's answer: node-local storage beside the NFS home."""
        m = _machine_with(world, make_nfs("nfs-home"))
        podman = Podman(m, m.login("alice"),
                        storage_dir="/tmp/alice-containers")
        result = podman.build(FIG2_DOCKERFILE, "foo")
        assert result.success, result.text

    def test_xattr_enabled_nfs_builds_on_overlay(self, world):
        """§6.2.1: Linux 5.9 + NFSv4.2 xattrs make overlay possible."""
        m = _machine_with(world, make_nfs("nfs42", xattr_support=True))
        podman = Podman(m, m.login("alice"),
                        storage_dir="/users/alice/containers")
        assert podman.build(FIG2_DOCKERFILE, "foo").success


def _sh(ctx, cmd):
    sink = OutputSink()
    status = execute(ctx.child(stdout=sink, stderr=sink),
                     ["/bin/sh", "-c", cmd])
    return status, sink.text()


class TestA6FakerootCoverage:
    """§5.1, §6.2.2: "LD_PRELOAD implementations are
    architecture-independent but cannot wrap statically linked
    executables, while ptrace(2) are the reverse.  We've encountered
    packages that fakeroot cannot install but fakeroot-ng and pseudo
    can."  pseudo's coverage is Figure 9 (``tests/core/
    test_chimage_figures.py::TestFigure9``); fakeroot-ng's missing
    aarch64 support is ``tests/fakeroot/test_fakeroot.py::
    TestEngineQuirks::test_ptrace_engine_rejects_unsupported_arch``."""

    #: package -> whether each engine installs it on CentOS 7, x86_64
    EXPECTED = {
        # chown to a package group / file capabilities (xattr) /
        # chown from a statically linked helper
        "fakeroot": {"openssh": True, "iputils": False, "sash": False},
        "fakeroot-ng": {"openssh": True, "iputils": True, "sash": True},
    }

    @pytest.mark.parametrize("engine", list(EXPECTED))
    def test_engine_package_matrix(self, world, engine):
        login = make_machine(f"m-{engine}", network=world.network)
        alice = login.login("alice")
        tree = ChImage(login, alice).pull("centos:7")
        ctx = enter_container(alice, tree, "type3", dev_fs=login.dev_fs)
        # bootstrap: EPEL and the engine's package, unwrapped
        status, out = _sh(ctx, "yum install -y epel-release && "
                               "yum-config-manager --disable epel && "
                               f"yum --enablerepo=epel install -y {engine}")
        assert status == 0, out
        installed = {pkg: _sh(ctx, f"{engine} yum install -y {pkg}")[0] == 0
                     for pkg in self.EXPECTED[engine]}
        assert installed == self.EXPECTED[engine]


class TestA7Sandbox:
    """§3.2 option 1: sandboxed builders vs building on the HPC
    resource.  Single builds: ``tests/cluster/test_sandbox.py``."""

    def test_licensed_build_needs_the_site_network(self, world):
        """Isolated builders 'may not be able to access needed resources,
        such as private code or licenses'; the login node can."""
        sandboxed = EphemeralVmBuilder(world).build(LICENSED_DOCKERFILE,
                                                    "lic")
        assert not sandboxed.success
        login = make_machine("site-login", network=world.network)
        onsite = Podman(login, login.login("alice")).build(
            LICENSED_DOCKERFILE, "lic")
        assert onsite.success, onsite.text


class TestA8FutureKernel:
    """§6.2.4: with kernel-granted unique subordinate ranges
    (``user.autosub_userns``) a build needs neither Type II helpers nor
    a Type III wrapper.  The mechanism itself is
    ``tests/core/test_extensions.py::TestAutoSubUserns``."""

    def test_three_mechanisms_compared(self, world):
        login = make_machine("cmp", network=world.network)
        alice = login.login("alice")
        plain = ChImage(login, alice).build(tag="p",
                                            dockerfile=FIG2_DOCKERFILE)
        forced = ChImage(login, alice).build(tag="f",
                                             dockerfile=FIG2_DOCKERFILE,
                                             force=True)
        login.kernel.sysctl["user.autosub_userns"] = 1
        future = ChImage(login, alice, auto_map=True).build(
            tag="k", dockerfile=FIG2_DOCKERFILE)
        assert not plain.success
        assert forced.success and forced.modified_runs == 1
        assert future.success and "fakeroot" not in future.text


class TestA9ForceModes:
    """§6.2.2(3): ``--force=fakeroot`` (wrapper installed into the image)
    vs ``--force=seccomp`` (wrapper in the container implementation).
    Single seccomp builds, Debian included: ``tests/core/
    test_seccomp_mode.py``."""

    def test_fakeroot_vs_seccomp(self, world):
        login = make_machine("cmp9", network=world.network)
        alice = login.login("alice")
        fr = ChImage(login, alice)
        sc = ChImage(login, alice, force_mode="seccomp")
        assert fr.build(tag="fr", dockerfile=FIG2_DOCKERFILE,
                        force=True).success
        assert sc.build(tag="sc", dockerfile=FIG2_DOCKERFILE,
                        force=True).success
        # only the fakeroot mode puts its wrapper into the image
        assert fr.sys.exists(f"{fr.storage.path_of('fr')}/usr/bin/fakeroot")
        assert not sc.sys.exists(
            f"{sc.storage.path_of('sc')}/usr/bin/fakeroot")

        # the A6 gaps (file capabilities, a static helper) close
        hard = "FROM centos:7\nRUN yum install -y iputils sash\n"
        assert not fr.build(tag="hfr", dockerfile=hard, force=True).success
        assert sc.build(tag="hsc", dockerfile=hard, force=True).success

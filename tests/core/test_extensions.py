"""Tests for the §6.2 future-work features implemented as extensions:
ch-image build cache, §6.2.4 kernel auto-maps, §6.2.5 registry policy."""

import pytest

from repro.cluster.fleet import deploy_fleet
from repro.containers import Podman, Registry
from repro.core import ChImage, push_image
from repro.errors import KernelError, RegistryError
from repro.kernel import IdMapEntry, Syscalls
from tests.conftest import FIG2_DOCKERFILE


class TestChImageBuildCache:
    """§6.2.2: 'Charliecloud-specific improvements like ... build caching'."""

    def test_cache_hit_skips_execution(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        r1 = ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r1.success, r1.text
        r2 = ch.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r2.success
        assert r2.text.count("RUN: using build cache") == 2
        assert "Installing: openssh" not in r2.text  # yum never re-ran

    def test_cached_result_is_correct(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        ch.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        path = ch.storage.path_of("b")
        assert ch.sys.exists(f"{path}/usr/bin/ssh")

    def test_prefix_change_invalidates(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        changed = FIG2_DOCKERFILE.replace("echo hello", "echo changed")
        r = ch.build(tag="c", dockerfile=changed, force=True)
        assert r.success
        assert "using build cache" not in r.text.split("yum install")[0] or \
            r.text.count("RUN: using build cache") < 2

    def test_force_flag_partitions_cache(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        r = ch.build(tag="d", dockerfile=FIG2_DOCKERFILE, force=False)
        assert not r.success  # no cache hit from the forced build

    def test_default_is_no_cache(self, login, alice):
        ch = ChImage(login, alice)
        ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        r = ch.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r.success  # correct, just re-executed
        assert "using build cache" not in r.text
        assert ch.cache is None

    def test_result_counts_hits(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        r1 = ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r1.cache_hits == 0
        r2 = ch.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r2.cache_hits == 2


class TestBuildCacheSubsystem:
    """The CAS-backed cache: COPY caching, sharing, export/import, GC."""

    COPY_DOCKERFILE = """\
FROM centos:7
COPY /home/alice/hello.txt /opt/
RUN echo hello
"""

    def test_copy_instruction_is_cached(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        ch.sys.write_file("/home/alice/hello.txt", b"hi")
        r1 = ch.build(tag="a", dockerfile=self.COPY_DOCKERFILE)
        assert r1.success, r1.text
        r2 = ch.build(tag="b", dockerfile=self.COPY_DOCKERFILE)
        assert r2.success
        assert r2.text.count("COPY: using build cache") == 1
        assert r2.cache_hits == 2  # the COPY and the RUN
        assert ch.sys.read_file(
            ch.storage.path_of("b") + "/opt/hello.txt") == b"hi"

    def test_copy_content_change_invalidates(self, login, alice):
        """Same instruction text, different bytes: the context digest in
        the key forces a miss (BuildKit context hashing)."""
        ch = ChImage(login, alice, cache=True)
        ch.sys.write_file("/home/alice/hello.txt", b"one")
        ch.build(tag="a", dockerfile=self.COPY_DOCKERFILE)
        ch.sys.write_file("/home/alice/hello.txt", b"two")
        r = ch.build(tag="b", dockerfile=self.COPY_DOCKERFILE)
        assert r.success
        assert "COPY: using build cache" not in r.text
        assert ch.sys.read_file(
            ch.storage.path_of("b") + "/opt/hello.txt") == b"two"

    def test_shared_cache_across_users(self, login):
        """One machine-wide BuildCache: bob hits on alice's instructions
        (keys root in the base image's manifest digest, not in any
        user-local state)."""
        from repro.cas import BuildCache
        shared = BuildCache()
        alice = login.login("alice")
        bob = login.login("bob")
        ch_a = ChImage(login, alice, cache=True, build_cache=shared)
        ch_b = ChImage(login, bob, cache=True, build_cache=shared)
        r1 = ch_a.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r1.success
        r2 = ch_b.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r2.success
        assert r2.cache_hits == 2

    def test_export_import_hits_in_fresh_builder(self, login, alice):
        """The acceptance path: export from one ChImage, import into a
        fresh one (own storage, own cache) — every unchanged instruction
        hits."""
        from repro.containers import Registry
        ch1 = ChImage(login, alice, cache=True)
        r1 = ch1.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r1.success
        registry = Registry("site")
        ch1.cache.export_to_registry(registry, "alice/cache:latest")

        ch2 = ChImage(login, alice, storage_dir="/var/tmp/alice2.ch",
                      cache=True)
        ch2.cache.import_from_registry(registry, "alice/cache:latest")
        r2 = ch2.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r2.success
        assert r2.cache_hits == 2
        assert r2.text.count("RUN: using build cache") == 2
        # and the imported result is real: the install happened
        assert ch2.sys.exists(ch2.storage.path_of("a") + "/usr/bin/ssh")

    def test_eviction_degrades_to_miss_not_failure(self, login, alice):
        ch = ChImage(login, alice, cache=True, cache_max_bytes=1)
        r1 = ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r1.success
        r2 = ch.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        assert r2.success  # everything re-ran; nothing broke
        assert ch.cache.stats.dropped_records > 0

    def test_cache_metrics_and_spans(self, login, alice):
        ch = ChImage(login, alice, cache=True)
        tracer = ch.enable_tracing()
        ch.build(tag="a", dockerfile=FIG2_DOCKERFILE, force=True)
        ch.build(tag="b", dockerfile=FIG2_DOCKERFILE, force=True)
        m = tracer.metrics.snapshot()["counters"]
        assert m["cache.miss"] == m["cache.store"] == m["cache.hit"] == 2
        cache_spans = [s for root in tracer.roots for s in root.walk()
                       if s.kind == "cache"]
        assert any(s.meta.get("result") == "hit" for s in cache_spans)


class TestBuildCacheCli:
    def _build(self, login, alice, *, cache=True):
        from repro.core.cli import ch_image_cli
        ch = ChImage(login, alice, cache=cache)
        ch.sys.write_file("/home/alice/Dockerfile",
                          FIG2_DOCKERFILE.encode())
        status, out = ch_image_cli(
            ch, ["build", "--force", "-t", "a", "-f",
                 "/home/alice/Dockerfile", "."])
        assert status == 0, out
        return ch

    def test_summary_and_tree(self, login, alice):
        from repro.core.cli import ch_image_cli
        ch = self._build(login, alice)
        status, out = ch_image_cli(ch, ["build-cache"])
        assert status == 0 and "records:       2" in out
        status, tree = ch_image_cli(ch, ["build-cache", "--tree"])
        assert status == 0
        assert "RUN yum install -y openssh" in tree
        assert "(a)" in tree  # the tag marks the chain tip

    def test_delete_untags_and_gc_reclaims(self, login, alice):
        from repro.core.cli import ch_image_cli
        ch = self._build(login, alice)
        status, out = ch_image_cli(ch, ["build-cache", "--gc"])
        assert status == 0 and "0 records" in out  # tag keeps it alive
        status, _ = ch_image_cli(ch, ["delete", "a"])
        assert status == 0
        status, out = ch_image_cli(ch, ["build-cache", "--gc"])
        assert status == 0 and "2 records" in out
        assert ch.cache.store.blob_count == 0

    def test_reset(self, login, alice):
        from repro.core.cli import ch_image_cli
        ch = self._build(login, alice)
        status, out = ch_image_cli(ch, ["build-cache", "--reset"])
        assert status == 0 and "dropped 2 records" in out
        assert not ch.cache.records

    def test_export_import_via_cli(self, login, alice):
        from repro.core.cli import ch_image_cli
        ch = self._build(login, alice)
        ref = "gitlab.example.gov/alice/cache:latest"
        status, out = ch_image_cli(ch, ["build-cache", "export", ref])
        assert status == 0 and "exported 2 records" in out

        ch2 = ChImage(login, login.login("bob"), cache=True)
        status, out = ch_image_cli(ch2, ["build-cache", "import", ref])
        assert status == 0 and "imported 2 records" in out
        assert ch2.cache.keys() == ch.cache.keys()

    def test_disabled_cache_errors(self, login, alice):
        from repro.core.cli import ch_image_cli
        ch = ChImage(login, alice)
        status, out = ch_image_cli(ch, ["build-cache"])
        assert status == 1 and "not enabled" in out


class TestAutoSubUserns:
    """§6.2.4: kernel-provided guaranteed-unique ID maps, no helpers."""

    def test_disabled_by_default(self, login, alice):
        sys = Syscalls(alice.fork())
        sys.unshare_user()
        start, count = login.kernel.autosub_range(1000)
        with pytest.raises(KernelError):
            sys.write_uid_map([IdMapEntry(0, 1000, 1),
                               IdMapEntry(1, start, count)])

    def test_enabled_grants_full_map(self, login, alice):
        login.kernel.sysctl["user.autosub_userns"] = 1
        sys = Syscalls(alice.fork())
        ns = sys.setup_auto_userns()
        assert sys.geteuid() == 0
        start, _ = login.kernel.autosub_range(1000)
        assert ns.uid_to_host(1) == start
        assert ns.uid_to_host(65535) == start + 65534

    def test_ranges_unique_per_user(self, login):
        login.kernel.sysctl["user.autosub_userns"] = 1
        a = login.kernel.autosub_range(1000)
        b = login.kernel.autosub_range(1001)
        assert a[0] + a[1] <= b[0]  # disjoint by construction

    def test_wrong_range_still_rejected(self, login, alice):
        """Only the caller's own kernel-derived range is granted."""
        login.kernel.sysctl["user.autosub_userns"] = 1
        sys = Syscalls(alice.fork())
        sys.unshare_user()
        other_start, count = login.kernel.autosub_range(1001)  # bob's!
        with pytest.raises(KernelError):
            sys.write_uid_map([IdMapEntry(0, 1000, 1),
                               IdMapEntry(1, other_start, count)])

    def test_gid_map_requires_setgroups_deny(self, login, alice):
        """The §2.1.4 trap stays closed even with kernel grants."""
        login.kernel.sysctl["user.autosub_userns"] = 1
        sys = Syscalls(alice.fork())
        sys.unshare_user()
        start, count = login.kernel.autosub_range(1000)
        sys.write_uid_map([IdMapEntry(0, 1000, 1),
                           IdMapEntry(1, start, count)])
        with pytest.raises(KernelError):
            sys.write_gid_map([IdMapEntry(0, 1000, 1),
                               IdMapEntry(1, start, count)])
        sys.deny_setgroups()
        sys.write_gid_map([IdMapEntry(0, 1000, 1),
                           IdMapEntry(1, start, count)])

    def test_chimage_auto_map_builds_without_fakeroot(self, login, alice):
        """The payoff: with future-kernel maps, the Figure 2 Dockerfile
        builds unprivileged with NO fakeroot and NO --force — 'eliminating
        the need for Type II privileged code or Type III wrappers'."""
        login.kernel.sysctl["user.autosub_userns"] = 1
        ch = ChImage(login, alice, auto_map=True)
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE, force=False)
        assert r.success, r.text
        assert "fakeroot" not in r.text
        # correct in-image ownership, stored at kernel-granted host IDs
        path = ch.storage.path_of("foo")
        st = ch.sys.stat(f"{path}/usr/libexec/openssh/ssh-keysign")
        start, _ = login.kernel.autosub_range(1000)
        assert st.kgid >= start

    def test_auto_map_without_sysctl_fails_gracefully(self, login, alice):
        ch = ChImage(login, alice, auto_map=True)
        r = ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE)
        assert not r.success


class TestRegistryOwnershipPolicy:
    """§6.2.5: explicit marking of ownership-flattened images."""

    def test_flattened_push_accepted(self, login, alice, world):
        world.site_registry.set_repo_policy("alice/safe",
                                            require_flattened=True)
        ch = ChImage(login, alice)
        assert ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE,
                        force=True).success
        push_image(ch.storage, "foo", "gitlab.example.gov/alice/safe:v1")
        assert world.site_registry.has("alice/safe:v1")

    def test_unflattened_push_rejected(self, login, alice, world):
        world.site_registry.set_repo_policy("alice/safe",
                                            require_flattened=True)
        podman = Podman(login, alice)
        assert podman.build(FIG2_DOCKERFILE, "foo").success
        with pytest.raises(RegistryError) as exc:
            podman.push("foo", "gitlab.example.gov/alice/safe:v1")
        assert "ownership-flattened" in str(exc.value)

    def test_policy_scoped_per_repo(self, login, alice, world):
        world.site_registry.set_repo_policy("alice/safe",
                                            require_flattened=True)
        podman = Podman(login, alice)
        assert podman.build(FIG2_DOCKERFILE, "foo").success
        podman.push("foo", "gitlab.example.gov/alice/other:v1")  # fine


class TestFleetOwnershipPolicy:
    """§6.2.5 on a sharded site registry: the marks survive
    ``deploy_fleet`` and the fleet's front door enforces them."""

    def test_policy_carries_over_to_the_fleet(self, login, alice, world):
        world.site_registry.set_repo_policy("alice/safe",
                                            require_flattened=True)
        fleet = deploy_fleet(world, n_shards=3, replicas=2)
        podman = Podman(login, alice)
        assert podman.build(FIG2_DOCKERFILE, "foo").success
        with pytest.raises(RegistryError) as exc:
            podman.push("foo", "gitlab.example.gov/alice/safe:v1")
        assert "ownership-flattened" in str(exc.value)
        assert not fleet.has("alice/safe:v1")
        podman.push("foo", "gitlab.example.gov/alice/other:v1")  # fine
        assert fleet.has("alice/other:v1")

    def test_flattened_push_accepted_by_fleet(self, login, alice, world):
        fleet = deploy_fleet(world, n_shards=3, replicas=2)
        fleet.set_repo_policy("alice/safe", require_flattened=True)
        ch = ChImage(login, alice)
        assert ch.build(tag="foo", dockerfile=FIG2_DOCKERFILE,
                        force=True).success
        push_image(ch.storage, "foo", "gitlab.example.gov/alice/safe:v1")
        assert fleet.has("alice/safe:v1")

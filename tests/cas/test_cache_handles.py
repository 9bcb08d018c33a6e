"""Builders sharing one BuildCache, and single-flight bookkeeping.

Every builder handed a shared cache uses the cache itself, so the cache
keeps one set of counters.  Builds run synchronously, so the traffic of
one build is exactly the ``stats.delta`` taken around it: the deltas of
builds that take turns on the cache sum to its stats.
"""

from repro.archive import FileType, TarArchive, TarMember
from repro.cas import BuildCache
from repro.core import ChImage

from tests.conftest import FIG2_DOCKERFILE


def mini_diff() -> TarArchive:
    return TarArchive([TarMember(path="x", ftype=FileType.REG, mode=0o644,
                                 uid=0, gid=0, data=b"payload")])


class TestSharedCache:
    def _builds_in_turn(self, login):
        """alice then bob build FIG2 on one shared cache; returns the
        cache and each build's (result, stats delta)."""
        cache = BuildCache()
        builders = [ChImage(login, login.login(user), build_cache=cache)
                    for user in ("alice", "bob")]
        builds = []
        for tag, ch in zip(("a", "b"), builders):
            before = cache.stats.copy()
            result = ch.build(tag=tag, dockerfile=FIG2_DOCKERFILE,
                              force=True)
            assert result.success
            builds.append((result, cache.stats.delta(before)))
        return cache, builders, builds

    def test_builder_uses_the_shared_cache_itself(self, login):
        cache, builders, _ = self._builds_in_turn(login)
        assert all(ch.cache is cache for ch in builders)

    def test_cache_stats_are_the_sum_of_build_deltas(self, login):
        cache, _, builds = self._builds_in_turn(login)
        total = {k: sum(d.as_dict()[k] for _, d in builds)
                 for k in cache.stats.as_dict()}
        assert cache.stats.as_dict() == total
        assert total["stores"] > 0 and total["hits"] > 0

    def test_each_delta_counts_its_own_builds_hits(self, login):
        _, _, builds = self._builds_in_turn(login)
        for result, delta in builds:
            assert delta.hits == result.cache_hits
        (cold, cold_delta), (warm, warm_delta) = builds
        assert cold.cache_hits == 0 and cold_delta.stores > 0
        assert warm.cache_hits > 0 and warm_delta.stores == 0

    def test_summary_reads_the_cache_stats(self):
        cache = BuildCache()
        key = cache.begin("sha256:base")
        cache.store_diff(key, "RUN", "echo hi", mini_diff())
        cache.lookup(key)
        text = cache.summary()
        assert "inflight hits:" in text
        assert "hits/misses:   1/0" in text
        assert "stores:        1" in text
        assert "handles:" not in text


class TestSingleFlight:
    def test_leader_then_waiters(self):
        cache = BuildCache()
        assert cache.flight_begin("k")          # leader
        assert not cache.flight_begin("k")      # follower: already flying
        assert cache.flight_in_progress("k")
        cache.flight_wait("k", "t1")
        cache.flight_wait("k", "t2")
        assert cache.flight_finish("k") == ["t1", "t2"]
        assert not cache.flight_in_progress("k")
        assert cache.flight_begin("k")          # new flight allowed

    def test_finish_without_flight_is_empty(self):
        cache = BuildCache()
        assert cache.flight_finish("ghost") == []

    def test_inflight_hits_in_as_dict(self):
        cache = BuildCache()
        cache.note_inflight_hit()
        assert cache.stats.as_dict()["inflight_hits"] == 1

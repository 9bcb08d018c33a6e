"""Cold-build scaling: the journal-walker ablation on a 10k-file image.

A cache-enabled cold build snapshots the image tree at every instruction
boundary to derive cache keys and layer diffs.  The reference oracle
packs and hashes the whole tree each time — O(tree x instructions).  The
incremental walker consults the VFS change journal and re-hashes only
what changed — O(tree + changes).  This benchmark builds a Dockerfile of
``N_INSTRUCTIONS`` small RUNs on a ``N_FILES``-file base image both
ways, asserting **bit-identical** image trees, cache keys, and cached
diff blobs while timing the two, and gates on the walker being
**>= 5x** faster end-to-end.

A second cold build follows in the same world (a new nonce in the first
RUN, so every instruction misses again, on the same base): the steady
state of a long-lived builder.  Its FROM clone inherits the base's
snapshot, so it walks nothing in full and hashes about one member per
RUN.  The clone itself is one journal generation plus the touch linking
it in: ``clone_gens`` counts the filesystem generations one FROM clone
of the base takes (two, not two per inode).

Emits ``BENCH_coldbuild.json``; ``benchmarks/gate.py`` gates it on speedup
no worse than 0.9x the committed baseline, digest identity, and full
walks, hashed members and clone generations that may not grow.
"""

import time

from repro.cas.diff import snapshot_digest, snapshot_tree
from repro.cluster import make_machine, make_world
from repro.core import ChImage
from repro.sim.profile import COUNTERS

from .conftest import report, write_bench

BASE = "bigbase:1"
N_DIRS = 100
FILES_PER_DIR = 100
N_FILES = N_DIRS * FILES_PER_DIR
N_INSTRUCTIONS = 12


def dockerfile(nonce: str = "") -> str:
    """``N_INSTRUCTIONS`` small RUNs; *nonce* goes into the first, so a
    new nonce misses the cache at every instruction."""
    return f"FROM {BASE}\n" + "".join(
        f"RUN echo build-step-{i}{nonce if i == 0 else ''} > /out{i}.txt\n"
        for i in range(N_INSTRUCTIONS))


def _make_base(storage) -> None:
    """Materialize the base image directly in storage (``pull`` returns
    early for images already present) with a pinned identity digest, the
    way a registry pull would record the manifest digest: a centos:7
    userland plus ``N_FILES`` library files."""
    storage.pull("centos:7")
    storage.copy("centos:7", BASE)
    path = storage.path_of(BASE)
    sys = storage.sys
    for d in range(N_DIRS):
        dirpath = f"{path}/pkg{d:03d}"
        sys.mkdir(dirpath, 0o755)
        for f in range(FILES_PER_DIR):
            sys.write_file(f"{dirpath}/lib{f:03d}.so",
                           f"elf {d}/{f} ".encode() * 8)
    storage.set_digest(BASE, "sha256:" + "ab" * 32)


def _clone_gens(storage) -> int:
    """The storage filesystem's ``gen`` delta over one FROM clone of the
    base (``copy(..., clone=True)``, as a cache-enabled FROM makes it)."""
    sys = storage.sys
    fs = sys.mnt_ns.resolve(storage.path_of(BASE), sys.cred,
                            cwd=sys.getcwd()).fs
    before = fs.gen
    storage.copy(BASE, "clone-probe", clone=True)
    gens = fs.gen - before
    storage.delete("clone-probe")
    return gens


def _build(ch, nonce: str = ""):
    """One cache-enabled build of ``app``; returns wall seconds, the
    image tree digest and size, and the walker's counter deltas."""
    before = COUNTERS.snapshot()
    t0 = time.perf_counter()
    result = ch.build(tag="app", dockerfile=dockerfile(nonce))
    seconds = time.perf_counter() - t0
    counts = COUNTERS.delta(before)
    assert result.success, result.text
    assert result.cache_hits == 0, result.text
    snap = snapshot_tree(ch.sys, ch.storage.path_of("app"))
    return seconds, snapshot_digest(snap), len(snap), counts


def _cold_builds(fast):
    """One fresh world with a fast or a reference login kernel: a cold
    cache-enabled build, then a second cold build on the same base.
    Returns the builder, the first build's seconds, digest, size and
    counts, and the second's digest, counts and cache keys."""
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network, fast=fast)
    alice = login.login("alice")
    ch = ChImage(login, alice, cache=True)
    _make_base(ch.storage)
    seconds, digest, members, counts = _build(ch)
    keys = set(ch.cache.keys())
    _s, re_digest, _m, re_counts = _build(ch, "-rebuild")
    return (ch, seconds, digest, members, counts,
            (re_digest, re_counts, set(ch.cache.keys()) - keys))


class TestColdBuildScaling:
    def test_journal_walker_vs_reference(self):
        ch_opt, opt_seconds, opt_digest, members, opt_counts, opt_re = \
            _cold_builds(fast=True)
        ch_ref, ref_seconds, ref_digest, _m, ref_counts, ref_re = \
            _cold_builds(fast=False)

        # identity first: the speedup is meaningless if the results drift
        assert opt_digest == ref_digest
        assert ch_opt.cache.keys() == ch_ref.cache.keys()
        assert sorted(r.diff_digest
                      for r in ch_opt.cache.records.values()) == \
            sorted(r.diff_digest for r in ch_ref.cache.records.values())

        # the rebuild: same tree digest and new cache keys as the reference
        rebuild_identical = opt_re[0] == ref_re[0] and opt_re[2] == ref_re[2]
        rebuild_full = opt_re[1].get("snapshot.walk_full", 0)
        rebuild_hashed = opt_re[1].get("digest.memo_miss", 0)
        clone_gens = _clone_gens(ch_opt.storage)

        hashed_opt = opt_counts.get("digest.memo_miss", 0)
        speedup = ref_seconds / opt_seconds
        # everything hashed beyond the one base walk is boundary cost
        # (the base walk covers the final tree minus the 12 RUN outputs)
        boundary_hashed = hashed_opt - (members - N_INSTRUCTIONS)
        per_inst_opt = boundary_hashed / N_INSTRUCTIONS
        report(f"cold build, {N_FILES} files x {N_INSTRUCTIONS} RUNs", [
            ("reference walks", str(ref_counts.get("snapshot.walk_full",
                                                   0))),
            ("walker full walks", str(opt_counts.get("snapshot.walk_full",
                                                     0))),
            ("walker dirty dirs", str(opt_counts.get("snapshot.walk_dirty",
                                                     0))),
            ("spliced entries", str(opt_counts.get("snapshot.splice", 0))),
            ("members hashed (walker)", str(hashed_opt)),
            ("hashed per boundary", f"{per_inst_opt:.1f}"),
            ("reference seconds", f"{ref_seconds:.2f}"),
            ("walker seconds", f"{opt_seconds:.2f}"),
            ("speedup", f"{speedup:.1f}x"),
            ("rebuild full walks", str(rebuild_full)),
            ("rebuild members hashed", str(rebuild_hashed)),
            ("FROM clone generations", str(clone_gens)),
        ])
        write_bench("coldbuild", {
            "files": N_FILES,
            "instructions": N_INSTRUCTIONS,
            "reference_seconds": round(ref_seconds, 3),
            "walker_seconds": round(opt_seconds, 3),
            "speedup": round(speedup, 2),
            "members_hashed_walker": hashed_opt,
            "hashed_per_boundary": round(per_inst_opt, 1),
            "reference_full_walks": ref_counts.get("snapshot.walk_full", 0),
            "walker_full_walks": opt_counts.get("snapshot.walk_full", 0),
            "walker_dirty_dirs": opt_counts.get("snapshot.walk_dirty", 0),
            "digest_identical": opt_digest == ref_digest,
            "rebuild_full_walks": rebuild_full,
            "rebuild_members_hashed": rebuild_hashed,
            "rebuild_digest_identical": rebuild_identical,
            "clone_gens": clone_gens,
        })
        assert rebuild_identical
        # the rebuild's FROM clone inherits the base's snapshot: no full
        # walk, and one hashed member (the RUN's output file) per RUN
        assert rebuild_full == 0
        assert rebuild_hashed == N_INSTRUCTIONS
        # one stamp for the whole clone, one touch linking it in
        assert clone_gens <= 2
        # the tentpole gate: an order-of-magnitude class win, asserted
        # conservatively so slow CI machines don't flake
        assert speedup >= 5.0, (
            f"cold-build speedup {speedup:.1f}x < 5x "
            f"(ref {ref_seconds:.2f}s, walker {opt_seconds:.2f}s)")

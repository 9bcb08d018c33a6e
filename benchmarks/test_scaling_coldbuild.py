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

Emits ``BENCH_coldbuild.json``; ``benchmarks/gate.py`` gates it on speedup
no worse than 0.9x the committed baseline plus digest identity.
"""

import time

from repro.cas.diff import snapshot_digest, snapshot_tree
from repro.cluster import make_machine, make_world
from repro.core import ChImage
from repro.sim import reference_engine
from repro.sim.profile import COUNTERS

from .conftest import report, write_bench

BASE = "bigbase:1"
N_DIRS = 100
FILES_PER_DIR = 100
N_FILES = N_DIRS * FILES_PER_DIR
N_INSTRUCTIONS = 12

DOCKERFILE = f"FROM {BASE}\n" + "".join(
    f"RUN echo build-step-{i} > /out{i}.txt\n"
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


def _cold_build():
    """One fresh world, one cold cache-enabled build; returns the
    builder, wall seconds, image tree digest, and counter deltas."""
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network)
    alice = login.login("alice")
    ch = ChImage(login, alice, cache=True)
    _make_base(ch.storage)
    before = COUNTERS.snapshot()
    t0 = time.perf_counter()
    result = ch.build(tag="app", dockerfile=DOCKERFILE)
    seconds = time.perf_counter() - t0
    counts = COUNTERS.delta(before)
    assert result.success, result.text
    snap = snapshot_tree(ch.sys, ch.storage.path_of("app"))
    return ch, seconds, snapshot_digest(snap), len(snap), counts


class TestColdBuildScaling:
    def test_journal_walker_vs_reference(self):
        ch_opt, opt_seconds, opt_digest, members, opt_counts = _cold_build()
        with reference_engine():
            ch_ref, ref_seconds, ref_digest, _m, ref_counts = _cold_build()

        # identity first: the speedup is meaningless if the results drift
        assert opt_digest == ref_digest
        assert ch_opt.cache.keys() == ch_ref.cache.keys()
        assert sorted(r.diff_digest
                      for r in ch_opt.cache.records.values()) == \
            sorted(r.diff_digest for r in ch_ref.cache.records.values())

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
        })
        # the tentpole gate: an order-of-magnitude class win, asserted
        # conservatively so slow CI machines don't flake
        assert speedup >= 5.0, (
            f"cold-build speedup {speedup:.1f}x < 5x "
            f"(ref {ref_seconds:.2f}s, walker {opt_seconds:.2f}s)")

"""Fleet-scale engine throughput: the opt-on/opt-off ablation.

The simulation engine got three perf layers — closed-form bulk
transfers, leaf-event coalescing, and a bucketed event queue — all
contractually **bit-identical** to the reference implementations they
replace (``docs/PERFORMANCE.md``).  This benchmark is the proof at
fleet scale: a 10k-node registry pull storm, a 10k-node pipelined tree
broadcast, and a seeded Zipf pull workload, each run with optimizations
on and again in reference mode, asserting float-identical reports and
digest-identical node stores while timing both.

The headline gate is the §4.2 pull storm — 10 000 same-timestamp pull
events, 1024 chunks per hop — where the closed-form transfer path must
sustain **>= 10x the reference engine's events/sec**.  The tree leg is
deliberately *not* gated on throughput: pipelined relays have genuinely
per-chunk availability, so they stay on the reference-style chunk loop
by design; it gates on identity and on coalescing shrinking the event
count instead.

Emits ``BENCH_engine.json``; ``benchmarks/gate.py`` gates it on events/sec
no worse than 0.9x the committed baseline.
"""

import hashlib
import time

from repro.archive import TarArchive, TarMember
from repro.cas.store import ContentStore
from repro.cluster import RegistryFleet
from repro.cluster.broadcast import distribute_blobs, make_deploy_topology
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType
from repro.sim import (
    EngineProfile,
    SimEngine,
    WorkloadSpec,
    reference_engine,
    run_workload,
)

from .conftest import report, write_bench

N_NODES = 10_000
BLOB = bytes(range(256)) * 64            # 16 KiB, deterministic
STORM_CHUNK = 16                          # -> 1024 chunks per hop
TREE_CHUNK = 64                           # -> 256 chunks per hop

SPEC = WorkloadSpec(seed=23, rate=200.0, duration=5.0, zipf_s=1.1,
                    images=[f"app:v{i}" for i in range(8)],
                    tenants=[("alice", 3.0), ("bob", 1.0)])


class _SimNode:
    """The minimum a broadcast target needs: a name, a store, a link."""

    __slots__ = ("hostname", "content_store", "netlink")

    def __init__(self, hostname: str):
        self.hostname = hostname
        self.content_store = ContentStore()
        self.netlink = None


class _SimRegistry(Registry):
    """A registry serving one blob from memory — no store or push
    machinery on the hot path, so the benchmark times the engine, not
    the registry."""

    def __init__(self, blob: bytes):
        super().__init__("registry.sim")
        self._blob = blob

    def blob_size(self, digest: str) -> int:
        return len(self._blob)

    def fetch_blob(self, digest: str, *, local_store=None) -> bytes:
        return self._blob


def _broadcast(strategy: str, chunk_size: int, reference: bool):
    """One 10k-node distribution; returns (wall, events, report,
    profile, store digests)."""
    nodes = [_SimNode(f"n{i:05d}") for i in range(N_NODES)]
    registry = _SimRegistry(BLOB)
    topo = make_deploy_topology(registry, nodes, chunk_size=chunk_size)
    digest = hashlib.sha256(BLOB).hexdigest()
    profile = EngineProfile()

    def go():
        engine = SimEngine(profile=profile)
        t0 = time.perf_counter()
        rep = distribute_blobs(registry, [digest], nodes, topo,
                               engine=engine, strategy=strategy)
        return time.perf_counter() - t0, engine.events_processed, rep

    if reference:
        with reference_engine():
            wall, events, rep = go()
    else:
        wall, events, rep = go()
    stores = {n.hostname: sorted(n.content_store.digests())
              for n in nodes}
    return wall, events, rep, profile, stores


def _workload(reference: bool):
    fleet = RegistryFleet("site", n_shards=4, replicas=2)
    for i, ref in enumerate(SPEC.refs()):
        fleet.push(ref, ImageConfig(),
                   [TarArchive([TarMember("bin", FileType.REG, 0o644,
                                          0, 0,
                                          data=bytes([i % 251]) * 3000)])])

    def go():
        engine = SimEngine()
        t0 = time.perf_counter()
        rep = run_workload(fleet, SPEC, engine=engine)
        return time.perf_counter() - t0, engine.events_processed, rep

    if reference:
        with reference_engine():
            return go()
    return go()


def test_engine_throughput_ablation():
    """The tentpole gate: the optimized engine sustains >= 10x the
    reference engine's events/sec on the 10k-node pull storm, with
    float-identical timings and digest-identical stores on every leg.
    Emits the BENCH_engine.json artifact CI gates on."""
    # --- leg 1: the pull storm (headline events/sec gate) -------------
    sw_o, se_o, sr_o, sp_o, ss_o = _broadcast("registry", STORM_CHUNK,
                                              reference=False)
    sw_r, se_r, sr_r, _, ss_r = _broadcast("registry", STORM_CHUNK,
                                           reference=True)
    assert se_o == se_r, "coalescing must not change the storm's events"
    assert sr_o.node_ready == sr_r.node_ready      # exact float identity
    assert sr_o.as_dict() == sr_r.as_dict()
    assert ss_o == ss_r and len(ss_o) == N_NODES
    storm_evs_opt = se_o / sw_o
    storm_evs_ref = se_r / sw_r
    speedup = storm_evs_opt / storm_evs_ref
    assert speedup >= 10.0, \
        f"pull storm only {speedup:.1f}x the reference engine"
    # the storm is one 10k-event same-timestamp bucket plus the start
    assert sp_o.events["_BlobCast.pull"] == N_NODES

    # --- leg 2: the pipelined tree (identity + coalescing gate) -------
    tw_o, te_o, tr_o, tp_o, ts_o = _broadcast("tree", TREE_CHUNK,
                                              reference=False)
    tw_r, te_r, tr_r, _, ts_r = _broadcast("tree", TREE_CHUNK,
                                           reference=True)
    assert tr_o.node_ready == tr_r.node_ready      # exact float identity
    assert tr_o.as_dict() == tr_r.as_dict()
    assert ts_o == ts_r and len(ts_o) == N_NODES
    # leaf coalescing: unobserved arrivals collapse into node_ready, so
    # the optimized run schedules strictly fewer events
    assert te_o < te_r
    assert tw_o <= tw_r * 1.25, \
        f"tree leg regressed: {tw_o:.2f}s vs reference {tw_r:.2f}s"

    # --- leg 3: the seeded Zipf workload (behavioural identity) -------
    ww_o, we_o, wr_o = _workload(reference=False)
    ww_r, we_r, wr_r = _workload(reference=True)
    assert wr_o.as_dict() == wr_r.as_dict()
    assert we_o == we_r
    assert wr_o.completed == wr_o.offered

    write_bench("engine", {
        "benchmark": "engine-throughput",
        "nodes": N_NODES,
        "blob_bytes": len(BLOB),
        "pull_storm": {
            "chunk_size": STORM_CHUNK,
            "events": se_o,
            "events_per_sec": round(storm_evs_opt, 3),
            "events_per_sec_reference": round(storm_evs_ref, 3),
            "speedup": round(speedup, 3),
            "wall_seconds": round(sw_o, 6),
            "wall_seconds_reference": round(sw_r, 6),
            "makespan": round(sr_o.makespan, 9),
        },
        "tree": {
            "chunk_size": TREE_CHUNK,
            "events": te_o,
            "events_reference": te_r,
            "events_per_sec": round(te_o / tw_o, 3),
            "wall_seconds": round(tw_o, 6),
            "wall_seconds_reference": round(tw_r, 6),
            "makespan": round(tr_o.makespan, 9),
            "profile_top": tp_o.top(3),
        },
        "workload": {
            "events": we_o,
            "events_per_sec": round(we_o / ww_o, 3),
            "wall_seconds": round(ww_o, 6),
            "wall_seconds_reference": round(ww_r, 6),
            "completed": wr_o.completed,
        },
        "identical_reports": True,
        "identical_stores": True,
    })

    report("Engine throughput ablation (10k nodes, opt vs reference)", [
        ("pull storm ev/s", f"{storm_evs_opt:12,.0f} vs "
                            f"{storm_evs_ref:10,.0f} reference "
                            f"({speedup:.1f}x, gate: >= 10x)"),
        ("pull storm wall", f"{sw_o:8.2f}s vs {sw_r:8.2f}s reference"),
        ("tree events", f"{te_o:8d} vs {te_r:8d} reference "
                        f"(coalesced {te_r - te_o})"),
        ("tree wall", f"{tw_o:8.2f}s vs {tw_r:8.2f}s reference"),
        ("workload events", f"{we_o:8d} (report byte-identical)"),
        ("timings", "float-identical on every leg"),
        ("node stores", f"digest-identical x{N_NODES}"),
    ])

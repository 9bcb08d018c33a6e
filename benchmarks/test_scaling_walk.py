"""Path-walk scaling: the dentry cache against the uncached walk on the
Figure 6 node-side unpack.

Every compute node of the Figure 6 workflow unpacks the ATSE image's
layers with ``TarArchive.extract`` (unprivileged tar: an ``exists``,
``mkdir``/``write_file``, ``resolve`` and ``chmod`` per member), and each
of those syscalls walks its path from ``/``.  This benchmark builds the
image once, then extracts its layers into ``NODES`` fresh aarch64 nodes,
``ROUNDS`` times each way in one process, alternating the reference
engine (uncached walks) with the cache.  The speedup is the median of
the rounds' reference/cached ratios, so a slow spell of the host that
spans one round cancels out of it.  One traced extraction each way pins that the cache
changes nothing: the extracted trees, the traced syscall counts and the
``MountNamespace.resolve``/``resolve_parent`` counts must match.

Emits ``BENCH_walk.json``; ``benchmarks/gate.py`` gates it on
``identical`` and on the speedup staying at least 0.9x the committed
baseline.  The check is a same-process ratio, not a wall-clock floor.
"""

import gc
import statistics
import time

from repro.archive import TarArchive
from repro.cluster import astra_build_workflow, make_astra, make_machine
from repro.cluster import make_world
from repro.kernel import Syscalls
from repro.obs import attach_tracer
from repro.sim import reference_engine
from tests.conftest import ATSE_DOCKERFILE

from .conftest import report, write_bench

ROUNDS = 11
NODES = 8
DEST = "/home/alice/atse"


def _atse_layers():
    """Build and push the ATSE image through the Figure 6 pipeline; return
    the world and the pushed image's layers, base first."""
    world = make_world()
    astra = make_astra(world, n_compute=1)
    rep = astra_build_workflow(astra, "alice", ATSE_DOCKERFILE, "atse",
                               n_nodes=1)
    assert rep.success, rep.phases
    _, layers = world.site_registry.pull(rep.pushed_ref, arch="aarch64")
    return world, layers


def _count_resolves(ns) -> dict:
    """Count calls to *ns*'s two path-walk entry points."""
    counts = {"resolve": 0, "resolve_parent": 0}
    for name in counts:
        def counted(*args, _walk=getattr(ns, name), _name=name, **kwargs):
            counts[_name] += 1
            return _walk(*args, **kwargs)
        setattr(ns, name, counted)
    return counts


def _node_sys(world, node_id: int) -> Syscalls:
    """alice's syscalls on a freshly booted aarch64 node."""
    node = make_machine(f"walk-cn{node_id:03d}", arch="aarch64",
                        network=world.network)
    sys = Syscalls(node.login("alice"))
    sys.mkdir_p(DEST)
    return sys


def _unpack(targets, layers) -> float:
    """Extract *layers* on every node of *targets*; the wall seconds."""
    gc.collect()
    t0 = time.perf_counter()
    for sys in targets:
        for layer in layers:
            layer.extract(sys, DEST, preserve_owner=False)
    return time.perf_counter() - t0


def _traced_unpack(world, layers, node_id: int):
    """One traced extraction: the tree digest, the traced syscall counts
    and the path-walk counts."""
    sys = _node_sys(world, node_id)
    tracer = attach_tracer(sys.kernel)
    tracer.metrics.clear()
    resolves = _count_resolves(sys.mnt_ns)
    _unpack([sys], layers)
    counts = {"syscalls": dict(tracer.metrics.syscalls), **resolves}
    return TarArchive.pack(sys, DEST).digest(), counts


def test_scaling_walk_cache_vs_reference():
    world, layers = _atse_layers()
    cached_digest, cached_counts = _traced_unpack(world, layers, 1)
    with reference_engine():
        ref_digest, ref_counts = _traced_unpack(world, layers, 2)

    def reference(targets):
        with reference_engine():
            return _unpack(targets, layers)

    def cached(targets):
        return _unpack(targets, layers)

    node_ids = iter(range(3, 3 + 2 * ROUNDS * NODES))
    times = {reference: [], cached: []}
    for r in range(ROUNDS):
        for side in (reference, cached) if r % 2 == 0 else (cached,
                                                             reference):
            targets = [_node_sys(world, next(node_ids))
                       for _ in range(NODES)]
            times[side].append(side(targets))
            assert {TarArchive.pack(sys, DEST).digest()
                    for sys in targets} == {ref_digest}

    ref_s = statistics.median(times[reference])
    cached_s = statistics.median(times[cached])
    speedup = statistics.median(
        r / c for r, c in zip(times[reference], times[cached]))
    identical = cached_digest == ref_digest and cached_counts == ref_counts
    members = sum(len(layer) for layer in layers)
    syscalls = sum(cached_counts["syscalls"].values())
    resolves = cached_counts["resolve"] + cached_counts["resolve_parent"]
    report(f"Fig 6 node-side unpack: {members} members on {NODES} nodes, "
           f"{ROUNDS} rounds each way", [
        ("syscalls per unpack", str(syscalls)),
        ("path resolves per unpack", str(resolves)),
        ("reference seconds (median)", f"{ref_s:.4f}"),
        ("cached seconds (median)", f"{cached_s:.4f}"),
        ("speedup", f"{speedup:.2f}x"),
        ("identical trees and counts", str(identical)),
    ])
    write_bench("walk", {
        "layers": len(layers),
        "members": members,
        "nodes": NODES,
        "rounds": ROUNDS,
        "syscalls": syscalls,
        "path_resolves": resolves,
        "reference_seconds": round(ref_s, 4),
        "cached_seconds": round(cached_s, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
    })
    assert identical, (cached_counts, ref_counts)
    assert speedup > 1.0, (
        f"walk cache speedup {speedup:.2f}x (reference {ref_s:.4f}s, "
        f"cached {cached_s:.4f}s)")

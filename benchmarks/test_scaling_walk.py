"""Path-walk scaling: the unpack's open directories against the
reference engine's per-member path walks on the Figure 6 node-side
unpack.

Every compute node of the Figure 6 workflow unpacks the ATSE image's
layers with ``TarArchive.extract`` (unprivileged tar: a type probe and
a ``mkdir`` per directory, a type probe and a ``symlink`` per symlink,
one ``write_file`` per regular file that also stamps its executable
metadata, and a ``chmod`` per member but symlinks).  Each layer opens
the image directory once and names every member beneath it
(``dir_fd=``); with the engine fast paths on, every directory a member
sits in is opened once, one entry from its parent, so a member costs
no walk, while the reference engine walks each call's whole member
path from the image root.  This benchmark builds the image once, then
extracts its layers into ``NODES`` fresh aarch64 nodes, ``ROUNDS``
times each way in one process, alternating the reference engine with
the fast path.  The speedup is the median of the rounds'
reference/cached ratios, so a slow spell of the host that spans one
round cancels out of it.  One traced extraction each way pins that the
fast path changes nothing the program sees: the extracted trees and
the traced syscall counts must match.  It also reports the fast path's
``MountNamespace.resolve``/``resolve_parent`` calls and how many
journal generations (``Filesystem.gen``) one node's unpack stamps: one
per layer.

Emits ``BENCH_walk.json``; ``benchmarks/gate.py`` gates it on
``identical``, on the speedup staying at least 0.9x the committed
baseline (a same-process ratio, not a wall-clock floor) and on the
syscall, path-walk and generation counts per unpack never growing.
"""

import gc
import statistics
import time

from repro.archive import TarArchive
from repro.cluster import astra_build_workflow, make_astra, make_machine
from repro.cluster import make_world
from repro.kernel import Syscalls
from repro.obs import attach_tracer
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


def _node_sys(world, node_id: int, fast: bool) -> Syscalls:
    """alice's syscalls on a freshly booted aarch64 node with a fast or a
    reference kernel."""
    node = make_machine(f"walk-cn{node_id:03d}", arch="aarch64",
                        network=world.network, fast=fast)
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


def _traced_unpack(world, layers, node_id: int, fast: bool):
    """One traced extraction: the tree digest, the traced syscall counts,
    the path-walk counts and the journal generations stamped."""
    sys = _node_sys(world, node_id, fast)
    tracer = attach_tracer(sys.kernel)
    tracer.metrics.clear()
    resolves = _count_resolves(sys.mnt_ns)
    fs = sys.mnt_ns.resolve(DEST, sys.cred).fs
    gen = fs.gen
    _unpack([sys], layers)
    counts = {"syscalls": dict(tracer.metrics.syscalls), **resolves,
              "gens": fs.gen - gen}
    return TarArchive.pack(sys, DEST).digest(), counts


def test_scaling_walk_cache_vs_reference():
    world, layers = _atse_layers()
    cached_digest, cached_counts = _traced_unpack(world, layers, 1, True)
    ref_digest, ref_counts = _traced_unpack(world, layers, 2, False)

    node_ids = iter(range(3, 3 + 2 * ROUNDS * NODES))
    times = {False: [], True: []}          # by fast: reference, cached
    for r in range(ROUNDS):
        for fast in (False, True) if r % 2 == 0 else (True, False):
            targets = [_node_sys(world, next(node_ids), fast)
                       for _ in range(NODES)]
            times[fast].append(_unpack(targets, layers))
            assert {TarArchive.pack(sys, DEST).digest()
                    for sys in targets} == {ref_digest}

    ref_s = statistics.median(times[False])
    cached_s = statistics.median(times[True])
    speedup = statistics.median(
        r / c for r, c in zip(times[False], times[True]))
    identical = cached_digest == ref_digest and \
        cached_counts["syscalls"] == ref_counts["syscalls"]
    members = sum(len(layer) for layer in layers)
    syscalls = sum(cached_counts["syscalls"].values())
    resolves = cached_counts["resolve"] + cached_counts["resolve_parent"]
    report(f"Fig 6 node-side unpack: {members} members on {NODES} nodes, "
           f"{ROUNDS} rounds each way", [
        ("syscalls per unpack", str(syscalls)),
        ("path resolves per unpack", str(resolves)),
        ("journal generations per unpack", str(cached_counts["gens"])),
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
        "unpack_gens": cached_counts["gens"],
        "reference_seconds": round(ref_s, 4),
        "cached_seconds": round(cached_s, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
    })
    assert identical, (cached_counts, ref_counts)
    assert speedup > 1.0, (
        f"walk cache speedup {speedup:.2f}x (reference {ref_s:.4f}s, "
        f"cached {cached_s:.4f}s)")

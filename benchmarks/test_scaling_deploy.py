"""Deployment scaling: the Figure 6 workflow's deploy phase across an
increasing node count (the §6.3 'parallel across node types' impact story),
as an ablation of the two distribution strategies.

* ``registry`` — every node pulls from the site registry: total transfer
  is O(N·image) through one uplink, makespan O(N).  This is the baseline
  fan-out a naive `srun ch-image pull` produces, and the linear shape the
  original figure reproduced.
* ``tree`` — binomial-tree broadcast: the registry is hit once per blob,
  peers re-serve chunks, egress O(image), makespan O(log N).

What moves is one blob: the login node converts the pushed image once
(ch-convert) and every node mounts that single-file image read-only
instead of unpacking the OCI layers.  Either way no daemon serializes
anything (§3.1): the transfers are initiated by the user's own ranks,
and every node mounts a byte-identical image.

Emits ``BENCH_deploy.json`` (:func:`test_deploy_artifact`): the n=8
makespans and registry egress of both strategies (virtual, gated
``exact``), the node-side syscalls per rank (may not grow), and whether
the mounted image shows ch-run exactly the tree the per-node unpack
made (gated ``true``).
"""

import itertools

import pytest

from repro.archive import TarArchive, member_of
from repro.cas import snapshot_digest, snapshot_tree
from repro.cluster import astra_build_workflow, make_astra, make_world
from repro.containers.runtime import enter_container
from repro.core import ChImage
from repro.kernel import Syscalls
from repro.obs import attach_tracer
from tests.conftest import ATSE_DOCKERFILE

from .conftest import report, write_bench

_tags = (f"atse-{i}" for i in itertools.count())

NODE_COUNTS = (1, 2, 4, 8)


def _deploy(n_nodes, strategy, tag=None, *, trace=False):
    world = make_world()
    astra = make_astra(world, n_compute=n_nodes)
    tracers = [attach_tracer(node.kernel) for node in astra.compute] \
        if trace else []
    rep = astra_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                               tag or next(_tags), n_nodes=n_nodes,
                               deploy_strategy=strategy)
    return world, astra, rep, tracers


def _image_digest(world):
    """The digest of the one image blob the deploy distributed."""
    (digest,) = world.network.images
    return digest


def _mounted_sys(node, digest):
    """Host root's syscalls in a mount namespace rooted at *node*'s mount
    of its own (store-verified) copy of image blob *digest*."""
    fs = node.kernel.network.decoded_image(digest,
                                         node.content_store.get(digest))
    sys = Syscalls(node.kernel.init_process.fork())
    sys.unshare_mount()
    sys.mount_image(fs)
    return sys


def _node_tree_digest(node, digest):
    """Digest of one node's deployed image: the mounted view its ranks
    run in."""
    return snapshot_digest(snapshot_tree(_mounted_sys(node, digest), "/"))


@pytest.mark.parametrize("strategy", ["registry", "tree"])
@pytest.mark.parametrize("n_nodes", list(NODE_COUNTS))
def test_scaling_deploy(n_nodes, strategy):
    world, astra, rep, _ = _deploy(n_nodes, strategy)
    registry = world.site_registry
    assert rep.success
    assert len(rep.deploy.nodes) == n_nodes
    dist = rep.distribution
    assert dist is not None and dist.strategy == strategy
    # one converted image blob moves, not the image's layers
    assert dist.blobs == 1
    digest = _image_digest(world)
    if strategy == "registry":
        # the baseline pull storm: each node pulled the blob itself
        assert dist.registry_blobs_pulled == n_nodes
        assert dist.peer_sends == 0
    else:
        # tree mode serves the one blob from the registry once, whatever
        # N is, and peers re-serve it
        assert dist.registry_blobs_pulled == 1
        assert dist.peer_sends == n_nodes - 1
    # the registry served nothing but the distribution: the nodes pulled
    # no OCI layer, and the login node's convert read its own store
    assert registry.stats.blobs_pulled == dist.registry_blobs_pulled
    layers = set(registry.image_blob_digests(rep.pushed_ref,
                                             arch="aarch64"))
    for node in astra.compute:
        assert node.content_store.digests() == [digest]
        assert not layers & set(node.content_store.digests())


def test_ablation_registry_vs_tree():
    """Makespan-vs-nodes curves for both strategies, one shared tag so the
    deployed trees are digest-comparable across runs."""
    makespan = {s: {} for s in ("registry", "tree")}
    egress = {s: {} for s in ("registry", "tree")}
    tree_digests = {}
    for strategy in ("registry", "tree"):
        for n in NODE_COUNTS:
            world, astra, rep, _ = _deploy(n, strategy, tag="atse")
            assert rep.success
            makespan[strategy][n] = rep.deploy_makespan
            egress[strategy][n] = rep.distribution.registry_egress_bytes
            if n == max(NODE_COUNTS):
                tree_digests[strategy] = [
                    _node_tree_digest(node, _image_digest(world))
                    for node in astra.compute]

    # every node got the byte-identical image, whichever path the bytes took
    assert len(set(tree_digests["registry"] + tree_digests["tree"])) == 1
    # at one node the strategies coincide (one registry pull either way)
    assert egress["tree"][1] == egress["registry"][1]
    assert makespan["tree"][1] <= makespan["registry"][1] + 1e-9
    # the asymptotic win at 8 nodes: >=4x less egress, >=2x less makespan,
    # and tree strictly below registry-direct
    n_max = max(NODE_COUNTS)
    assert makespan["tree"][n_max] < makespan["registry"][n_max]
    assert egress["registry"][n_max] >= 4 * egress["tree"][n_max]
    assert makespan["registry"][n_max] >= 2 * makespan["tree"][n_max]

    report("Deploy scaling ablation (registry-direct vs tree broadcast)", [
        *((f"makespan n={n}",
           f"registry {makespan['registry'][n] * 1e3:8.1f} ms | "
           f"tree {makespan['tree'][n] * 1e3:8.1f} ms")
          for n in NODE_COUNTS),
        (f"registry egress n={n_max}",
         f"registry {egress['registry'][n_max]} B | "
         f"tree {egress['tree'][n_max]} B "
         f"({egress['registry'][n_max] / egress['tree'][n_max]:.1f}x less)"),
        ("shape", "egress O(N·image) vs O(image); "
                  "makespan O(N) vs O(log N); no daemon either way"),
    ])


def test_scaling_transfer_linear():
    """Registry-direct baseline: bytes pulled grow linearly in node count,
    per-node cost constant (the original pre-ablation shape)."""
    per_node = {}
    for n in (1, 4):
        world, _, rep, _ = _deploy(n, "registry", tag="atse")
        assert rep.success
        per_node[n] = world.site_registry.stats.bytes_pulled / n
    ratio = per_node[4] / per_node[1]
    assert 0.8 < ratio < 1.2  # constant per-node transfer
    report("Deploy scaling (registry-direct baseline)", [
        ("per-node bytes (1 node)", f"{per_node[1]:.0f}"),
        ("per-node bytes (4 nodes)", f"{per_node[4]:.0f}"),
        ("shape", "linear total, constant per node, no daemon bottleneck"),
    ])


def test_scaling_tree_egress_constant():
    """Tree broadcast: registry egress is O(image), independent of N."""
    egress = {}
    for n in (1, 8):
        _, _, rep, _ = _deploy(n, "tree", tag="atse")
        assert rep.success
        egress[n] = rep.distribution.registry_egress_bytes
    assert egress[8] == egress[1]


def _ch_run_view(node, image):
    """*image* (a path or a mounted filesystem) as ch-run shows it to
    alice on *node*: the whole tree, root included, from inside her
    Type III container (without /proc, which shows the viewer's pid)."""
    ctx = enter_container(node.login("alice"), image, "type3",
                          dev_fs=node.dev_fs, mount_proc=False,
                          comm="ch-run")
    return [member_of(ctx.sys, "/", "."), *TarArchive.pack(ctx.sys, "/")]


def test_deploy_artifact():
    """The n=8 deploy both ways, traced on the nodes: the makespans and
    egress are virtual and exact, each rank's node-side syscalls are
    counted, and the mount must show ch-run exactly the tree the
    per-node unpack it replaced makes.  Writes ``BENCH_deploy.json``."""
    n = max(NODE_COUNTS)
    out = {"nodes": n, "blobs": 1}
    for strategy in ("tree", "registry"):
        world, astra, rep, tracers = _deploy(n, strategy, tag="atse",
                                             trace=True)
        assert rep.success, rep.phases
        dist = rep.distribution
        assert dist.blobs == 1
        per_rank = {sum(t.metrics.syscalls.values()) for t in tracers}
        assert len(per_rank) == 1, per_rank  # every rank does the same
        out[strategy] = {
            "deploy_makespan": round(rep.deploy_makespan, 9),
            "distribution_makespan": round(dist.makespan, 9),
            "registry_egress_bytes": dist.registry_egress_bytes,
            "image_bytes": dist.image_bytes,
        }
        out[f"{strategy}_syscalls_per_rank"] = per_rank.pop()
    # the oracle: what the node would have unpacked, against its mount
    node = astra.compute[0]
    digest = _image_digest(world)
    tree = ChImage(node, node.login("alice")).pull(rep.pushed_ref)
    mounted = node.kernel.network.decoded_image(
        digest, node.content_store.get(digest))
    out["mounted_equals_unpacked"] = \
        _ch_run_view(node, mounted) == _ch_run_view(node, tree)
    out["syscalls_per_rank"] = out.pop("tree_syscalls_per_rank")
    assert out.pop("registry_syscalls_per_rank") == out["syscalls_per_rank"]
    write_bench("deploy", out)
    report(f"Fig 6 deploy, {n} nodes, one mounted image blob", [
        *((f"{s} makespan", f"{out[s]['deploy_makespan'] * 1e3:.1f} ms "
                            f"(distribution "
                            f"{out[s]['distribution_makespan'] * 1e3:.1f} "
                            f"ms, egress {out[s]['registry_egress_bytes']}"
                            f" B)")
          for s in ("tree", "registry")),
        ("syscalls per rank", str(out["syscalls_per_rank"])),
        ("mounted == unpacked", str(out["mounted_equals_unpacked"])),
    ])
    assert out["mounted_equals_unpacked"]

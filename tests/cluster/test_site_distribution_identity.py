"""Bit-identity pin for the whole site-distribution path.

A seeded 8-shard, 2-replica fleet takes pushes from two tenants, plays an
open-loop Zipf pull tape (:func:`~repro.sim.run_workload`), and then
tree-broadcasts the hottest image to 64 stub nodes.  Every virtual-time
output of that path is pinned, one sha256 per part, so a drift names the
part that moved:

* ``tape``, ``latencies``: the tape report and each pull latency's
  ``repr``;
* ``tree``, ``transfers``: the tree report and every transfer;
* ``links``: every link's accounting;
* ``shards``, ``fleet``: every shard's and the fleet's accounting.

Any change to routing, admission or the broadcast's reservations shows up
here as a different digest of the part it touched.
"""

import hashlib
import random

import pytest

from repro.archive import TarArchive, TarMember
from repro.cas import ContentStore
from repro.cluster import RegistryFleet, distribute_blobs, make_deploy_topology
from repro.containers import ImageConfig
from repro.kernel import FileType
from repro.sim import WorkloadSpec, run_workload

PARTS = ("tape", "latencies", "tree", "transfers", "links", "shards",
         "fleet")

#: (seed, shard queue_limit) -> part -> sha256 of that part's ``repr``.
#: The tape, latency, shard and fleet parts were recorded on the
#: unmemoized ring, the list-comprehension admission queue and the
#: always-snapshot broadcast hop; the tree, transfer and link parts on
#: integer-ns link time.  The bounded queue drives the tape through
#: thousands of overload 503s and retries.
PINNED = {
    (0, None): {
        "tape":
            "041197937fbdae4a0e73a8038a71d8ac8482b21b1388a4f3a471f4a1eefa6e2e",
        "latencies":
            "92592c4a2f0b71a759e4b5e3446f44097328f4c8457297bce5b78bff818317a1",
        "tree":
            "d5e3ff5f7fe2ffd5ba95483dc21484ec0bd0d6a72f8cb6e9778a435e6e0c737b",
        "transfers":
            "c8211a6f9f0b4ef89ac7da9df068d713b52e9559376e7040dd3f2a9e30834c87",
        "links":
            "09f5c28b71d82060e86a63908f7343cae22e7610e6ff2298bf5524d1218ec3e9",
        "shards":
            "523365f534e8bf5f15ae183d2c147719fb7ba77eae67d9d93dc9f0b161e3ae46",
        "fleet":
            "873b0d00d1ee801a974624c98f1378278a02ed823c92ae6430bd7a3db948f5e0",
    },
    (1, 2): {
        "tape":
            "f614ba9a9671e53bd71dc69de71aa2201f64a52a18c3029b45e6b20029b2968d",
        "latencies":
            "fe9a665d8c63e7699bc51ef1173e495d166154ff6580d4db1e7d5e22cf3430fc",
        "tree":
            "d5e3ff5f7fe2ffd5ba95483dc21484ec0bd0d6a72f8cb6e9778a435e6e0c737b",
        "transfers":
            "ebb5b0cd346d302385db65f1495c20a1fcd05d930cf7cdd1eb9d12a192b9a9c7",
        "links":
            "82b5372d612c11c8b102040e6e5eb0f35de1de9d11a7c48403cb1eb30a11f960",
        "shards":
            "0e09fff8f90609830ce5ad451c50f31279d790a6d256dcd5c4c5870c13feb4ce",
        "fleet":
            "3d8cec964ae5c2cdf14589dc1a42188ea34eb5e92748c9002761badbf456b210",
    },
}


class _StubNode:
    """A kernel-free broadcast target: a hostname and a blob store."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self.content_store = ContentStore()


def _layer(rng: random.Random, name: str, size: int) -> TarArchive:
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=rng.randbytes(size))])


def site_distribution_fingerprint(seed: int, queue_limit) -> dict[str, str]:
    rng = random.Random(seed)
    fleet = RegistryFleet("site", n_shards=8, replicas=2,
                          queue_limit=queue_limit)
    tokens = {}
    for tenant in ("alice", "bob"):
        tokens[tenant] = f"token-{tenant}-{seed}"
        fleet.add_tenant(tenant, token=tokens[tenant])
    spec = WorkloadSpec(seed=seed, rate=300.0, duration=4.0, zipf_s=1.1,
                        images=tuple(f"app:v{i}" for i in range(12)),
                        tenants=(("alice", 3.0), ("bob", 1.0)),
                        tokens=tokens)
    for ref in spec.refs():
        fleet.push(ref, ImageConfig(),
                   [_layer(rng, "bin", 3000), _layer(rng, "lib", 1500)],
                   token=tokens[ref.split("/", 1)[0]])
    tape = run_workload(fleet, spec)
    stubs = [_StubNode(f"stub{i:02d}") for i in range(64)]
    topology = make_deploy_topology(fleet, stubs)
    digests = fleet.image_blob_digests(spec.refs()[0])
    tree = distribute_blobs(fleet, digests, stubs, topology, strategy="tree")
    for stub in stubs:
        for digest in digests:
            assert stub.content_store.has(digest)
    parts = [
        repr(sorted(tape.as_dict().items())),
        repr(tape.latencies),
        repr(sorted(tree.as_dict().items())),
        repr(tree.transfers),
        repr(sorted((name, link.stats)
                    for name, link in topology.links.items())),
        repr([(s.name, s.stats) for s in fleet.shards]),
        repr(sorted(fleet.report()["stats"].items())),
    ]
    return {name: hashlib.sha256(part.encode()).hexdigest()
            for name, part in zip(PARTS, parts)}


@pytest.mark.parametrize("seed,queue_limit", sorted(PINNED, key=repr))
def test_site_distribution_is_bit_identical(seed, queue_limit):
    assert site_distribution_fingerprint(seed, queue_limit) \
        == PINNED[seed, queue_limit]

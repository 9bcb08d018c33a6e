"""Bit-identity pin for the whole site-distribution path.

A seeded 8-shard, 2-replica fleet takes pushes from two tenants, plays an
open-loop Zipf pull tape (:func:`~repro.sim.run_workload`), and then
tree-broadcasts the hottest image to 64 stub nodes.  Every virtual-time
output of that path — the tape and tree reports, each pull latency's
``repr``, every transfer, every link's and every shard's accounting — is
folded into one sha256 and compared with a value recorded before the
fleet's read path was memoized.  Any change to routing, admission or the
broadcast's reservations shows up here as a different digest.
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

#: (seed, shard queue_limit) -> sha256 of the fingerprint below, recorded
#: on the unmemoized ring, the list-comprehension admission queue and the
#: always-snapshot broadcast hop.  The bounded queue drives the tape
#: through thousands of overload 503s and retries.
PINNED = {
    (0, None):
        "f066b9f15219dc58688c9266c7e12789b9f0f492bb80b2a1cb78b58de95f2aaf",
    (1, 2):
        "7685ecae03a4df3d2074a0d88756590ea900257f5873af2ffe605287c4015847",
}


class _StubNode:
    """A kernel-free broadcast target: a hostname and a blob store."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self.content_store = ContentStore()


def _layer(rng: random.Random, name: str, size: int) -> TarArchive:
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=rng.randbytes(size))])


def site_distribution_fingerprint(seed: int, queue_limit) -> str:
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
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("seed,queue_limit", sorted(PINNED, key=repr))
def test_site_distribution_is_bit_identical(seed, queue_limit):
    assert site_distribution_fingerprint(seed, queue_limit) \
        == PINNED[seed, queue_limit]

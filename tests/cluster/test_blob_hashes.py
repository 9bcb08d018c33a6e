"""How often a blob is hashed on its way push -> pull -> broadcast.

The content store is the one place a blob is checked against its
digest: a store hashes what it stores, and re-hashes on a read only
bytes it did not hash itself.  So reads hash nothing, and the count of
blob hashes per blob is fixed by where the bytes enter a store.
"""

from repro.archive import TarArchive, TarMember
from repro.cas import ContentStore
from repro.cluster import (RegistryFleet, distribute_blobs,
                           make_deploy_topology)
from repro.containers import ImageConfig
from repro.kernel import FileType

REF, TOKEN = "alice/app:v1", "token-alice"


class _Stub:
    """A broadcast target: a hostname and a blob store."""

    def __init__(self, hostname):
        self.hostname = hostname
        self.content_store = ContentStore()


def pushed_fleet():
    fleet = RegistryFleet("site", n_shards=2, replicas=1)
    fleet.add_tenant("alice", token=TOKEN)    # quota-checked pushes
    layers = [TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                    data=name.encode() * size)])
              for name, size in (("bin", 4000), ("lib", 2000))]
    fleet.push(REF, ImageConfig(), layers, token=TOKEN)
    return fleet, [layer.serialize() for layer in layers]


def test_a_pushed_blob_is_hashed_at_most_three_times(blob_hashes):
    # once at the front door, once in the shard's dedup probe, and once
    # by the shard's store it enters
    _, blobs = pushed_fleet()
    assert set(blob_hashes) == set(blobs)
    assert max(blob_hashes.count(blob) for blob in blobs) <= 3


def test_reads_hash_nothing_and_stores_hash_what_lands(blob_hashes):
    fleet, blobs = pushed_fleet()
    digests = fleet.image_blob_digests(REF)
    node = ContentStore()
    blob_hashes.clear()
    fleet.pull(REF, local_store=node, token=TOKEN)  # the node stores each
    assert sorted(blob_hashes) == sorted(blobs)
    blob_hashes.clear()
    fleet.pull(REF, token=TOKEN)                    # a repeated pull
    fleet.pull(REF, local_store=node, token=TOKEN)  # node-store hits
    for digest in digests:
        fleet.fetch_blob(digest, local_store=node)
        fleet.blob_at_rest(digest)
    assert blob_hashes == []
    stubs = [_Stub(f"n{i}") for i in range(5)]
    distribute_blobs(fleet, digests, stubs,
                     make_deploy_topology(fleet, stubs), strategy="tree")
    assert sorted(blob_hashes) == sorted(blobs * len(stubs))

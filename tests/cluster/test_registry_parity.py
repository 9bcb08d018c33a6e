"""Differential parity: a fleet's front door *is* a Registry.

One seeded sequence — signed and attested pushes, a multi-arch tag, a
re-push, a cache export, pulls, then a policy-gate audit — runs on a
single ``Registry`` and on a 3-shard, 2-replica ``RegistryFleet``.  Every
metadata read, the transfer accounting, and the audit must agree: the
fleet differs only in where blob bytes live.
"""

import json
import random

import pytest

from repro.archive import TarArchive, TarMember
from repro.cas import ContentStore
from repro.cas.store import blob_digest
from repro.cluster import (RegistryFleet, astra_build_workflow,
                           astra_cached_build_workflow,
                           make_astra, make_world)
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType
from repro.supply import KeyRegistry, PolicyGate, SupplyPolicy, make_advisory_db
from repro.supply.provenance import PROVENANCE_FORMAT
from repro.supply.sbom import SBOM_FORMAT

REFS = ("hpc/base:v1", "hpc/app:v1", "hpc/multi:v1")
CACHE_REF = "hpc/app-cache:latest"


def layer(rng, name):
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=rng.randbytes(rng.randint(500, 3000)))])


def attestations(packages):
    sbom = {"format": SBOM_FORMAT,
            "packages": [{"name": n, "version": v, "origin": "rpm"}
                         for n, v in packages]}
    return {"sbom": json.dumps(sbom, sort_keys=True).encode(),
            "provenance": json.dumps({"format": PROVENANCE_FORMAT}).encode()}


def run_sequence(registry, seed=11):
    """Drive *registry* through the sequence; returns the gate's audits."""
    rng = random.Random(seed)
    keys = KeyRegistry(seed=0)
    registry.signer = keys.signer("site-ci")
    base, app = layer(rng, "base"), layer(rng, "app")
    registry.push("hpc/base:v1", ImageConfig(), [base],
                  attestations=attestations([("bash", "4.2.46")]))
    registry.push("hpc/app:v1", ImageConfig(), [base, app],
                  attestations=attestations([("openssh", "7.4p1")]))
    registry.push("hpc/multi:v1", ImageConfig(arch="x86_64"),
                  [layer(rng, "x86")])
    registry.push("hpc/multi:v1", ImageConfig(arch="aarch64"),
                  [layer(rng, "arm")])
    registry.push("hpc/app:v1", ImageConfig(), [base, app],
                  attestations=attestations([("openssh", "7.4p1")]))
    diffs = [rng.randbytes(800), rng.randbytes(1200)]
    records = [{"diff": blob_digest(d)} for d in diffs + diffs[:1]]
    registry.push_cache(CACHE_REF, json.dumps({"records": records}).encode(),
                        diffs)

    node = ContentStore()
    registry.pull("hpc/app:v1", local_store=node)
    registry.pull("hpc/app:v1", local_store=node)
    registry.pull("hpc/multi:v1", arch="aarch64")
    _, fetch = registry.pull_cache(CACHE_REF)
    fetch(blob_digest(diffs[0]))

    gate = PolicyGate(SupplyPolicy(severity_threshold="high",
                                   trusted_keys=("site-ci",)),
                      keys=keys, advisories=make_advisory_db(seed=0))
    return {ref: gate.audit(registry, ref, arch="x86_64").as_dict()
            for ref in REFS}


def observe(registry, audits):
    return {
        "manifests": {ref: registry.manifest(ref, arch="x86_64").digest()
                      for ref in REFS},
        "repositories": registry.repositories(),
        "tags": registry.tags("hpc"),
        "history": {r: registry.history(r) for r in
                    ("hpc/base", "hpc/app", "hpc/multi")},
        "signatures": {ref: registry.signatures_of(ref) for ref in REFS},
        "attestations": {ref: registry.attestation_digests(ref)
                         for ref in REFS},
        "cache": registry.cache_blob_digests(CACHE_REF),
        "stats": registry.stats.as_dict(),
        "audits": audits,
    }


@pytest.fixture(scope="module")
def pair():
    single = Registry("site")
    fleet = RegistryFleet("site", n_shards=3, replicas=2)
    return (observe(single, run_sequence(single)),
            observe(fleet, run_sequence(fleet)), fleet)


@pytest.mark.parametrize("field", [
    "manifests", "repositories", "tags", "history", "signatures",
    "attestations", "cache", "stats", "audits"])
def test_fleet_matches_single_registry(pair, field):
    single, fleet, _ = pair
    assert fleet[field] == single[field]


def test_sequence_exercises_dedup_and_rejection(pair):
    """Guard the fixture itself: the re-push dedups and the gate sees
    the CVE, so the parity above is not vacuous."""
    single, _, _ = pair
    assert single["stats"]["blobs_push_skipped"] > 0
    assert single["stats"]["blobs_pull_skipped"] > 0
    assert single["audits"]["hpc/app:v1"]["verdict"] == "reject"
    assert single["audits"]["hpc/base:v1"]["verdict"] == "pass"


def test_shards_hold_bytes_only(pair):
    _, _, fleet = pair
    for shard in fleet.shards:
        reg = shard.registry
        assert not (reg._manifests or reg._cache_manifests
                    or reg._signatures or reg._attestations), shard.name


def test_empty_layer_replicates():
    """A RUN that changes nothing yields an empty layer (a zero-byte
    blob); the replica fill must place it like any other blob."""
    fleet = RegistryFleet("site", n_shards=3, replicas=2)
    empty = TarArchive([])
    fleet.push("hpc/app:v1", ImageConfig(),
               [layer(random.Random(0), "bin"), empty])
    digest = blob_digest(empty.serialize())
    assert all(fleet.shards[int(name[-2:])].registry.has_blob(digest)
               for name in fleet.blob_holders(digest))
    _, layers = fleet.pull("hpc/app:v1")
    assert len(layers[1]) == 0


def test_cached_workflow_deploys_through_a_fleet():
    """The cache export's manifest blob may live on any shard: planning
    reads it through the front door, not from one shard's store."""
    astra = make_astra(make_world(arches=("aarch64",)), n_compute=3)
    report = astra_cached_build_workflow(
        astra, "alice", "FROM centos:7\nRUN yum install -y atse\n", "atse",
        n_nodes=3, registry_shards=3, registry_replicas=2)
    assert report.success, report.phases
    assert report.warm_hits == [1] * 3


def test_deploy_places_the_converted_image_on_the_ring():
    """The login node's converted image goes in by ``put_blob``: a fleet
    places it on its ring with its replicas, as it places a pushed
    layer, and the tree broadcast routes the one pull to a holder."""
    astra = make_astra(make_world(arches=("aarch64",)), n_compute=3)
    report = astra_build_workflow(
        astra, "alice", "FROM centos:7\nRUN yum install -y atse\n", "atse",
        n_nodes=3, registry_shards=3, registry_replicas=2)
    assert report.success, report.phases
    fleet = astra.world.site_registry
    (digest,) = astra.world.network.images
    assert {s.name for s in fleet.shards if s.registry.has_blob(digest)} \
        == set(fleet.blob_holders(digest))
    assert report.distribution.registry_blobs_pulled == 1

"""Supply-chain policy gate: audit throughput and rejection fidelity.

A two-image family — one clean, one installing the CVE-tripping
``openssh`` — is built, attested, signed, and pushed into a sharded
fleet; the policy gate then audits every ref registry-side.  Gates
(mirrored by the ``policy-smoke`` CI job):

* the signed clean image passes and deploys;
* the CVE image, a tampered manifest, and an unsigned push are each
  rejected with ``SupplyPolicyError`` *before* any broadcast — the
  audit itself moves zero bytes through the fleet's front door;
* attestation digests are deterministic: a fresh world re-attests the
  same Dockerfile to byte-identical blob digests.

Emits ``BENCH_policy.json``, the committed baseline the CI job
compares against.
"""

import pytest

from repro.archive import TarArchive
from repro.cluster import make_machine, make_world
from repro.cluster.fleet import RegistryFleet
from repro.containers import Manifest
from repro.core import ChImage
from repro.core.push import flatten_archive
from repro.errors import SupplyPolicyError
from repro.supply import (
    KeyRegistry,
    PolicyGate,
    SupplyPolicy,
    build_attestations,
    make_advisory_db,
)

from .conftest import FIG2_DOCKERFILE, report, write_bench

CLEAN_DOCKERFILE = """\
FROM centos:7
RUN echo hello > /hi
"""

FAMILY = {"clean": CLEAN_DOCKERFILE, "ssh": FIG2_DOCKERFILE}


def fresh_builder():
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network)
    return ChImage(login, login.login("alice"), force_mode="seccomp")


def make_site():
    keys = KeyRegistry(seed=0)
    fleet = RegistryFleet("site", n_shards=4, replicas=2)
    gate = PolicyGate(
        SupplyPolicy(severity_threshold="high", trusted_keys=("site-ci",)),
        keys=keys, advisories=make_advisory_db(seed=0))
    fleet.signer = keys.signer("site-ci")
    return fleet, gate


def push_family(ch, fleet, *, sign=True):
    digests = {}
    for tag, dockerfile in FAMILY.items():
        assert ch.build(tag=tag, dockerfile=dockerfile,
                        force=True).success
        archive = TarArchive.pack(ch.sys, ch.storage.path_of(tag))
        bundle = build_attestations(ch, tag, dockerfile, force=True,
                                    force_mode="seccomp")
        saved, fleet.signer = fleet.signer, \
            (fleet.signer if sign else None)
        try:
            fleet.push(f"hpc/{tag}", ch.storage.config_of(tag),
                       [flatten_archive(archive)],
                       attestations=bundle.blobs())
        finally:
            fleet.signer = saved
        digests[tag] = bundle.digests()
    return digests


def test_scaling_policy_gate():
    """The policy gate acceptance matrix, emitted as BENCH_policy.json."""
    ch = fresh_builder()
    fleet, gate = make_site()
    digests = push_family(ch, fleet)

    # clean and signed: passes, and the audit itself is at-rest
    clean = gate.check(fleet, "hpc/clean")
    assert clean.ok and clean.signed and clean.findings == []

    # the CVE cell: rejected at the high threshold
    with pytest.raises(SupplyPolicyError) as cve:
        gate.check(fleet, "hpc/ssh")
    assert any("at or above high" in v for v in cve.value.violations)

    # tampered manifest: swap layers post-signing, gate catches it
    forged = Manifest(config=fleet.manifest("hpc/clean").config,
                      layers=fleet.manifest("hpc/ssh").layers)
    fleet._manifests[("hpc/clean", "latest")] = {forged.config.arch: forged}
    with pytest.raises(SupplyPolicyError) as tam:
        gate.check(fleet, "hpc/clean")
    assert any("served manifest" in v for v in tam.value.violations)

    # every audit above was registry-side: zero front-door pull traffic
    assert fleet.stats.bytes_pulled == 0
    assert fleet.stats.blobs_pulled == 0

    # unsigned push on a fresh site: rejected outright
    ch2 = fresh_builder()
    fleet2, gate2 = make_site()
    digests2 = push_family(ch2, fleet2, sign=False)
    with pytest.raises(SupplyPolicyError) as uns:
        gate2.check(fleet2, "hpc/clean")
    assert "no signature recorded" in uns.value.violations

    # determinism: fresh worlds attest to byte-identical digests
    assert digests == digests2

    write_bench("policy", {
        "benchmark": "policy-gate",
        "family": sorted(FAMILY),
        "threshold": "high",
        "clean_packages": clean.package_count,
        "clean_findings": len(clean.findings),
        "cve_violations": list(cve.value.violations),
        "tampered_rejected": True,
        "unsigned_rejected": True,
        "audit_front_door_bytes": fleet.stats.bytes_pulled,
        "attestation_digests": digests["ssh"],
        "attestations_deterministic": True,
    })

    report("Supply-chain policy gate (2-image family)", [
        ("clean image", f"pass ({clean.package_count} packages, "
                        f"0 findings)"),
        ("CVE image", "REJECTED (openssh 7.4p1, high >= high)"),
        ("tampered manifest", "REJECTED (digest mismatch)"),
        ("unsigned push", "REJECTED (no signature recorded)"),
        ("audit traffic", f"{fleet.stats.bytes_pulled} front-door bytes"),
        ("determinism", "fresh worlds attest byte-identically"),
    ])

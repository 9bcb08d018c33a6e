"""End-to-end policy gate: sign-on-push, verify-on-pull, audit, reject.

The issue's acceptance scenarios, each asserted *before* any broadcast
traffic: a signed clean image deploys; a tampered manifest, a missing
signature, and a CVE above threshold are each rejected with the right
error class, the right obs counters, and zero front-door pull bytes.
"""

import pytest

from repro.archive import TarArchive
from repro.cluster import make_machine, make_world
from repro.cluster.ci import CiPipeline, policy_gate_stage
from repro.cluster.fleet import RegistryFleet
from repro.containers import Manifest
from repro.core import ChImage, ch_image_cli
from repro.core.push import flatten_archive
from repro.errors import SupplyPolicyError
from repro.obs import attach_tracer
from repro.supply import (
    KeyRegistry,
    PolicyGate,
    SupplyPolicy,
    build_attestations,
    make_advisory_db,
)

FIG2_DOCKERFILE = """\
FROM centos:7
RUN echo hello
RUN yum install -y openssh
"""

CLEAN_DOCKERFILE = """\
FROM centos:7
RUN echo hello > /hi
"""


class World:
    """One builder, one traced fleet, one gate — shared per test."""

    def __init__(self):
        world = make_world(arches=("x86_64",))
        self.login = make_machine("login1", network=world.network)
        self.tracer = attach_tracer(self.login.kernel)
        self.ch = ChImage(self.login, self.login.login("alice"),
                          force_mode="seccomp")
        self.keys = KeyRegistry(seed=0)
        self.fleet = RegistryFleet("site", n_shards=2, replicas=2,
                                   tracer=self.tracer)
        self.gate = PolicyGate(
            SupplyPolicy(severity_threshold="high",
                         trusted_keys=("site-ci",)),
            keys=self.keys, advisories=make_advisory_db(seed=0),
            tracer=self.tracer)
        self.fleet.signer = self.keys.signer("site-ci")
        self.fleet.policy_gate = self.gate

    def build(self, tag, dockerfile):
        result = self.ch.build(tag=tag, dockerfile=dockerfile, force=True)
        assert result.success, result.text
        return result

    def push(self, tag, dockerfile, *, attest=True, sign=True):
        self.build(tag, dockerfile)
        archive = TarArchive.pack(self.ch.storage.sys,
                                  self.ch.storage.path_of(tag))
        att = (build_attestations(self.ch, tag, dockerfile, force=True,
                                  force_mode="seccomp").blobs()
               if attest else None)
        saved, self.fleet.signer = self.fleet.signer, \
            (self.fleet.signer if sign else None)
        try:
            manifest = self.fleet.push(
                f"hpc/{tag}", self.ch.storage.config_of(tag),
                [flatten_archive(archive)], attestations=att)
        finally:
            self.fleet.signer = saved
        return manifest

    def supply_counters(self):
        return self.tracer.metrics.snapshot().get("supply", {})


@pytest.fixture
def w():
    return World()


class TestSignedDeploy:
    def test_signed_clean_image_passes_and_pulls(self, w):
        w.push("clean", CLEAN_DOCKERFILE)
        report = w.gate.check(w.fleet, "hpc/clean")
        assert report.ok and report.signed
        assert report.signature_key == "site-ci"
        assert set(report.attestations) == {"sbom", "provenance"}
        assert report.package_count > 0 and report.findings == []
        assert report.size["total_bytes"] > 0
        # verify-on-pull: the gated fleet serves it
        config, layers = w.fleet.pull("hpc/clean")
        assert len(layers) == 1
        counters = w.supply_counters()
        assert counters["signed"] == 1 and counters["attested"] == 1
        assert counters["gate_pass"] == 1
        assert counters["verify_ok"] == 1
        assert "unsigned_pull" not in counters

    def test_audit_reads_are_at_rest(self, w):
        """The gate runs registry-side: a full audit moves zero bytes
        through the front door (nothing to broadcast yet)."""
        w.push("clean", CLEAN_DOCKERFILE)
        w.gate.check(w.fleet, "hpc/clean")
        assert w.fleet.stats.bytes_pulled == 0
        assert w.fleet.stats.blobs_pulled == 0


class TestTamperedLayer:
    def tamper(self, w):
        """Re-serve hpc/app with a layer swapped post-signing."""
        m_clean = w.push("clean", CLEAN_DOCKERFILE)
        w.push("app", FIG2_DOCKERFILE)
        forged = Manifest(config=m_clean.config, layers=m_clean.layers)
        # the fleet's one manifest table, at the front door
        w.fleet._manifests[("hpc/app", "latest")] = {
            forged.config.arch: forged}

    def test_rejected_by_gate_before_broadcast(self, w):
        self.tamper(w)
        with pytest.raises(SupplyPolicyError) as err:
            w.gate.check(w.fleet, "hpc/app")
        assert any("does not match the served manifest" in v
                   for v in err.value.violations)
        assert w.fleet.stats.bytes_pulled == 0
        assert w.supply_counters()["gate_reject"] == 1

    def test_rejected_on_pull(self, w):
        self.tamper(w)
        with pytest.raises(SupplyPolicyError):
            w.fleet.pull("hpc/app")
        assert w.fleet.stats.bytes_pulled == 0
        assert w.supply_counters()["verify_fail"] == 1


class TestMissingSignature:
    def test_unsigned_push_is_rejected(self, w):
        w.push("app", CLEAN_DOCKERFILE, sign=False)
        with pytest.raises(SupplyPolicyError) as err:
            w.gate.check(w.fleet, "hpc/app")
        assert "no signature recorded" in err.value.violations
        assert w.fleet.stats.bytes_pulled == 0

    def test_unsigned_pulls_are_counted(self, w):
        w.fleet.policy_gate = None        # ungated fleet still observes
        w.push("app", CLEAN_DOCKERFILE, sign=False)
        w.fleet.pull("hpc/app")
        assert w.supply_counters()["unsigned_pull"] == 1

    def test_untrusted_key_is_rejected(self, w):
        w.fleet.signer = w.keys.signer("rogue")
        w.push("app", CLEAN_DOCKERFILE)
        with pytest.raises(SupplyPolicyError) as err:
            w.gate.check(w.fleet, "hpc/app")
        assert "no trusted key validates the recorded signature" \
            in err.value.violations

    def test_missing_attestations_are_violations(self, w):
        w.push("app", CLEAN_DOCKERFILE, attest=False)
        with pytest.raises(SupplyPolicyError) as err:
            w.gate.check(w.fleet, "hpc/app")
        assert "missing sbom attestation" in err.value.violations
        assert "missing provenance attestation" in err.value.violations


class TestCveThreshold:
    def test_fig2_openssh_rejected_at_high(self, w):
        w.push("app", FIG2_DOCKERFILE)
        with pytest.raises(SupplyPolicyError) as err:
            w.gate.check(w.fleet, "hpc/app")
        assert any("at or above high" in v for v in err.value.violations)
        assert w.fleet.stats.bytes_pulled == 0
        assert w.supply_counters()["gate_reject"] == 1

    def test_critical_threshold_lets_it_through(self, w):
        w.push("app", FIG2_DOCKERFILE)
        lax = PolicyGate(
            SupplyPolicy(severity_threshold="critical",
                         trusted_keys=("site-ci",)),
            keys=w.keys, advisories=make_advisory_db(seed=0))
        report = lax.check(w.fleet, "hpc/app")
        assert report.ok
        assert report.worst_severity == "high"   # reported, not fatal

    def test_layer_size_cap(self, w):
        w.push("app", CLEAN_DOCKERFILE)
        capped = PolicyGate(
            SupplyPolicy(severity_threshold="high",
                         trusted_keys=("site-ci",), max_layer_bytes=100),
            keys=w.keys, advisories=make_advisory_db(seed=0))
        with pytest.raises(SupplyPolicyError) as err:
            capped.check(w.fleet, "hpc/app")
        assert any("cap 100" in v for v in err.value.violations)

    def test_bad_threshold_fails_at_construction(self, w):
        with pytest.raises(ValueError):
            PolicyGate(SupplyPolicy(severity_threshold="scary"))


class TestGoldenAudit:
    def test_fig2_audit_report_is_pinned(self, w, golden_check):
        """The full audit of the Figure 2 image — manifest digest,
        attestation digests, findings, size audit, verdict — is
        deterministic enough to golden-pin byte-for-byte."""
        w.push("app", FIG2_DOCKERFILE)
        report = w.gate.audit(w.fleet, "hpc/app")
        golden_check("supply_audit_fig2", report.as_dict())

    def test_render_matches_the_report(self, w):
        w.push("app", FIG2_DOCKERFILE)
        text = w.gate.audit(w.fleet, "hpc/app").render()
        assert text.startswith("supply audit: hpc/app")
        assert "signature: ok (key site-ci)" in text
        assert "ADV-" in text and "openssh 7.4p1 < 8.0" in text
        assert "verdict: REJECT (" in text


class TestCiIntegration:
    def test_policy_gate_stage_names_the_failure(self, w):
        w.push("clean", CLEAN_DOCKERFILE)
        w.push("app", FIG2_DOCKERFILE)
        pipe = CiPipeline("supply")
        policy_gate_stage(pipe, w.gate, w.fleet,
                          ["hpc/clean", "hpc/app"])
        result = pipe.run()
        assert not result.passed
        jobs = {j.name: j for j in pipe.stages[0].jobs}
        assert jobs["audit hpc/clean"].status == 0
        assert "pass (signed by site-ci" in jobs["audit hpc/clean"].output
        assert jobs["audit hpc/app"].status == 1
        assert "REJECTED" in jobs["audit hpc/app"].output
        assert "at or above high" in jobs["audit hpc/app"].output


class TestChImageAudit:
    def test_local_audit_of_fig2(self, w):
        w.build("app", FIG2_DOCKERFILE)
        status, out = ch_image_cli(w.ch, ["audit", "app"])
        assert status == 0
        assert out.splitlines()[0] == "image audit: app"
        assert "findings: 1 (worst: high)" in out
        assert "openssh 7.4p1 < 8.0" in out

    def test_json_mode_is_machine_shaped(self, w):
        import json
        w.build("app", FIG2_DOCKERFILE)
        status, out = ch_image_cli(w.ch, ["audit", "--json", "app"])
        assert status == 0
        d = json.loads(out)
        assert d["image"] == "app"
        assert d["findings"][0]["package"] == "openssh"
        assert d["size"]["total_bytes"] > 0

    def test_unknown_image_errors(self, w):
        status, out = ch_image_cli(w.ch, ["audit", "nope"])
        assert status == 1 and "no image 'nope'" in out

    def test_missing_name_errors(self, w):
        status, out = ch_image_cli(w.ch, ["audit"])
        assert status == 1 and "need an image name" in out

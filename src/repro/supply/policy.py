"""The policy gate: what stands between a pushed image and a deploy.

A :class:`PolicyGate` composes the supply-chain checks — signature
verification against a trust store, required attestations, a CVE scan
of the SBOM, a per-layer size budget — into one audit that runs
*before* any broadcast traffic is scheduled.  ``audit`` always returns
a full :class:`AuditReport` (violations included); ``check`` raises
:class:`~repro.errors.SupplyPolicyError` when the report has any.

The gate works against the one registry metadata surface:
``manifest`` / ``signatures_of`` / ``attestation_digests`` /
``fetch_attestation`` / ``blob_at_rest`` of :class:`Registry`.  A
:class:`RegistryFleet` is a :class:`Registry` whose front door holds
that metadata once, so the same gate guards a single service and a
sharded fleet.  Audit reads are at-rest (no transfer is counted): the
gate runs registry-side, not over the wire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..archive import TarArchive
from ..errors import RegistryError, SupplyPolicyError
from ..obs.trace import maybe_span
from .provenance import PROVENANCE_FORMAT
from .sbom import SBOM_FORMAT, packages_of
from .scanner import AdvisoryDb, severity_rank
from .signing import KeyRegistry, Signature
from .size_audit import audit_layers, layers_as_dict

__all__ = ["SupplyPolicy", "AuditReport", "PolicyGate"]


@dataclass(frozen=True)
class SupplyPolicy:
    """What the gate requires of an image.

    ``trusted_keys`` empty means any key the keyring can verify;
    ``severity_threshold`` is the least severity that rejects (``""``
    disables scanning enforcement — findings are still reported);
    ``max_layer_bytes`` caps any single layer (``None`` = no cap).
    """

    require_signature: bool = True
    require_sbom: bool = True
    require_provenance: bool = True
    trusted_keys: tuple[str, ...] = ()
    severity_threshold: str = "high"
    max_layer_bytes: Optional[int] = None


@dataclass
class AuditReport:
    """Everything the gate learned about one image."""

    ref: str
    manifest_digest: str = ""
    signed: bool = False
    signature_key: str = ""
    attestations: dict = field(default_factory=dict)  # kind -> digest
    package_count: int = 0
    findings: list = field(default_factory=list)      # Finding.as_dict()
    size: dict = field(default_factory=dict)          # layers_as_dict()
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def worst_severity(self) -> str:
        return self.findings[0]["severity"] if self.findings else ""

    def as_dict(self) -> dict:
        return {
            "ref": self.ref,
            "manifest": self.manifest_digest,
            "signed": self.signed,
            "signature_key": self.signature_key,
            "attestations": dict(sorted(self.attestations.items())),
            "package_count": self.package_count,
            "findings": list(self.findings),
            "size": self.size,
            "violations": list(self.violations),
            "verdict": "pass" if self.ok else "reject",
        }

    def render(self) -> str:
        """The ``ch-image audit`` / ``astra-matrix --policy`` text."""
        lines = [f"supply audit: {self.ref}"]
        if self.manifest_digest:
            lines.append(f"  manifest: {self.manifest_digest}")
        sig = (f"ok (key {self.signature_key})" if self.signed
               else "MISSING")
        lines.append(f"  signature: {sig}")
        atts = ", ".join(f"{k} {d}" for k, d in
                         sorted(self.attestations.items())) or "none"
        lines.append(f"  attestations: {atts}")
        lines.append(f"  packages: {self.package_count}")
        worst = f" (worst: {self.worst_severity})" if self.findings else ""
        lines.append(f"  findings: {len(self.findings)}{worst}")
        for f in self.findings:
            fixed = f"< {f['fixed_in']}" if f["fixed_in"] else "(no fix)"
            lines.append(f"    {f['id']} {f['severity']}: {f['package']} "
                         f"{f['installed']} {fixed}: {f['summary']}")
        if self.size:
            lines.append(
                f"  layers: {len(self.size['layers'])}, "
                f"{self.size['total_bytes']} bytes "
                f"({self.size['duplicate_bytes']} duplicate)")
            for layer in self.size["layers"]:
                top = layer["largest"][0] if layer["largest"] else None
                largest = (f", largest {top['path']} ({top['size']})"
                           if top else "")
                lines.append(
                    f"    layer {layer['index']}: {layer['total_bytes']} "
                    f"bytes, {layer['members']} members{largest}")
        verdict = ("PASS" if self.ok else
                   "REJECT (" + "; ".join(self.violations) + ")")
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


class PolicyGate:
    """Composes the supply-chain checks over a registry surface."""

    def __init__(self, policy: Optional[SupplyPolicy] = None, *,
                 keys: Optional[KeyRegistry] = None,
                 advisories: Optional[AdvisoryDb] = None,
                 tracer=None):
        self.policy = policy if policy is not None else SupplyPolicy()
        if self.policy.severity_threshold:
            severity_rank(self.policy.severity_threshold)  # fail loudly now
        self.keys = keys if keys is not None else KeyRegistry()
        self.advisories = (advisories if advisories is not None
                           else AdvisoryDb())
        self.tracer = tracer

    # -- signature verification --------------------------------------------------------

    def _verify_signature(self, registry, ref, manifest
                          ) -> tuple[Optional[Signature], list[str]]:
        """(validating signature, violations) for the manifest served."""
        digest = manifest.digest()
        sigs = registry.signatures_of(ref)
        if not sigs:
            if self.policy.require_signature:
                return None, ["no signature recorded"]
            return None, []
        matching = [s for s in sigs if s.payload == digest]
        if not matching:
            return None, ["signature does not match the served manifest "
                          "(layer or config tampered after signing)"]
        trusted = self.policy.trusted_keys
        for sig in matching:
            if trusted and sig.key not in trusted:
                continue
            if self.keys.verify(sig, digest):
                return sig, []
        return None, ["no trusted key validates the recorded signature"]

    def verify_pull(self, registry, ref, manifest) -> None:
        """The pull/deploy-time check: the served manifest must carry a
        verifiable signature (when policy requires one).  Raises
        :class:`SupplyPolicyError`; counts verify_ok / verify_fail."""
        sig, violations = self._verify_signature(registry, ref, manifest)
        if violations:
            self._count("verify_fail")
            raise SupplyPolicyError(
                f"{ref}: " + "; ".join(violations),
                ref=str(ref), violations=tuple(violations))
        if sig is not None:
            self._count("verify_ok")

    # -- the full audit ----------------------------------------------------------------

    def audit(self, registry, ref, *, arch: Optional[str] = None
              ) -> AuditReport:
        """Run every check; never raises for policy reasons (a missing
        manifest still surfaces as :class:`RegistryError`)."""
        report = AuditReport(ref=str(ref))
        with maybe_span(self.tracer, f"supply-audit {ref}", "supply",
                        ref=str(ref)):
            manifest = registry.manifest(ref, arch=arch)
            report.manifest_digest = manifest.digest()

            sig, violations = self._verify_signature(registry, ref,
                                                     manifest)
            report.violations.extend(violations)
            if sig is not None:
                report.signed = True
                report.signature_key = sig.key

            report.attestations = registry.attestation_digests(ref)
            sbom = self._load_statement(registry, ref, "sbom", SBOM_FORMAT,
                                        self.policy.require_sbom,
                                        report.violations)
            self._load_statement(registry, ref, "provenance",
                                 PROVENANCE_FORMAT,
                                 self.policy.require_provenance,
                                 report.violations)

            if sbom is not None:
                packages = packages_of(sbom)
                report.package_count = len(packages)
                report.findings = [f.as_dict()
                                   for f in self.advisories.scan(packages)]
                threshold = self.policy.severity_threshold
                if threshold:
                    floor = severity_rank(threshold)
                    over = [f for f in report.findings
                            if severity_rank(f["severity"]) >= floor]
                    if over:
                        ids = ", ".join(f["id"] for f in over)
                        report.violations.append(
                            f"{len(over)} finding(s) at or above "
                            f"{threshold}: {ids}")

            layers = [TarArchive.deserialize(registry.blob_at_rest(d))
                      for d in manifest.layers]
            audits = audit_layers(layers)
            report.size = layers_as_dict(audits)
            cap = self.policy.max_layer_bytes
            if cap is not None:
                for layer in audits:
                    if layer.total_bytes > cap:
                        report.violations.append(
                            f"layer {layer.index} is {layer.total_bytes} "
                            f"bytes (cap {cap})")
        return report

    def check(self, registry, ref, *, arch: Optional[str] = None
              ) -> AuditReport:
        """Audit and enforce: raises :class:`SupplyPolicyError` when the
        report has violations; counts gate_pass / gate_reject."""
        report = self.audit(registry, ref, arch=arch)
        if report.violations:
            self._count("gate_reject")
            raise SupplyPolicyError(
                f"{ref}: policy gate rejected: "
                + "; ".join(report.violations),
                ref=str(ref), violations=tuple(report.violations))
        self._count("gate_pass")
        return report

    # -- helpers -----------------------------------------------------------------------

    def _load_statement(self, registry, ref, kind: str, expect_format: str,
                        required: bool, violations: list) -> Optional[dict]:
        try:
            raw = registry.fetch_attestation(ref, kind)
        except RegistryError:
            if required:
                violations.append(f"missing {kind} attestation")
            return None
        try:
            statement = json.loads(raw)
        except ValueError:
            violations.append(f"malformed {kind} attestation (not JSON)")
            return None
        if statement.get("format") != expect_format:
            violations.append(
                f"malformed {kind} attestation (format "
                f"{statement.get('format')!r}, expected {expect_format!r})")
            return None
        return statement

    def _count(self, event: str) -> None:
        if self.tracer is not None:
            self.tracer.metrics.counters.count(f"supply.{event}")

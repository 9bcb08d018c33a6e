"""CVE-style scanning of SBOMs against a seeded advisory database.

An :class:`Advisory` says "package *P* before version *V* has a flaw of
severity *S*".  Scanning an SBOM is a version comparison per installed
package — the comparison is an rpmvercmp-style segment walk that
understands epochs (``1:7.9p1-10``), numeric/alpha segment alternation,
and release suffixes, which is enough for every version string the
simulated catalogs mint.

``make_advisory_db(seed)`` mints the deterministic advisory set the
policy benchmark and golden transcripts pin: identifiers are derived
from the seed, contents from the catalog's package inventory (openssh
before 8.0 is the canonical "high" hit — exactly what the paper's
Figure 2 image installs).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

__all__ = ["SEVERITIES", "severity_rank", "compare_versions", "Advisory",
           "Finding", "AdvisoryDb", "make_advisory_db"]

#: Severity ladder, least to most severe.
SEVERITIES = ("negligible", "low", "medium", "high", "critical")


def severity_rank(severity: str) -> int:
    """Index into :data:`SEVERITIES`; raises ValueError for unknowns."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(f"unknown severity {severity!r}; expected one of "
                         f"{SEVERITIES}") from None


_SEGMENT = re.compile(r"\d+|[a-zA-Z]+")


def _version_key(version: str) -> tuple:
    """Sortable key: (epoch, segment, segment, ...).

    Numeric segments compare numerically, alpha segments lexically;
    numeric sorts after alpha at the same position (rpm semantics:
    ``1.0a < 1.0.1``).  Separators only delimit segments.
    """
    epoch = 0
    body = version
    head, sep, tail = version.partition(":")
    if sep and head.isdigit():
        epoch, body = int(head), tail
    key: list = [epoch]
    for seg in _SEGMENT.findall(body):
        if seg.isdigit():
            key.append((1, int(seg), ""))
        else:
            key.append((0, 0, seg))
    return tuple(key)


def compare_versions(a: str, b: str) -> int:
    """-1, 0, or 1 as *a* is older than, equal to, or newer than *b*."""
    ka, kb = _version_key(a), _version_key(b)
    return (ka > kb) - (ka < kb)


@dataclass(frozen=True)
class Advisory:
    """One published flaw: *package* before *fixed_in* is affected.

    ``fixed_in == ""`` means no fixed version exists — every installed
    version is affected.
    """

    ident: str
    package: str
    fixed_in: str
    severity: str
    summary: str = ""

    def affects(self, version: str) -> bool:
        if not self.fixed_in:
            return True
        return compare_versions(version, self.fixed_in) < 0


@dataclass(frozen=True)
class Finding:
    """One advisory matched against one installed package."""

    advisory: Advisory
    installed: str

    def as_dict(self) -> dict:
        return {
            "id": self.advisory.ident,
            "package": self.advisory.package,
            "installed": self.installed,
            "fixed_in": self.advisory.fixed_in,
            "severity": self.advisory.severity,
            "summary": self.advisory.summary,
        }


class AdvisoryDb:
    """The advisory feed a scanner consults."""

    def __init__(self, advisories: tuple = ()):
        self._by_package: dict[str, list[Advisory]] = {}
        for adv in advisories:
            self.add(adv)

    def add(self, advisory: Advisory) -> None:
        severity_rank(advisory.severity)  # validate loudly at feed time
        self._by_package.setdefault(advisory.package, []).append(advisory)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_package.values())

    def for_package(self, name: str) -> list[Advisory]:
        return list(self._by_package.get(name, ()))

    def scan(self, packages: dict[str, str]) -> list[Finding]:
        """All findings for an installed set, most severe first (ties
        broken by advisory id for determinism)."""
        findings = [
            Finding(advisory=adv, installed=version)
            for name, version in packages.items()
            for adv in self._by_package.get(name, ())
            if adv.affects(version)
        ]
        findings.sort(key=lambda f: (-severity_rank(f.advisory.severity),
                                     f.advisory.ident))
        return findings

    def worst(self, packages: dict[str, str]) -> str:
        """Severity of the worst finding, or ``""`` when clean."""
        findings = self.scan(packages)
        return findings[0].advisory.severity if findings else ""


#: (package, fixed_in, severity, summary) — the simulated advisory feed.
_SEED_ADVISORIES = (
    ("openssh", "8.0", "high",
     "pre-auth option parsing overflow in sshd"),
    ("openssh-server", "8.0", "critical",
     "remote code execution in privilege separation monitor"),
    ("openssh-client", "1:8.0p1-1", "high",
     "malicious server can overwrite files via scp"),
    ("gcc", "5.0", "low",
     "crafted source can crash the preprocessor"),
    ("openmpi", "4.0.0", "medium",
     "predictable shared-memory segment names allow local DoS"),
    ("openmpi-bin", "4.0.0", "medium",
     "predictable shared-memory segment names allow local DoS"),
    ("hdf5", "1.10.0", "medium",
     "heap overflow parsing crafted H5 files"),
    ("iputils", "20200821", "low",
     "ping leaks uninitialized stack bytes in payloads"),
    ("fakeroot", "", "negligible",
     "LD_PRELOAD interposition is bypassable by static binaries"),
)


def make_advisory_db(seed: int = 0) -> AdvisoryDb:
    """The deterministic advisory feed: contents fixed by the catalog,
    identifiers derived from *seed* (so distinct feeds are tellable
    apart in transcripts while any one seed is fully reproducible)."""
    db = AdvisoryDb()
    for package, fixed_in, severity, summary in _SEED_ADVISORIES:
        digest = hashlib.sha256(
            f"adv|{seed}|{package}|{fixed_in}".encode()).hexdigest()
        db.add(Advisory(ident=f"ADV-{digest[:10]}", package=package,
                        fixed_in=fixed_in, severity=severity,
                        summary=summary))
    return db

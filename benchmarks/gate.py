"""The benchmark gate: every committed ``BENCH_*.json`` artifact against
its committed baseline, by one declared table.

``pytest benchmarks/`` regenerates the artifacts in
the working tree; ``python -m benchmarks.gate`` then checks each against
the version committed at ``HEAD`` and exits 1 if any declared key fails,
printing one line per failure that names the artifact and the key.

A rule's keys are dotted paths into the artifact's JSON
(``pulls_per_sec.8`` is ``doc["pulls_per_sec"]["8"]``):

* ``true``: must be ``true`` — identity bits (digests, replays);
* ``exact``: must equal the baseline — deterministic plan and audit
  outputs, where any drift is a format or formula change;
* ``floor``: at least :data:`FLOOR` × the baseline — throughputs and
  speedups, which vary with the machine;
* ``ceiling``: at most the baseline — work counts that may only shrink.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from dataclasses import dataclass

__all__ = ["FLOOR", "GATES", "Rule", "check", "lookup", "main"]

#: A throughput or speedup may fall to this share of its baseline.
FLOOR = 0.9

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Rule:
    true: tuple[str, ...] = ()
    exact: tuple[str, ...] = ()
    floor: tuple[str, ...] = ()
    ceiling: tuple[str, ...] = ()


GATES: dict[str, Rule] = {
    "build": Rule(
        true=("digests_identical",),
        exact=("makespan_seconds", "critical_path_seconds",
               "parallel_over_sequential")),
    "coldbuild": Rule(
        true=("digest_identical", "rebuild_digest_identical"),
        floor=("speedup",),
        ceiling=("walker_full_walks", "rebuild_full_walks",
                 "rebuild_members_hashed", "clone_gens")),
    "registry": Rule(
        true=("replay_identical", "deploys_digest_identical"),
        exact=tuple(f"p99_seconds.{n}" for n in (1, 2, 4, 8)),
        floor=tuple(f"pulls_per_sec.{n}" for n in (1, 2, 4, 8))),
    "matrix": Rule(
        true=("digests_identical",),
        exact=("cells", "unique_cell_builds", "total_stage_builds",
               "unique_stage_builds", "amplification", "sharing_histogram",
               "measured_stores", "pushed")),
    "engine": Rule(
        true=("identical_reports", "identical_stores"),
        exact=("pull_storm.makespan", "tree.makespan"),
        floor=("pull_storm.events_per_sec", "workload.events_per_sec")),
    "policy": Rule(
        true=("attestations_deterministic",),
        exact=("attestation_digests", "clean_packages", "clean_findings",
               "cve_violations", "tampered_rejected", "unsigned_rejected",
               "audit_front_door_bytes")),
    "walk": Rule(true=("identical",), floor=("speedup",),
                 ceiling=("syscalls", "path_resolves", "unpack_gens")),
    "deploy": Rule(
        true=("mounted_equals_unpacked",),
        exact=("blobs", *(f"{s}.{k}" for s in ("tree", "registry")
                          for k in ("deploy_makespan",
                                    "distribution_makespan",
                                    "registry_egress_bytes",
                                    "image_bytes"))),
        ceiling=("syscalls_per_rank",)),
}

MISSING = object()


def lookup(doc, key: str):
    """The value at dotted *key* in *doc*, or :data:`MISSING`."""
    for part in key.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return MISSING
        doc = doc[part]
    return doc


def check(name: str, baseline: dict, current: dict) -> list[str]:
    """Every failure of artifact *name*'s rule, one message each."""
    rule = GATES[name]
    kinds = [
        (rule.true, lambda cur, base: cur is True, "is {cur!r}, not true"),
        (rule.exact, lambda cur, base: cur == base,
         "drifted from the baseline: {cur!r} != {base!r}"),
        (rule.floor, lambda cur, base: cur >= FLOOR * base,
         f"regressed: {{cur}} < {FLOOR} x baseline {{base}}"),
        (rule.ceiling, lambda cur, base: cur <= base,
         "grew: {cur} > baseline {base}"),
    ]
    failures = []
    for keys, ok, why in kinds:
        for key in keys:
            cur, base = lookup(current, key), lookup(baseline, key)
            if cur is MISSING or base is MISSING:
                why_key = "is missing"
            elif ok(cur, base):
                continue
            else:
                why_key = why.format(cur=cur, base=base)
            failures.append(f"BENCH_{name}.json: {key} {why_key}")
    return failures


def _committed(path: str) -> dict:
    out = subprocess.run(["git", "show", f"HEAD:{path}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    failures = []
    for name in GATES:
        path = f"BENCH_{name}.json"
        current = json.loads((ROOT / path).read_text())
        failures += check(name, _committed(path), current)
    for line in failures:
        print(line)
    if failures:
        return 1
    print(f"gate ok: {', '.join(f'BENCH_{n}.json' for n in GATES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

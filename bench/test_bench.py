"""Smoke test of the benchmark, at three ops per workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.run import DETERMINISTIC_UNITS

ROOT = Path(__file__).resolve().parent.parent
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]


def _run(*args: str) -> tuple[dict, dict]:
    """``bench/run.py --ops 3 ARGS``: the printed metrics as
    ``{(workload, metric): (value, unit)}``, and the results file."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--ops", "3", *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith(("#", "{")):
            continue
        workload, name, value, unit = line.split()
        printed[workload, name] = (float(value), unit)
    results = json.loads((ROOT / "bench" / "out" / "results.json").read_text())
    return printed, results


@pytest.fixture(scope="module")
def timed():
    return _run()


@pytest.fixture(scope="module")
def traced():
    return _run("--trace")


@pytest.mark.parametrize("mode,kind", [("timed", "end_to_end"),
                                       ("traced", "per_layer")])
def test_prints_exactly_the_declared_metrics(request, mode, kind):
    printed, _ = request.getfixturevalue(mode)
    assert {key: unit for key, (_, unit) in printed.items()} == {
        (w, m["name"]): m["unit"] for w in WORKLOADS for m in DECL[kind]}


@pytest.mark.parametrize("mode", ["timed", "traced"])
def test_every_workload_ran_without_a_failed_op(request, mode):
    _, results = request.getfixturevalue(mode)
    assert sorted(results["workloads"]) == sorted(WORKLOADS)
    for report in results["workloads"].values():
        assert report["failed"] == 0
        assert report["attempted"] > 0


def test_ledger_accounts_for_op_time(traced):
    printed, _ = traced
    for workload in WORKLOADS:
        assert abs(printed[workload, "unattributed.share"][0]) <= 0.05


def test_same_seed_gives_identical_counts(traced):
    printed, _ = traced
    for workload in ("paper-builds", "site-distribution"):
        again, _ = _run("--trace", "--workload", workload)
        counts = {key: value for key, (value, unit) in again.items()
                  if unit in DETERMINISTIC_UNITS}
        assert counts
        assert counts == {key: printed[key][0] for key in counts}


def test_seed_changes_the_pull_tape():
    from bench.workloads import SiteDistribution

    def latencies(seed):
        op = SiteDistribution(seed).prepare("distribute")
        result = op.run()
        assert op.check(result) == ""
        return op.sim_s(result)

    assert latencies(0) == latencies(0)
    assert latencies(0) != latencies(1)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and bench/, the benchmark exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-builds"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""End-to-end benchmark of the paper's workflows, with a per-layer ledger.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--ops N] [--repeat N]

Each workload runs in its own child process (``bench/child.py``), one
after another, so set-up time and peak memory are per workload and no
state leaks between workloads.  Without ``--trace`` the children run
untraced and report the end-to-end metrics; with ``--trace`` each workload
runs twice, untraced and then traced, and reports the per-layer metrics,
including the tracing overhead.  Metric names, units and bounds come from
``BENCHMARK.json``.

Every metric prints as ``<workload> <metric> <value> <unit>``, and the
run is written to ``bench/out/results.json``; a traced run also writes
every span to ``bench/out/trace.jsonl``.  With one ``--workload``, the
last line is a JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is non-zero when any op's output check
failed or a child did not finish.

``--repeat N`` runs the untraced and the traced suite N times with the
same seed, prints each metric's median and quartiles, and flags an
end-to-end metric whose spread between runs (range over median) exceeds
its bound, and a deterministic count that differs at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: per-layer units whose values are counts of work, not times: two runs
#: with the same seed must report them identically
DETERMINISTIC_UNITS = frozenset({"count", "ratio", "B", "virtual_s"})
#: a workload whose children run longer than this in all is stuck; the
#: running child is killed.  Runs with an explicit --ops are not limited.
WORKLOAD_TIMEOUT_S = 170


class BenchError(Exception):
    """A child failed to report, or reported the wrong metrics."""


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(cfg: dict, deadline: Optional[float]) -> dict:
    """Run one workload in a fresh interpreter and return its report;
    the child is killed at *deadline* (``time.monotonic()``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the same string-hash order in every child, so repeated runs with one
    # seed do identical work
    env["PYTHONHASHSEED"] = "0"
    # the program's default engines, untraced: these switch to the
    # reference engines and to kernel-level tracing
    env.pop("REPRO_SIM_REFERENCE", None)
    env.pop("REPRO_TRACE", None)
    timeout = None if deadline is None else max(
        0.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", json.dumps(cfg)], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cfg['workload']} ({cfg['mode']}) child exited "
                         f"{proc.returncode} without a report")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            ops, declared: list[dict]) -> dict:
    """One workload's report: the declared metrics of the mode, plus op
    counts."""
    base = {"workload": workload, "seed": seed, "seconds": seconds,
            "ops": ops, "trace_path": str(OUT / "trace.jsonl")}
    deadline = (None if ops is not None
                else time.monotonic() + WORKLOAD_TIMEOUT_S)
    if not trace:
        reports = [run_child({**base, "mode": "timed"}, deadline)]
        metrics = reports[0]["metrics"]
    else:
        reports = [run_child({**base, "mode": mode}, deadline)
                   for mode in ("baseline", "traced")]
        metrics = dict(reports[1]["metrics"])
        metrics["obs.trace_overhead"] = (
            metrics["op_s.p50"] / reports[0]["metrics"]["op_s.p50"] - 1.0)
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "timed_ops": [r["timed_ops"] for r in reports],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def run_suite(workloads: list[str], seed: int, seconds: float, trace: bool,
              ops, declared: list[dict]) -> dict:
    if trace:
        OUT.mkdir(exist_ok=True)
        (OUT / "trace.jsonl").write_text("")
    suite = {}
    for workload in workloads:
        report = measure(workload, seed, seconds, trace, ops, declared)
        suite[workload] = report
        print(f"# {workload}: {report['timed_ops']} measured ops, "
              f"{report['attempted']} checked, {report['failed']} failed, "
              f"failed_ratio {report['failed'] / report['attempted']!r} "
              f"(seed {seed}{', traced' if trace else ''})")
        for name, m in report["metrics"].items():
            print(f"{workload} {name} {m['value']!r} {m['unit']}")
        sys.stdout.flush()
    return suite


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize_repeats(runs: list[dict], declared: list[dict],
                      bounded: bool) -> int:
    """Print median and quartiles of each metric over *runs*; returns the
    number of flagged metrics."""
    flags = 0
    for workload in runs[0]:
        for m in declared:
            name, unit = m["name"], m["unit"]
            values = [run[workload]["metrics"][name]["value"]
                      for run in runs]
            q1, median, q3 = _quartiles(values)
            flag = ""
            if bounded:
                spread = ((max(values) - min(values)) / abs(median)
                          if median else 0.0)
                if spread > m["bound"]:
                    flag = f"  SPREAD {spread:.3f} > bound {m['bound']}"
            elif unit in DETERMINISTIC_UNITS and len(set(values)) > 1:
                flag = f"  DIFFERS {values}"
            flags += bool(flag)
            print(f"{workload} {name} median {median!r} q1 {q1!r} "
                  f"q3 {q3!r} {unit}{flag}")
    return flags


def parse_args(argv, decl: dict) -> argparse.Namespace:
    names = [w["name"] for w in decl["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=decl["run_seconds"],
                        help="measured seconds per workload (at least "
                             "100 ops run regardless)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer ledger instead")
    parser.add_argument("--ops", type=int,
                        help="run exactly this many ops per workload")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the untraced and traced suites N times")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    args.workloads = [args.workload] if args.workload else names
    return args


def main(argv=None) -> int:
    decl = load_declaration()
    args = parse_args(argv, decl)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.repeat:
            return _repeat(args, decl)
        declared = decl["per_layer" if args.trace else "end_to_end"]
        suite = run_suite(args.workloads, args.seed, args.seconds,
                          bool(args.trace), args.ops, declared)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    (OUT / "results.json").write_text(json.dumps(
        {"seed": args.seed, "trace": args.trace, "workloads": suite},
        indent=2) + "\n")
    failed = sum(r["failed"] for r in suite.values())
    if args.workload:
        report = suite[args.workload]
        print(json.dumps({"correct": failed == 0,
                          "attempted": report["attempted"],
                          "failed": report["failed"],
                          "metrics": report["metrics"]}))
    return 1 if failed else 0


def _repeat(args, decl: dict) -> int:
    runs = {"end_to_end": [], "per_layer": []}
    for i in range(args.repeat):
        for kind, trace in (("end_to_end", False), ("per_layer", True)):
            print(f"# repeat {i + 1}/{args.repeat}: {kind}")
            runs[kind].append(run_suite(args.workloads, args.seed,
                                        args.seconds, trace, args.ops,
                                        decl[kind]))
    (OUT / "results.json").write_text(json.dumps(
        {"seed": args.seed, "repeat": runs}, indent=2) + "\n")
    print(f"# medians over {args.repeat} runs")
    flags = summarize_repeats(runs["end_to_end"], decl["end_to_end"], True)
    flags += summarize_repeats(runs["per_layer"], decl["per_layer"], False)
    failed = sum(r["failed"] for kind in runs.values() for suite in kind
                 for r in suite.values())
    print(f"# {flags} flagged, {failed} failed ops")
    return 1 if flags or failed else 0


if __name__ == "__main__":
    sys.exit(main())

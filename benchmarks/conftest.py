"""Shared helpers for the ``BENCH_*.json`` emitters.

Each ``test_scaling_*`` file measures one scaling or fast-path claim,
asserts its own bars, and writes one ``BENCH_<name>.json`` artifact that
``benchmarks/gate.py`` checks against the committed baseline.  The
paper's figures, Table 1 and ablations A1-A9 are asserted in ``tests/``
(see DESIGN.md's experiment index); the figure Dockerfiles live once, in
``tests/conftest.py``.
"""

import json
import pathlib

#: where committed benchmark artifacts land (the repo root)
BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent


def report(title: str, rows: list[tuple[str, str]]) -> None:
    """Print a paper-vs-measured block (shown with pytest -s or on failure)."""
    width = max(len(k) for k, _ in rows)
    print(f"\n### {title}")
    for key, value in rows:
        print(f"  {key.ljust(width)} : {value}")


def write_bench(name: str, payload: dict) -> pathlib.Path:
    """Write the ``BENCH_<name>.json`` artifact; ``benchmarks/gate.py``
    checks the committed ones against their baselines.  One emitter for
    every ``test_scaling_*`` file: stable key order, 2-space indent,
    trailing newline — so regenerated artifacts diff cleanly."""
    path = BENCH_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path

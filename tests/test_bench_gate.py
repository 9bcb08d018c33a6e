"""The benchmark gate's declared table against the committed artifacts:
each baseline passes against itself, and corrupting any declared key
fails with a message naming the artifact and the key."""

import copy
import json

import pytest

from benchmarks.gate import FLOOR, GATES, ROOT, check, lookup


def committed(name):
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def set_key(doc, key, value):
    *parents, last = key.split(".")
    for part in parents:
        doc = doc[part]
    doc[last] = value


def changed(value):
    """A different value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value + ["x"]
    return {**value, "x": 0}


def corruptions():
    for name, rule in GATES.items():
        for key in rule.true:
            yield name, key, lambda v: False
        for key in rule.exact:
            yield name, key, changed
        for key in rule.floor:
            yield name, key, lambda v: 0.89 * v
        for key in rule.ceiling:
            yield name, key, lambda v: v + 1


@pytest.mark.parametrize("name", sorted(GATES))
def test_committed_baseline_passes_against_itself(name):
    assert check(name, committed(name), committed(name)) == []


@pytest.mark.parametrize("name,key,corrupt",
                         [pytest.param(*c, id=f"{c[0]}-{c[1]}")
                          for c in corruptions()])
def test_corrupting_a_declared_key_fails_the_gate(name, key, corrupt):
    baseline = committed(name)
    current = copy.deepcopy(baseline)
    set_key(current, key, corrupt(lookup(baseline, key)))
    failures = check(name, baseline, current)
    assert len(failures) == 1
    assert failures[0].startswith(f"BENCH_{name}.json: {key} ")


def test_floor_is_inclusive():
    baseline = committed("coldbuild")
    current = dict(baseline, speedup=FLOOR * baseline["speedup"])
    assert check("coldbuild", baseline, current) == []


def test_missing_key_fails():
    baseline = committed("engine")
    current = copy.deepcopy(baseline)
    del current["pull_storm"]["events_per_sec"]
    assert check("engine", baseline, current) == [
        "BENCH_engine.json: pull_storm.events_per_sec is missing"]

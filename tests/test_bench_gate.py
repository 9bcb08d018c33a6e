"""The benchmark gate's declared table against the committed artifacts:
each baseline passes against itself, and corrupting any declared key
fails with a message naming the artifact and the key."""

import copy
import json

import pytest

from benchmarks.gate import FLOOR, GATES, ROOT, Rule, check, lookup


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


def test_every_committed_artifact_has_a_rule():
    names = {path.name[len("BENCH_"):-len(".json")]
             for path in ROOT.glob("BENCH_*.json")}
    assert names and names <= set(GATES)


def test_build_rule_gates_the_virtual_clock_schedule():
    """The stage-graph schedule is simulated time: its makespans and
    critical paths are exact, like any plan output."""
    assert GATES["build"] == Rule(
        true=("digests_identical",),
        exact=("makespan_seconds", "critical_path_seconds",
               "parallel_over_sequential"))
    baseline = committed("build")
    slower = copy.deepcopy(baseline)
    slower["makespan_seconds"]["4"] *= 2
    assert check("build", baseline, slower) == [
        "BENCH_build.json: makespan_seconds drifted from the baseline: "
        f"{slower['makespan_seconds']!r} != {baseline['makespan_seconds']!r}"]


def test_fleet_and_engine_rules_gate_their_virtual_times():
    """Pull-tape p99s and broadcast makespans are sim-clock outputs, so
    any drift fails; wall-clock throughputs keep their floor."""
    baseline = committed("registry")
    drifted = copy.deepcopy(baseline)
    drifted["p99_seconds"]["8"] += 1e-9
    drifted["pulls_per_sec"]["8"] *= 0.95
    assert check("registry", baseline, drifted) == [
        "BENCH_registry.json: p99_seconds.8 drifted from the baseline: "
        f"{drifted['p99_seconds']['8']!r} != "
        f"{baseline['p99_seconds']['8']!r}"]
    baseline = committed("engine")
    drifted = copy.deepcopy(baseline)
    drifted["tree"]["makespan"] += 1e-9
    drifted["pull_storm"]["events_per_sec"] *= 0.95
    assert check("engine", baseline, drifted) == [
        "BENCH_engine.json: tree.makespan drifted from the baseline: "
        f"{drifted['tree']['makespan']!r} != "
        f"{baseline['tree']['makespan']!r}"]


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


def test_walk_rule_gates_identity_and_the_same_process_ratio():
    """The unpack walk's artifact is gated on its identity bit, its
    reference/cached ratio and its work counts (syscalls, path walks,
    journal generations): its wall-clock seconds may move freely."""
    assert GATES["walk"] == Rule(true=("identical",), floor=("speedup",),
                                 ceiling=("syscalls", "path_resolves",
                                          "unpack_gens"))
    baseline = committed("walk")
    slower_host = dict(baseline,
                       reference_seconds=3 * baseline["reference_seconds"],
                       cached_seconds=3 * baseline["cached_seconds"])
    assert check("walk", baseline, slower_host) == []
    drifted = dict(baseline, identical=False,
                   speedup=0.5 * baseline["speedup"])
    assert check("walk", baseline, drifted) == [
        "BENCH_walk.json: identical is False, not true",
        f"BENCH_walk.json: speedup regressed: {0.5 * baseline['speedup']} "
        f"< {FLOOR} x baseline {baseline['speedup']}",
    ]
    # a generation per member instead of per layer
    per_member = dict(baseline, unpack_gens=baseline["members"])
    assert check("walk", baseline, per_member) == [
        f"BENCH_walk.json: unpack_gens grew: {baseline['members']} > "
        f"baseline {baseline['unpack_gens']}"]


def test_coldbuild_rule_gates_the_rebuild_counts_not_its_seconds():
    """The second cold build on the same base is gated on identity and on
    work counts that may only shrink; a slower host moves neither."""
    rule = GATES["coldbuild"]
    assert "rebuild_digest_identical" in rule.true
    assert {"rebuild_full_walks", "rebuild_members_hashed"} \
        <= set(rule.ceiling)
    baseline = committed("coldbuild")
    assert baseline["rebuild_full_walks"] == 0
    slower_host = dict(baseline,
                       reference_seconds=3 * baseline["reference_seconds"],
                       walker_seconds=3 * baseline["walker_seconds"])
    assert check("coldbuild", baseline, slower_host) == []
    regressed = dict(baseline, rebuild_full_walks=1,
                     rebuild_members_hashed=10_000,
                     rebuild_digest_identical=False)
    assert check("coldbuild", baseline, regressed) == [
        "BENCH_coldbuild.json: rebuild_digest_identical is False, not true",
        "BENCH_coldbuild.json: rebuild_full_walks grew: 1 > baseline 0",
        "BENCH_coldbuild.json: rebuild_members_hashed grew: 10000 > "
        f"baseline {baseline['rebuild_members_hashed']}",
    ]


def test_coldbuild_rule_gates_the_clone_generations():
    """A FROM clone of the 10 000-file base is two journal generations;
    one that went back to stamping every inode fails the gate."""
    assert "clone_gens" in GATES["coldbuild"].ceiling
    baseline = committed("coldbuild")
    assert baseline["clone_gens"] <= 2
    per_inode = dict(baseline, clone_gens=2 * baseline["files"])
    assert check("coldbuild", baseline, per_inode) == [
        f"BENCH_coldbuild.json: clone_gens grew: {2 * baseline['files']} "
        f"> baseline {baseline['clone_gens']}"]


def test_walk_rule_lets_the_unpack_counts_only_shrink():
    """One extra path walk or syscall per unpack fails the gate; fewer
    pass, and become the next baseline."""
    baseline = committed("walk")
    fewer = dict(baseline, path_resolves=baseline["path_resolves"] - 1,
                 syscalls=baseline["syscalls"] - 1)
    assert check("walk", baseline, fewer) == []
    more = dict(baseline, path_resolves=baseline["path_resolves"] + 1,
                syscalls=baseline["syscalls"] + 1)
    assert check("walk", baseline, more) == [
        f"BENCH_walk.json: syscalls grew: {baseline['syscalls'] + 1} > "
        f"baseline {baseline['syscalls']}",
        f"BENCH_walk.json: path_resolves grew: "
        f"{baseline['path_resolves'] + 1} > baseline "
        f"{baseline['path_resolves']}",
    ]


def test_deploy_rule_gates_virtual_times_identity_and_rank_syscalls():
    """The deploy artifact is all virtual time and counts: a makespan or
    egress that moves by any amount fails, as does a mount that stops
    showing ch-run the unpacked tree or a rank that issues one more
    syscall; fewer syscalls pass."""
    rule = GATES["deploy"]
    assert rule.true == ("mounted_equals_unpacked",)
    assert rule.ceiling == ("syscalls_per_rank",)
    assert {"tree.deploy_makespan", "registry.deploy_makespan",
            "tree.registry_egress_bytes"} <= set(rule.exact)
    assert not rule.floor
    baseline = committed("deploy")
    fewer = dict(baseline, syscalls_per_rank=baseline["syscalls_per_rank"] - 1)
    assert check("deploy", baseline, fewer) == []
    drifted = copy.deepcopy(baseline)
    drifted["tree"]["deploy_makespan"] += 1e-9
    drifted["mounted_equals_unpacked"] = False
    drifted["syscalls_per_rank"] += 1
    assert check("deploy", baseline, drifted) == [
        "BENCH_deploy.json: mounted_equals_unpacked is False, not true",
        "BENCH_deploy.json: tree.deploy_makespan drifted from the baseline: "
        f"{drifted['tree']['deploy_makespan']!r} != "
        f"{baseline['tree']['deploy_makespan']!r}",
        f"BENCH_deploy.json: syscalls_per_rank grew: "
        f"{baseline['syscalls_per_rank'] + 1} > baseline "
        f"{baseline['syscalls_per_rank']}",
    ]

"""Build scaling: makespan vs parallelism for the parallel build engine.

Three shapes, all on the sim clock so the numbers are deterministic:

* **Diamond multi-stage build** (base -> left|right -> final): stage-DAG
  scheduling overlaps the two branches, so N>=2 workers land at the
  critical path while N=1 pays the serial sum — the acceptance gate is
  parallel (N=4) makespan <= 0.6x sequential with byte-identical images.
* **Independent CI images** on a :class:`~repro.cluster.BuildFarm`:
  near-linear scaling until the worker pool saturates.
* **Duplicate CI images**: single-flight dedup collapses the duplicate
  work — one execution, the rest wait and replay warm (``inflight_hits``).

``test_ablation_build_parallelism`` also emits ``BENCH_build.json`` (the
makespan trajectory, gated exactly by ``benchmarks/gate.py``: it is
virtual-clock time).
"""

import pytest

from repro.cas import snapshot_digest, snapshot_tree
from repro.cluster import BuildFarm, make_machine, make_world
from repro.core import ChImage, build_parallel

from .conftest import report, write_bench

#: the diamond 4-stage fixture: branches diverge on their first echo (so
#: their cache chains differ) then do identical-cost heavy installs,
#: keeping the two branches balanced — the shape where DAG scheduling
#: pays off most and dedup must NOT kick in.
DIAMOND_DOCKERFILE = """\
FROM centos:7 AS base
RUN echo base > /base.txt

FROM base AS left
RUN echo left > /left.txt
RUN yum install -y openssh
RUN yum install -y openmpi hdf5

FROM base AS right
RUN echo right > /right.txt
RUN yum install -y openssh
RUN yum install -y openmpi hdf5

FROM base
COPY --from=left /left.txt /l
COPY --from=right /right.txt /r
RUN echo done
"""

PARALLELISM_LEVELS = (1, 2, 4)


def fresh_builder() -> ChImage:
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network)
    ch = ChImage(login, login.login("alice"), force_mode="seccomp",
                 cache=True)
    # pre-pull so the measured makespan is build work, not registry I/O
    ch.pull("centos:7")
    return ch


def diamond_build(parallelism: int):
    ch = fresh_builder()
    result = build_parallel(ch, tag="app", dockerfile=DIAMOND_DOCKERFILE,
                            force=True, parallelism=parallelism)
    assert result.success, result.text
    digest = snapshot_digest(snapshot_tree(ch.sys,
                                           ch.storage.path_of("app")))
    return result, digest


def farm_image(i: int) -> str:
    return (f"FROM centos:7\n"
            f"RUN echo img{i} > /img.txt\n"
            f"RUN yum install -y openssh\n"
            f"RUN yum install -y openmpi hdf5\n")


def fresh_farm(parallelism: int) -> BuildFarm:
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network)
    farm = BuildFarm(login, login.login("alice"), parallelism=parallelism,
                     force_mode="seccomp")
    farm.builder.pull("centos:7")
    return farm


@pytest.mark.parametrize("parallelism", list(PARALLELISM_LEVELS))
def test_scaling_build(parallelism):
    result, _ = diamond_build(parallelism)
    assert result.parallelism == parallelism
    assert result.makespan >= result.critical_path > 0.0
    assert result.schedule.success
    if parallelism > 1:
        # both branches really overlapped on distinct workers
        by_name = {t.name: t for t in result.schedule.tasks}
        left, right = by_name["app:left"], by_name["app:right"]
        assert left.worker != right.worker
        assert left.start < right.finish and right.start < left.finish


def test_ablation_build_parallelism():
    """The acceptance gate: N=4 makespan <= 0.6x sequential on the
    diamond, byte-identical digests at every level; emits the
    BENCH_build.json trajectory for CI."""
    makespan = {}
    critical_path = {}
    digests = set()
    for n in PARALLELISM_LEVELS:
        result, digest = diamond_build(n)
        makespan[n] = result.makespan
        critical_path[n] = result.critical_path
        digests.add(digest)

    # determinism under concurrency: the image does not depend on N
    assert len(digests) == 1
    # no parallelism level beats the DAG's critical path
    for n in PARALLELISM_LEVELS:
        assert makespan[n] >= critical_path[n] - 1e-12
    # monotone: more workers never slows the build
    assert makespan[4] <= makespan[2] <= makespan[1]
    # the tentpole gate
    ratio = makespan[4] / makespan[1]
    assert ratio <= 0.6, f"parallel/sequential makespan ratio {ratio:.3f}"
    # 2 balanced branches: N=2 already reaches the critical path
    assert makespan[2] == pytest.approx(critical_path[2])

    write_bench("build", {
        "benchmark": "build-scaling",
        "fixture": "diamond-4-stage",
        "parallelism_levels": list(PARALLELISM_LEVELS),
        "makespan_seconds": {str(n): makespan[n]
                             for n in PARALLELISM_LEVELS},
        "critical_path_seconds": {str(n): critical_path[n]
                                  for n in PARALLELISM_LEVELS},
        "parallel_over_sequential": ratio,
        "digests_identical": True,
    })

    report("Build scaling ablation (diamond multi-stage)", [
        *((f"makespan N={n}",
           f"{makespan[n] * 1e6:8.2f} us (critical path "
           f"{critical_path[n] * 1e6:.2f} us)")
          for n in PARALLELISM_LEVELS),
        ("parallel/sequential", f"{ratio:.3f} (gate: <= 0.6)"),
        ("image digests", "identical across all parallelism levels"),
    ])


def test_scaling_farm_independent_images():
    """Independent images scale near-linearly until workers saturate."""
    makespans = {}
    for parallelism in (1, 4):
        farm = fresh_farm(parallelism)
        for i in range(4):
            farm.submit(tag=f"img{i}", dockerfile=farm_image(i),
                        force=True)
        rep = farm.run()
        assert rep.success
        assert rep.inflight_hits == 0  # distinct images: no dedup
        makespans[parallelism] = rep.makespan
    speedup = makespans[1] / makespans[4]
    assert speedup >= 3.0, f"speedup {speedup:.2f} not near-linear"
    report("Build farm scaling (4 independent images)", [
        ("makespan N=1", f"{makespans[1] * 1e6:.2f} us"),
        ("makespan N=4", f"{makespans[4] * 1e6:.2f} us"),
        ("speedup", f"{speedup:.2f}x (near-linear, 4 workers, 4 images)"),
    ])


def test_scaling_farm_dedup_collapse():
    """Duplicate images single-flight: the second identical concurrent
    build waits on the first instead of redoing it (the acceptance
    criterion's ``inflight_hits > 0``)."""
    distinct = fresh_farm(4)
    for i in range(4):
        distinct.submit(tag=f"img{i}", dockerfile=farm_image(i), force=True)
    distinct_rep = distinct.run()

    dup = fresh_farm(4)
    for i in range(4):
        dup.submit(tag=f"copy{i}", dockerfile=farm_image(0), force=True)
    dup_rep = dup.run()

    assert dup_rep.success
    assert dup_rep.inflight_hits == 3          # one leader, three waiters
    assert dup_rep.cache_stats.inflight_hits == 3
    # the duplicate work collapsed: every instruction executed (and was
    # committed to the cache) exactly once; the followers replayed as
    # pure cache hits after waiting out the leader's flight
    assert dup_rep.cache_stats.stores == 3      # one image's instructions
    assert distinct_rep.cache_stats.stores == 12
    leader, *followers = dup_rep.images
    assert not leader.deduped and leader.result.cache_hits == 0
    for f in followers:
        assert f.deduped and f.result.cache_hits == 3
    # the three warm replays run concurrently, not chained behind each
    # other: all start exactly when the leader's flight lands
    lead_task, *follow_tasks = dup_rep.schedule.tasks
    assert all(t.start == lead_task.finish for t in follow_tasks)
    # every tag still exists and is byte-identical to the leader's image
    digests = {
        snapshot_digest(snapshot_tree(
            dup.builder.sys, dup.builder.storage.path_of(f"copy{i}")))
        for i in range(4)}
    assert len(digests) == 1
    report("Build farm single-flight dedup (4x the same image)", [
        ("inflight hits", str(dup_rep.inflight_hits)),
        ("cache stores 4 distinct", str(distinct_rep.cache_stats.stores)),
        ("cache stores 4 duplicates",
         f"{dup_rep.cache_stats.stores} (each instruction ran once)"),
        ("images", "all four tags byte-identical"),
    ])

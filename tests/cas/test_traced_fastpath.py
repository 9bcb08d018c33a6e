"""A traced build stays on the journal walker's fast path.

Attaching a tracer wraps every syscall.  If that ever knocked the
journal walker back to full-tree walks, tracing a cached build would
silently cost O(tree x instructions) again.  Traced syscall counts and
walker counters are deterministic in the sim, so both are pinned here on
a 1 000-file base with 8 RUN instructions.
"""

from repro.cluster import make_machine, make_world
from repro.core import ChImage
from repro.obs import attach_tracer
from repro.sim import reference_engine

N_DIRS, PER_DIR, N_RUNS = 40, 25, 8
DOCKERFILE = "FROM bigbase:1\n" + "".join(
    f"RUN echo step-{i} > /out{i}.txt\n" for i in range(N_RUNS))


def traced_build():
    """Build DOCKERFILE on a fresh 1 000-file base; the tracer's metrics
    cover the build only."""
    login = make_machine(
        "login1", network=make_world(arches=("x86_64",)).network)
    ch = ChImage(login, login.login("alice"), cache=True)
    ch.storage.pull("centos:7")
    ch.storage.copy("centos:7", "bigbase:1")
    path = ch.storage.path_of("bigbase:1")
    for d in range(N_DIRS):
        ch.sys.mkdir(f"{path}/pkg{d:02d}", 0o755)
        for f in range(PER_DIR):
            ch.sys.write_file(f"{path}/pkg{d:02d}/f{f:02d}", b"x" * 64)
    ch.storage.set_digest("bigbase:1", "sha256:" + "cd" * 32)
    tracer = attach_tracer(login.kernel)
    tracer.metrics.clear()
    r = ch.build(tag="app", dockerfile=DOCKERFILE, force=True)
    assert r.success, r.text
    return tracer.metrics


def test_traced_walker_build_stays_on_the_fast_path():
    walker = traced_build()
    with reference_engine():
        reference = traced_build()
    # one full walk of the base, then only dirty directories; the
    # reference re-walks the whole tree at every boundary
    assert walker.counters.get("snapshot.walk_full") == 1
    assert reference.counters.get("snapshot.walk_full") == N_RUNS + 1
    ratio = (sum(walker.syscalls.values())
             / sum(reference.syscalls.values()))
    assert ratio <= 0.25, (
        f"traced walker build used {ratio:.0%} of the reference's "
        f"syscalls: tracing is defeating the journal fast path")

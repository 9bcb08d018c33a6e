"""Each Kernel and SimEngine fixes its own fast-or-reference choice.

``REPRO_SIM_REFERENCE=1`` only sets the default for objects built while
it is set; an explicit ``fast=`` wins over it, and nothing built earlier
changes.  Because the choice lives on the object, a fast and a
reference object can run interleaved on one input in one process, with
no module state touched, and must agree by ``==``.
"""

import pytest

from repro.archive import TarArchive, TarMember
from repro.cas.diff import snapshot_and_diff, snapshot_digest
from repro.cluster import make_machine
from repro.cluster.broadcast import distribute_blobs, make_deploy_topology
from repro.containers import ImageConfig, Registry
from repro.kernel import FileType, Kernel, Syscalls, make_ext4
from repro.obs import attach_tracer
from repro.sim import EventQueue, FaultPlan, ReferenceEventQueue, SimEngine


def _takes_fast_paths(kernel):
    """Does *kernel* walk through a dentry cache and snapshot with the
    journal walker?  (Read off what one probe leaves behind.)"""
    sys = Syscalls(kernel.init_process)
    sys.mkdir_p("/probe/d")
    sys.write_file("/probe/d/f", b"x")
    tracer = attach_tracer(kernel)
    _, snap = snapshot_and_diff(sys, "/probe", {})
    snapshot_and_diff(sys, "/probe", snap)
    full = tracer.metrics.counters.get("snapshot.walk_full")
    cached = kernel.init_process.mnt_ns._dentries
    assert (full == 1) is (cached is not None), (full, cached)
    return full == 1


def _engine_is_fast(engine):
    assert type(engine.queue) is (EventQueue if engine.fast
                                  else ReferenceEventQueue)
    return engine.fast


class TestTheEnvironmentSetsOnlyTheDefault:
    def test_reference_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
        old_kernel, old_engine = Kernel(make_ext4()), SimEngine()
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        kernel, engine = Kernel(make_ext4()), SimEngine()
        assert not _takes_fast_paths(kernel)
        assert not _engine_is_fast(engine)
        # a namespace cloned on the reference kernel stays reference
        child = Syscalls(kernel.init_process.fork())
        child.unshare_mount()
        assert child.mnt_ns._dentries is None
        # an explicit value overrides the variable
        assert _takes_fast_paths(Kernel(make_ext4(), fast=True))
        assert _engine_is_fast(SimEngine(fast=True))
        # objects built before the variable changed keep their choice
        assert _takes_fast_paths(old_kernel)
        assert _engine_is_fast(old_engine)

    def test_no_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_REFERENCE", raising=False)
        assert _takes_fast_paths(Kernel(make_ext4()))
        assert _engine_is_fast(SimEngine())
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        assert not _takes_fast_paths(Kernel(make_ext4(), fast=False))
        assert not _engine_is_fast(SimEngine(fast=False))


def _deploy(fast):
    """A 9-node tree deploy of a two-layer image whose first relay
    crashes mid-run, on a fast or a reference engine; returns the
    pieces of its result and the engine, not yet run."""
    registry = Registry("site")
    registry.push("app:v1", ImageConfig(), [
        TarArchive([TarMember("bin", FileType.REG, 0o644, 0, 0,
                              data=b"b" * 4000)]),
        TarArchive([TarMember("lib", FileType.REG, 0o644, 0, 0,
                              data=b"l" * 2000)])])
    nodes = [make_machine(f"cn{i}", fast=fast) for i in range(9)]
    topo = make_deploy_topology(registry, nodes)
    engine = SimEngine(fast=fast)

    def run():
        rep = distribute_blobs(
            registry, registry.image_blob_digests("app:v1"), nodes, topo,
            engine=engine, strategy="tree",
            fault_plan=FaultPlan(seed=7).add_node_crash("cn1", 1e-6))
        return (rep.as_dict(), rep.node_ready,
                [t.as_dict() for t in rep.transfers],
                {n.hostname: sorted(n.content_store.digests())
                 for n in nodes},
                {name: topo.link(name).stats
                 for name in ["site"] + [n.hostname for n in nodes]})
    return engine, run


def test_tree_deploy_under_a_crash_fast_and_reference_interleaved():
    """The reference deploy runs inside an event of the fast deploy's
    own run, then each again the other way round: every report, node
    store and link agrees with the other engine's."""
    results = {}
    fast_engine, fast_run = _deploy(True)
    ref_engine, ref_run = _deploy(False)
    fast_engine.at(5e-7, lambda: results.setdefault(False, ref_run()))
    results[True] = fast_run()
    assert set(results) == {True, False}
    assert results[True] == results[False]
    assert results[True][0]["crashed"] == ["cn1"]

    ref_engine, ref_run = _deploy(False)
    fast_engine, fast_run = _deploy(True)
    ref_engine.at(5e-7, lambda: results.__setitem__(True, fast_run()))
    results[False] = ref_run()
    assert results[True] == results[False]


LAYERS = [
    [TarMember("etc", FileType.DIR, 0o755, 0, 0),
     TarMember("etc/conf", FileType.REG, 0o644, 0, 0, data=b"one"),
     TarMember("usr", FileType.DIR, 0o755, 0, 0),
     TarMember("usr/bin", FileType.DIR, 0o755, 0, 0),
     TarMember("usr/bin/tool", FileType.REG, 0o755, 0, 0, data=b"\x7fELF"),
     TarMember("usr/bin/alias", FileType.SYMLINK, 0o777, 0, 0,
               target="tool")],
    [TarMember("etc/conf", FileType.REG, 0o600, 0, 0, data=b"two"),
     TarMember("usr/bin/alias", FileType.CHR, 0, 0, 0),   # whiteout
     TarMember("var", FileType.DIR, 0o755, 0, 0),
     TarMember("var/log", FileType.DIR, 0o750, 0, 0)],
    [TarMember("usr/bin", FileType.CHR, 0, 0, 0),         # whiteout
     TarMember("usr/bin", FileType.REG, 0o644, 0, 0, data=b"now a file"),
     TarMember("var/log/x", FileType.FIFO, 0o644, 0, 0)],
]


def test_unpack_then_snapshot_and_diff_fast_and_reference_interleaved():
    """Each layer lands on a fast kernel and then a reference one, and
    each tree is snapshotted and diffed against its own previous
    snapshot before the next layer: trees, snapshots, diffs and kernel
    ticks agree at every step, and each kernel took its own paths."""
    kernels = {fast: Kernel(make_ext4(), hostname="h", fast=fast)
               for fast in (True, False)}
    views = {fast: Syscalls(k.init_process) for fast, k in kernels.items()}
    tracers = {fast: attach_tracer(k) for fast, k in kernels.items()}
    prev = {True: {}, False: {}}
    for members in LAYERS:
        seen = {}
        for fast in (True, False):
            sys = views[fast]
            sys.mkdir_p("/img")
            TarArchive(members).apply_diff(sys, "/img")
            diff, snap = snapshot_and_diff(sys, "/img", prev[fast])
            prev[fast] = snap
            seen[fast] = (dict(snap), snapshot_digest(snap),
                          diff.serialize(),
                          TarArchive.pack(sys, "/img").serialize(),
                          kernels[fast].ticks)
        assert seen[True] == seen[False]
    walks = {fast: (t.metrics.counters.get("snapshot.walk_full"),
                    t.metrics.counters.get("snapshot.walk_dirty"))
             for fast, t in tracers.items()}
    assert walks[True][0] == 1 and walks[True][1] > 0
    assert walks[False] == (len(LAYERS), 0)


@pytest.mark.parametrize("fast", [True, False])
def test_clones_keep_the_choice(fast):
    kernel = Kernel(make_ext4(), fast=fast)
    ns = kernel.init_process.mnt_ns
    assert (ns._dentries is not None) is fast
    assert (ns.clone()._dentries is not None) is fast
    assert (ns.clone(fast=not fast)._dentries is not None) is not fast

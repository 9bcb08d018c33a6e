"""Layer entry points, the span recorder, and the per-layer ledger.

A traced benchmark child calls :func:`install`, which wraps each layer's
public entry points (listed in :data:`ENTRY_POINTS`) at run time.  Every
wrapped call records a span: name, layer, start and end
``perf_counter_ns``, parent span and op id.  Spans stay in memory until
the run ends.  Nothing under ``src/`` is edited: the wrappers replace the
names in every module that binds them and are removed by the function
:func:`install` returns.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Time inside an op that no
span covers is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

from repro.core import seccomp  # noqa: F401  (defines a Syscalls subclass)
from repro.containers import buildah  # noqa: F401  (likewise)
from repro.distro.packages import PackageDb
from repro.fakeroot import FakerootSyscalls
from repro.kernel import Syscalls
from repro.kernel.mounts import MountNamespace
from repro.obs import TRACED_SYSCALLS
from repro.sim.profile import COUNTERS  # noqa: F401  (the walker's counts)

LAYERS = ("kernel", "fakeroot", "shell", "distro", "core", "containers",
          "archive", "cas", "cluster", "sim")
#: the layers whose spans are Syscalls methods
SYSCALL_LAYERS = ("kernel", "fakeroot")

#: argv[0] basenames whose ``execute`` span belongs to the distro layer
PACKAGE_MANAGERS = frozenset({"yum", "rpm", "yum-config-manager", "dnf",
                              "apt-get", "apt", "apt-config", "dpkg",
                              "spack"})


# -- counting hooks ----------------------------------------------------------
#
# A hook is called with the recorder and the call's positional arguments
# before the call; it returns a function that receives the result after a
# normal return.


def _deltas(**fields: str):
    """Count how much attributes of ``self`` (or of ``self.stats``) grew
    during the call; keywords map counter name -> attribute path."""
    def hook(rec, args):
        obj = args[0]
        before = {name: _attr(obj, path) for name, path in fields.items()}

        def after(result):
            for name, path in fields.items():
                rec.counts[name] += _attr(obj, path) - before[name]
        return after
    return hook


def _attr(obj, path: str):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _result_fields(**fields: str):
    """Count fields of the returned object; keywords map counter name ->
    attribute."""
    def hook(rec, args):
        def after(result):
            for name, attr in fields.items():
                rec.counts[name] += getattr(result, attr)
        return after
    return hook


def _cache_lookup(rec, args):
    def after(result):
        rec.counts["cas.lookups"] += 1
        rec.counts["cas.hits"] += result is not None
    return after


def _packed_members(rec, args):
    def after(result):
        rec.counts["archive.members"] += len(result)
    return after


def _own_members(rec, args):
    archive = args[0]

    def after(result):
        rec.counts["archive.members"] += len(archive)
    return after


_PULLS = _deltas(**{"containers.blobs_pulled": "stats.blobs_pulled",
                    "containers.blobs_skipped": "stats.blobs_pull_skipped"})
_PUSHED = _deltas(**{"containers.bytes_pushed": "stats.bytes_pushed"})

#: layer -> (module, function or class, methods, hooks by the function's or
#: method's name).  ``None`` methods means the name is a module-level
#: function.  The Syscalls family is listed by :func:`_syscall_entries`.
ENTRY_POINTS = {
    "shell": [
        ("repro.shell.interp", "Interpreter", ("run",), {}),
        ("repro.shell.executor", "execute", None, {}),
    ],
    "distro": [
        # plus ``execute`` when argv[0] is a package manager
        ("repro.distro.rpm", "rpm_install", None, {}),
    ],
    "core": [
        ("repro.core.builder", "ChImage", ("build", "pull"), {
            "build": _result_fields(**{
                "core.instructions": "instructions",
                "core.runs_modified": "modified_runs"})}),
        ("repro.core.images", "ImageStorage",
         ("path_of", "exists", "list_images", "config_of", "digest_of",
          "set_digest", "pull", "copy", "set_config", "delete"), {}),
    ],
    "containers": [
        ("repro.containers.podman", "Podman", ("build", "push"), {}),
        ("repro.containers.buildah", "Buildah", ("build", "push"), {}),
        ("repro.containers.registry", "Registry",
         ("push", "pull", "fetch_blob", "push_cache", "pull_cache"),
         {"push": _PUSHED, "fetch_blob": _PULLS}),
    ],
    "archive": [
        ("repro.archive", "TarArchive",
         ("pack", "extract", "apply_diff", "serialize", "deserialize"),
         {"pack": _packed_members, "extract": _own_members,
          "apply_diff": _own_members}),
    ],
    "cas": [
        ("repro.cas.diff", "snapshot_and_diff", None, {}),
        ("repro.cas.diff", "snapshot_tree", None, {}),
        ("repro.cas.cache", "BuildCache",
         ("lookup", "store_diff", "import_manifest", "import_from_registry",
          "export_to_registry"), {"lookup": _cache_lookup}),
        ("repro.cas.store", "ContentStore", ("put", "get"), {}),
    ],
    "cluster": [
        ("repro.cluster.astra", "astra_build_workflow", None, {}),
        ("repro.cluster.astra", "astra_cached_build_workflow", None, {}),
        ("repro.cluster.astra", "laptop_build_workflow", None, {}),
        ("repro.cluster.broadcast", "distribute_blobs", None, {
            "distribute_blobs": _result_fields(**{
                "cluster.registry_egress_bytes": "registry_egress_bytes",
                "cluster.peer_bytes": "peer_bytes",
                "cluster.retries": "retries"})}),
        ("repro.cluster.broadcast", "distribute_image", None, {}),
        ("repro.cluster.broadcast", "distribute_cache", None, {}),
        ("repro.cluster.scheduler", "Scheduler", ("srun",), {}),
        ("repro.cluster.fleet", "RegistryFleet",
         ("push", "timed_pull", "fetch_blob"), {"push": _PUSHED}),
    ],
    "sim": [
        ("repro.sim.events", "SimEngine", ("run",), {
            "run": _deltas(**{"sim.events": "events_processed"})}),
        ("repro.sim.workload", "run_workload", None, {
            "run_workload": _result_fields(**{
                "cluster.overloads": "overloads",
                "cluster.retries": "retries"})}),
        ("repro.sim.transfer", "transmit", None, {}),
    ],
}

#: called often enough that a span each would swamp the trace: counted only
COUNTED_ONLY = (
    (MountNamespace, "resolve", "kernel.path_resolves"),
    (MountNamespace, "resolve_parent", "kernel.path_resolves"),
    (PackageDb, "add", "distro.packages_installed"),
)


def _syscall_classes(cls=Syscalls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _syscall_classes(sub)


def _syscall_entries():
    """Each Syscalls class's own traced methods: the fakeroot layer for
    FakerootSyscalls and its subclasses (seccomp mode included), the
    kernel layer for the rest."""
    for cls in _syscall_classes():
        names = tuple(sorted(n for n in TRACED_SYSCALLS if n in vars(cls)))
        if names:
            layer = "fakeroot" if issubclass(cls, FakerootSyscalls) \
                else "kernel"
            yield layer, cls, names


def _execute_layer(args) -> str:
    argv = args[1]
    return "distro" if argv and argv[0].rsplit("/", 1)[-1] \
        in PACKAGE_MANAGERS else "shell"


class Recorder:
    """Spans and counters of one traced run, kept in memory.

    A span is ``[name, layer, start_ns, end_ns, parent, op]``; *parent*
    is the index of the enclosing span (-1 at an op's top level).  Only
    calls made while :attr:`op` is set (>= 0) are recorded: per-op set-up
    and output checks stay out of the ledger."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()    # spans that ended in an exception

    def wrap(self, fn: Callable, name: str, layer,
             hook: Optional[Callable] = None) -> Callable:
        """*fn* recording a span per call; *layer* is a name or a function
        of the call's arguments."""
        spans, stack, raised = self.spans, self.stack, self.raised
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            lay = layer if isinstance(layer, str) else layer(args)
            after = hook(self, args) if hook is not None else None
            span = [name, lay, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                stack.pop()
                raised[lay] += 1
                raise
            span[3] = clock()
            stack.pop()
            if after is not None:
                after(result)
            return result
        return spanned

    def counted(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if self.op >= 0:
                counts[counter] += 1
            return fn(*args, **kwargs)
        return counting

    def write_jsonl(self, fh, workload: str,
                    ops: list[tuple[str, int, int]]) -> None:
        """One JSON line per op (kind, start, end), then one per span."""
        for i, (kind, t0, t1) in enumerate(ops):
            fh.write(json.dumps({"workload": workload, "op": i, "kind": kind,
                                 "start_ns": t0, "end_ns": t1}) + "\n")
        for i, (name, layer, t0, t1, parent, op) in enumerate(self.spans):
            fh.write(json.dumps({"workload": workload, "span": i, "op": op,
                                 "parent": parent, "layer": layer,
                                 "name": name, "start_ns": t0,
                                 "end_ns": t1}) + "\n")


def _rebind_function(fn: Callable, wrapper: Callable, undo: list) -> None:
    """Replace *fn* in every loaded module that binds it."""
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))


def _rebind_method(cls, name: str, make: Callable[[Callable], Callable],
                   undo: list) -> None:
    raw = vars(cls)[name]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(cls, name, wrapped)
    undo.append((cls, name, raw))


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every entry point with *rec*; returns the function that puts
    the originals back."""
    undo: list = []
    for layer, cls, names in _syscall_entries():
        for name in names:
            _rebind_method(cls, name, lambda fn, n=f"{cls.__name__}.{name}",
                           lay=layer: rec.wrap(fn, n, lay), undo)
    for layer, entries in ENTRY_POINTS.items():
        for module, attr, methods, hooks in entries:
            target = getattr(sys.modules[module], attr)
            if methods is None:
                lay = _execute_layer if attr == "execute" else layer
                _rebind_function(target, rec.wrap(target, attr, lay,
                                                   hooks.get(attr)), undo)
                continue
            for name in methods:
                _rebind_method(
                    target, name,
                    lambda fn, n=f"{attr}.{name}", h=hooks.get(name), lay=layer:
                        rec.wrap(fn, n, lay, h), undo)
    for cls, name, counter in COUNTED_ONLY:
        _rebind_method(cls, name, lambda fn, c=counter: rec.counted(fn, c),
                       undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def ledger(rec: Recorder, op_ns: list[int], walker: dict[str, int],
           sim_samples: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run: per-op means, except ratios.

    *op_ns* is each traced op's wall time, *walker* the ``COUNTERS`` delta
    over the run, *sim_samples* the sim-clock latencies the ops reported.
    """
    n_ops = len(op_ns)
    total_ns = sum(op_ns)
    covered = [0] * len(rec.spans)
    for name, layer, t0, t1, parent, op in rec.spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    syscalls = sim_run_ns = 0
    for i, (name, layer, t0, t1, parent, op) in enumerate(rec.spans):
        self_ns[layer] += t1 - t0 - covered[i]
        calls[layer] += 1
        # a syscall the rest of the program issued, not one a syscall made
        syscalls += layer in SYSCALL_LAYERS and (
            parent < 0 or rec.spans[parent][1] not in SYSCALL_LAYERS)
        if name == "SimEngine.run" and not _inside(rec.spans, parent,
                                                   "SimEngine.run"):
            sim_run_ns += t1 - t0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.share"] = self_ns[layer] / total_ns
    out["unattributed.share"] = 1.0 - sum(self_ns[l] for l in LAYERS) \
        / total_ns
    c = rec.counts
    per_op = {
        "kernel.syscalls": syscalls,
        "kernel.errnos": rec.raised["kernel"],
        "kernel.path_resolves": c["kernel.path_resolves"],
        "fakeroot.calls_absorbed": calls["fakeroot"] - rec.raised["fakeroot"],
        "distro.packages_installed": c["distro.packages_installed"],
        "core.instructions": c["core.instructions"],
        "core.runs_modified": c["core.runs_modified"],
        "containers.blobs_pulled": c["containers.blobs_pulled"],
        "containers.bytes_pushed": c["containers.bytes_pushed"],
        "archive.members": c["archive.members"],
        "cas.walk_full": walker.get("snapshot.walk_full", 0),
        "cas.walk_dirty": walker.get("snapshot.walk_dirty", 0),
        "cluster.registry_egress_bytes": c["cluster.registry_egress_bytes"],
        "cluster.peer_bytes": c["cluster.peer_bytes"],
        "cluster.overloads": c["cluster.overloads"],
        "cluster.retries": c["cluster.retries"],
        "sim.events": c["sim.events"],
    }
    out.update({name: value / n_ops for name, value in per_op.items()})
    out["containers.blob_skip_ratio"] = _ratio(
        c["containers.blobs_skipped"],
        c["containers.blobs_skipped"] + c["containers.blobs_pulled"])
    out["cas.cache_hit_ratio"] = _ratio(c["cas.hits"], c["cas.lookups"])
    memo_hits = walker.get("digest.memo_hit", 0)
    out["cas.digest_memo_hit_ratio"] = _ratio(
        memo_hits, memo_hits + walker.get("digest.memo_miss", 0))
    out["sim.events_per_s"] = _ratio(c["sim.events"], sim_run_ns / 1e9)
    out["sim_s.p50"] = _nearest_rank(sim_samples, 0.50)
    out["sim_s.p99"] = _nearest_rank(sim_samples, 0.99)
    return out


def _inside(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0 with no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1,
                              int(q * len(ordered) + 0.5) - 1))]

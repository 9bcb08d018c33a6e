"""One workload in one process: set up, warm up, run the ops, report.

``bench/run.py`` starts this as ``python -m bench.child CONFIG`` (CONFIG
is a JSON object) and reads the JSON object it prints on its last line.
One thread, nothing in parallel: the loop is closed, with one client, and
the next op starts after the previous one ends.

Modes:

* ``timed`` — whole rounds until ``seconds`` have passed and at least
  ``MIN_OPS`` ops ran (or exactly ``ops`` ops); reports the end-to-end
  metrics.
* ``baseline`` — the same, untraced, for the workload's ``trace_ops``
  ops: the reference a traced run's overhead is measured against.
* ``traced`` — ``trace_ops`` ops with every layer entry point wrapped
  (see :mod:`bench.layers`); reports the per-layer ledger and appends
  the spans to ``trace_path``.
"""

import time

STARTED = time.perf_counter()  # child start: before the program is imported

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: a p90 always has >= 10 samples beyond it
MIN_OPS = 100
#: set-ups per measured run; setup_s reports their median
SETUP_REPS = 3


def _op_kinds(workload, ops, seconds):
    """Exactly *ops* op kinds, or whole rounds until *seconds* passed and
    at least MIN_OPS ran."""
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        for kind in workload.round():
            if n == ops:
                return
            yield kind
            n += 1
        if ops is None and n >= MIN_OPS and time.perf_counter() >= deadline:
            return


def _run_op(workload, kind, name, failures, recorder=None, op_id=-1):
    """Prepare, collect garbage, then time one op and check its output.
    Returns ``(start_ns, end_ns, sim_samples)``."""
    op = workload.prepare(kind)
    gc.collect()
    if recorder is not None:
        recorder.op = op_id
    start = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception:  # a raising op is a failed op; keep measuring
        end = time.perf_counter_ns()
        failures.append(f"{name} {kind}: raised\n{traceback.format_exc()}")
        return start, end, []
    finally:
        if recorder is not None:
            recorder.op = -1
    end = time.perf_counter_ns()
    why = op.check(result)
    if why:
        failures.append(f"{name} {kind}: {why}")
        return start, end, []
    return start, end, op.sim_s(result)


def main(cfg: dict) -> dict:
    from bench import layers, workloads  # imports the program
    import_s = time.perf_counter() - STARTED
    name, mode = cfg["workload"], cfg["mode"]
    cls = workloads.WORKLOADS[name]
    failures: list[str] = []

    setups = []
    # a run of a fixed op count is a smoke run: one set-up is enough
    for _ in range(SETUP_REPS if cfg["ops"] is None else 1):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = cls(cfg["seed"])
        _run_op(workload, workload.round()[0], name, failures)
        gc.collect()
        setups.append(time.perf_counter() - t0)

    ops = cfg["ops"]
    if ops is None and mode != "timed":
        ops = workload.trace_ops
    recorder = uninstall = None
    if mode == "traced":
        recorder = layers.Recorder()
        walker_before = layers.COUNTERS.snapshot()
        uninstall = layers.install(recorder)
    records, sim_samples = [], []
    try:
        for i, kind in enumerate(_op_kinds(workload, ops, cfg["seconds"])):
            start, end, sims = _run_op(workload, kind, name, failures,
                                       recorder, i)
            records.append((kind, start, end))
            if recorder is not None:
                # only the ledger uses them; kept in a timed run, they
                # would grow peak_rss_mb with the op count
                sim_samples.extend(sims)
    finally:
        if uninstall is not None:
            uninstall()

    op_s = [(end - start) / 1e9 for _, start, end in records]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_s.p50": statistics.median(op_s),
        "op_s.p90": (statistics.quantiles(op_s, n=10)[8]
                     if len(op_s) > 1 else op_s[0]),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if recorder is not None:
        walker = {k: v - walker_before.get(k, 0)
                  for k, v in layers.COUNTERS.snapshot().items()}
        metrics.update(layers.ledger(
            recorder, [end - start for _, start, end in records], walker,
            sim_samples))
        with open(cfg["trace_path"], "a") as fh:
            recorder.write_jsonl(fh, name, records)
    for failure in failures:
        print(failure, file=sys.stderr)
    return {"attempted": len(records) + len(setups), "failed": len(failures),
            "timed_ops": len(records), "metrics": metrics}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

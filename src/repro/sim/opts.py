"""Engine optimization switches.

The fleet-scale engine has three optimizations layered on the reference
discrete-event semantics: the closed-form bulk transmit path
(:mod:`~repro.sim.transfer`), the same-timestamp bucket event queue
(:mod:`~repro.sim.events`), and broadcast event coalescing
(:mod:`~repro.cluster.broadcast`).  A fourth fast path sits in the
simulated kernel: the path-walk dentry cache of
:class:`~repro.kernel.mounts.MountNamespace`, which resolves a path's
parent directory without re-walking it from ``/``.  All four are *pure*
speedups — every virtual timestamp, LinkStats float, deploy digest and
path walk is identical with them on or off — and this module is the
single switch the parity tests and the ablations flip to prove it.  The
journal walker of :mod:`repro.cas.diff` reads the same switch.

Set ``REPRO_SIM_REFERENCE=1`` in the environment to start with the
reference (pre-optimization) engine, or use :func:`reference_engine` to
scope it to a block.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["optimizations_enabled", "reference_engine", "set_optimizations"]

#: Read at call time by the hot paths (module attribute, not a from-import)
#: so flipping the switch affects engines that already exist.
ENABLED = os.environ.get("REPRO_SIM_REFERENCE", "") not in ("1", "true", "yes")


def optimizations_enabled() -> bool:
    """Are the engine fast paths currently active?"""
    return ENABLED


def set_optimizations(enabled: bool) -> bool:
    """Turn the fast paths on or off; returns the previous setting."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(enabled)
    return previous


@contextmanager
def reference_engine():
    """Run a block on the reference (pre-optimization) engine: per-chunk
    transmit loop, plain binary-heap event queue, no event coalescing,
    uncached path walks."""
    previous = set_optimizations(False)
    try:
        yield
    finally:
        set_optimizations(previous)

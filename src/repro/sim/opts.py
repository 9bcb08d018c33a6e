"""The fast-or-reference choice's default.

Each :class:`~repro.sim.SimEngine` (bulk transmit, bucket event queue,
broadcast event coalescing) and :class:`~repro.kernel.Kernel` (path-walk
dentry cache, kept unpack directories, journal snapshot walker) fixes
``fast`` when it is built, and what it owns follows it.  The fast paths
are *pure* speedups: every virtual timestamp, LinkStats field, deploy
digest, path walk and snapshot equals the reference loop's.
``REPRO_SIM_REFERENCE=1`` only changes the default for objects built
without a ``fast=``.
"""

from __future__ import annotations

import os

__all__ = ["default_fast"]


def default_fast() -> bool:
    """Does a Kernel or SimEngine built without a choice take the fast
    paths?  Yes, unless ``REPRO_SIM_REFERENCE`` is ``1``/``true``/``yes``."""
    return os.environ.get("REPRO_SIM_REFERENCE", "") not in ("1", "true",
                                                             "yes")

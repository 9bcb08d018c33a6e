"""Latency/throughput parameters for simulated filesystem types.

Used by the benchmark harness to give storage-driver comparisons a realistic
*shape* (local disk ≪ shared filesystem metadata latency; FUSE adds
per-operation overhead).  Values are simulated cost units per metadata
operation and per byte, not wall-clock claims.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FsParams", "FS_PARAMS"]


@dataclass(frozen=True)
class FsParams:
    """Simulated cost model for one filesystem type."""

    meta_op_cost: float  # per metadata operation (create/chown/stat)
    byte_cost: float  # per byte written
    fuse_overhead: float = 0.0  # extra multiplier when accessed through FUSE


FS_PARAMS: dict[str, FsParams] = {
    "ext4": FsParams(meta_op_cost=1.0, byte_cost=0.001),
    "tmpfs": FsParams(meta_op_cost=0.5, byte_cost=0.0005),
    "nfs": FsParams(meta_op_cost=25.0, byte_cost=0.01),
    "lustre": FsParams(meta_op_cost=15.0, byte_cost=0.002),
    "proc": FsParams(meta_op_cost=0.2, byte_cost=0.0),
    "sysfs": FsParams(meta_op_cost=0.2, byte_cost=0.0),
    "overlay": FsParams(meta_op_cost=1.2, byte_cost=0.0012, fuse_overhead=0.3),
}

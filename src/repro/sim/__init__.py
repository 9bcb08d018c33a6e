"""Discrete-event simulated time for the cluster substrate.

The kernels' per-machine tick counters measure *work*; this package
measures *concurrency*: a cluster-wide virtual clock, an event queue, and
a bandwidth+latency network cost model, so the §4.2 parallel-deploy story
can report makespans instead of pretending a for-loop is a cluster.
"""

from .clock import SimClock
from .events import EventQueue, ReferenceEventQueue, SimEngine, SimError
from .faults import (
    FaultPlan,
    FaultPlanError,
    RegistryFaultInjector,
    RetryPolicy,
    TransientTransferError,
    faulty_transmit,
    link_restore,
    link_snapshot,
    retry_call,
)
from .opts import optimizations_enabled, reference_engine, set_optimizations
from .profile import COUNTERS, EngineProfile, category_of
from .topology import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_LATENCY,
    LinkStats,
    NetLink,
    Topology,
    TopologyError,
)
from .transfer import (
    TransferTiming,
    chunk_sizes,
    transmit,
    transmit_reference,
)
from .workload import (
    PullRequest,
    WorkloadError,
    WorkloadReport,
    WorkloadSpec,
    generate_requests,
    run_workload,
    zipf_weights,
)

__all__ = [
    "SimClock",
    "EventQueue",
    "ReferenceEventQueue",
    "SimEngine",
    "SimError",
    "EngineProfile",
    "category_of",
    "COUNTERS",
    "optimizations_enabled",
    "reference_engine",
    "set_optimizations",
    "FaultPlan",
    "FaultPlanError",
    "RegistryFaultInjector",
    "RetryPolicy",
    "TransientTransferError",
    "faulty_transmit",
    "link_restore",
    "link_snapshot",
    "retry_call",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_LATENCY",
    "LinkStats",
    "NetLink",
    "Topology",
    "TopologyError",
    "TransferTiming",
    "chunk_sizes",
    "transmit",
    "transmit_reference",
    "PullRequest",
    "WorkloadError",
    "WorkloadReport",
    "WorkloadSpec",
    "generate_requests",
    "run_workload",
    "zipf_weights",
]

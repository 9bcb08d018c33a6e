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
from .opts import default_fast
from .profile import COUNTERS, EVENT, category_of, top_events
from .topology import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_LATENCY,
    NS_PER_S,
    LinkStats,
    NetLink,
    Topology,
    TopologyError,
    to_ns,
    wire_ns,
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
    "EVENT",
    "category_of",
    "top_events",
    "COUNTERS",
    "default_fast",
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
    "NS_PER_S",
    "NetLink",
    "Topology",
    "TopologyError",
    "to_ns",
    "wire_ns",
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

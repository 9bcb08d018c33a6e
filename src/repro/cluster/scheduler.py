"""A Slurm-like resource manager over a set of compute nodes.

Jobs are Python callables run per-node (one rank per node).  The paper's
deployment story needs exactly this: "the container image built on the
supercomputer can be deployed in parallel using the local resource
management tool and an HPC container runtime" (§4.2), and jobs must be
*children of the shell*, not of a daemon (§3.1) — which the scheduler
**enforces** (raises, never a bare ``assert`` — the invariant must
survive ``python -O``).

Every job runs on simulated time.  Ranks execute deterministically one
at a time in Python, but their *events* are interleaved on a
:class:`~repro.sim.SimEngine`: each rank starts at its readiness time
(e.g. when the broadcast distributor delivered its blobs; 0.0 by
default), its compute cost is its node-kernel tick delta scaled by
``tick_seconds``, and the job reports a **makespan** — the §6.3 quantity
a for-loop cannot show.  Ranks that are ready together run in rank
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from ..errors import ReproError
from ..kernel import Process
from ..sim import FaultPlan, SimEngine
from .machines import Machine

__all__ = ["DEFAULT_TICK_SECONDS", "Job", "JobResult", "Scheduler",
           "SchedulerError"]

#: One simulated kernel tick of per-rank compute, in virtual seconds.
#: Deliberately small next to default link transfer times so deploy
#: makespans are transfer-dominated (the §4.2 regime of interest).
DEFAULT_TICK_SECONDS = 1e-7


class SchedulerError(ReproError):
    """Allocation, submission, or job-invariant failure."""


@dataclass
class JobResult:
    """Per-job outcome and accounting.

    ``rank_starts`` / ``rank_finishes`` are virtual times; ``error`` is
    set when the job aborted mid-run — the partial result is still
    recorded so the allocation is accounted for.
    ``skipped`` lists allocated nodes whose rank never launched (crashed
    or dropped by a degraded distribution): the job is *degraded* but can
    still succeed on the survivors.
    """

    job_id: int
    nodes: list[str]
    rank_outputs: list[str]
    rank_statuses: list[int]
    rank_starts: list[float] = field(default_factory=list)
    rank_finishes: list[float] = field(default_factory=list)
    error: str = ""
    skipped: list[str] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return (not self.error
                and len(self.rank_statuses)
                == len(self.nodes) - len(self.skipped)
                and all(s == 0 for s in self.rank_statuses))

    @property
    def degraded(self) -> bool:
        """True when any allocated node's rank never ran."""
        return bool(self.skipped)

    @property
    def output(self) -> str:
        return "".join(self.rank_outputs)

    @property
    def makespan(self) -> Optional[float]:
        """Last rank finish minus first rank start (None when no rank
        ran)."""
        if not self.rank_finishes:
            return None
        return max(self.rank_finishes) - min(self.rank_starts)


@dataclass
class Job:
    """A submitted job: *fn(node_machine, rank, user_proc) -> (status, out)*."""

    job_id: int
    user: str
    nodes_wanted: int
    fn: Callable[[Machine, int, Process], tuple[int, str]]


class Scheduler:
    """FIFO scheduler over homogeneous compute nodes."""

    def __init__(self, compute_nodes: Sequence[Machine]):
        if not compute_nodes:
            raise SchedulerError("no compute nodes")
        self.nodes = list(compute_nodes)
        self._job_ids = itertools.count(1)
        self.completed: list[JobResult] = []
        self._busy: set[str] = set()

    def free_nodes(self) -> list[str]:
        """Hostnames with no allocation in flight."""
        return [n.hostname for n in self.nodes
                if n.hostname not in self._busy]

    # -- the §3.1 invariant -------------------------------------------------------

    @staticmethod
    def _check_descends_from_shell(node: Machine, login: Process) -> None:
        """§3.1: the job must be a descendant of the user's login shell —
        no daemon may appear in the process chain.  A real error, not an
        ``assert``, so the check survives ``python -O``."""
        if not any(p.ppid == login.pid or p.pid == login.pid
                   for p in node.kernel.processes.values()):
            raise SchedulerError(
                f"§3.1 violation on {node.hostname}: job processes must "
                f"descend from the user shell (pid {login.pid}), not from "
                f"a daemon")

    # -- submission ---------------------------------------------------------------

    def srun(
        self,
        user: str,
        nodes: int,
        fn: Callable[[Machine, int, Process], tuple[int, str]],
        *,
        sim: Optional[SimEngine] = None,
        rank_ready: Union[Sequence[float], Mapping[str, float], None] = None,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
        fault_plan: Optional[FaultPlan] = None,
    ) -> JobResult:
        """Allocate *nodes* nodes and run *fn* once per node (one rank per
        node).  The job processes are children of the user's login process
        on each node — no daemon in the chain.

        Rank events run on *sim* (a :class:`~repro.sim.SimEngine`,
        created if absent): rank *k* starts at ``rank_ready[k]`` (or its
        hostname's entry; 0.0 by default) and finishes after its
        kernel-tick compute cost.

        With a *fault_plan*, a node the plan has crashed before its start
        time is **skipped** (listed in ``JobResult.skipped``) rather than
        run, as is a node a Mapping *rank_ready* omits — a degraded
        distribution drops crashed nodes from ``node_ready``, and silently
        launching them at t=0 would run ranks on data that never arrived.
        A node crashing *mid-rank* reports status 137 (killed).
        """
        if not 1 <= nodes <= len(self.nodes):
            raise SchedulerError(
                f"requested {nodes} nodes; the partition has "
                f"{len(self.nodes)}, so ask for 1..{len(self.nodes)}")
        job = Job(next(self._job_ids), user, nodes, fn)
        allocated = self.nodes[:nodes]
        outputs: list[Optional[str]] = [None] * nodes
        statuses: list[Optional[int]] = [None] * nodes
        starts: list[float] = []
        finishes: list[float] = []
        skipped: list[str] = []
        self._busy.update(n.hostname for n in allocated)

        def run_rank(rank: int, node: Machine, start: float) -> None:
            if fault_plan is not None \
                    and fault_plan.crashed_by(node.hostname, start):
                skipped.append(node.hostname)
                return
            if user not in node.users:
                raise SchedulerError(f"user {user!r} has no account on "
                                     f"{node.hostname}")
            login = node.login(user)
            ticks_before = node.kernel.ticks
            status, out = fn(node, rank, login)
            self._check_descends_from_shell(node, login)
            cost = (node.kernel.ticks - ticks_before) * tick_seconds
            crash_t = (fault_plan.crash_time(node.hostname)
                       if fault_plan is not None else None)
            starts.append(start)
            if crash_t is not None and start < crash_t < start + cost:
                # the node died under the rank: killed, partial time
                status = 137
                out += f"[rank {rank} killed at t={crash_t:.6f}]\n"
                finishes.append(crash_t)
            else:
                finishes.append(start + cost)
            outputs[rank] = out
            statuses[rank] = status

        try:
            engine = sim if sim is not None else SimEngine()
            for rank, node in enumerate(allocated):
                if isinstance(rank_ready, Mapping):
                    if node.hostname not in rank_ready \
                            and fault_plan is not None:
                        # a degraded distribution dropped this node: its
                        # data never arrived, so its rank cannot launch
                        skipped.append(node.hostname)
                        continue
                    start = rank_ready.get(node.hostname, 0.0)
                elif rank_ready is not None:
                    start = rank_ready[rank]
                else:
                    start = 0.0
                engine.at(start, run_rank, rank, node, start)
            engine.run()
        except Exception as err:
            # the partial result is still accounting: which ranks ran,
            # what they printed, and that the allocation existed at all
            partial = JobResult(
                job.job_id, [n.hostname for n in allocated],
                [o for o in outputs if o is not None],
                [s for s in statuses if s is not None],
                rank_starts=starts, rank_finishes=finishes,
                error=str(err), skipped=sorted(skipped))
            self.completed.append(partial)
            raise
        finally:
            self._busy.difference_update(n.hostname for n in allocated)

        result = JobResult(job.job_id, [n.hostname for n in allocated],
                           [o for o in outputs if o is not None],
                           [s for s in statuses if s is not None],
                           rank_starts=starts, rank_finishes=finishes,
                           skipped=sorted(skipped))
        self.completed.append(result)
        return result

"""Execution statistics shared by all executors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class ExecutionStats:
    """What an executor did and how long each part took.

    ``compute_time`` / ``sched_time`` are per-thread (index = thread id);
    the paper's Fig. 8 plots exactly these: per-thread primitive time for
    load balance, and the scheduling share of execution time.

    The process executor records one extra trailing slot in the per-worker
    lists for work its master process ran inline (small tasks it keeps out
    of the dispatch path), plus the process-specific counters below; it
    marks that slot in ``master_slot`` so load metrics can separate the
    master's opportunistic inline work from the real workers.
    """

    num_threads: int = 1
    wall_time: float = 0.0
    tasks_executed: int = 0
    tasks_partitioned: int = 0
    chunks_executed: int = 0
    compute_time: List[float] = field(default_factory=list)
    sched_time: List[float] = field(default_factory=list)
    tasks_per_thread: List[int] = field(default_factory=list)
    # Process-executor extras: tasks the master ran inline instead of
    # dispatching, bytes of the shared-memory arena, and the worker
    # process pids in per-slot order (for correlating with OS tooling).
    tasks_inline: int = 0
    shared_bytes: int = 0
    worker_pids: List[int] = field(default_factory=list)
    # Index of the master's inline-work slot in the per-slot lists, or
    # None when every slot is a real worker (thread executors).
    master_slot: Optional[int] = None
    # The steps a ResilientExecutor took to finish the run (one
    # DegradationRecord per rollback, step down or log-space rescue).
    # An executor records no faults of its own: a fault ends its run
    # with an exception, and the ladder turns that into a step down.
    degradations: List[object] = field(default_factory=list)
    # Post-run numerical health summary (set by ResilientExecutor) and,
    # when the log-space fallback ran, the log-likelihood of the evidence
    # (the linear-domain state.likelihood() is unreliable after a rescue).
    health: str = ""
    log_likelihood: Optional[float] = None
    # The executor that actually completed the run.  Set by
    # ResilientExecutor to the ladder tier that finished — after a
    # degradation this differs from the *requested* executor, and trace
    # labels must reflect reality, not the request.
    completed_executor: str = ""
    completed_partition_threshold: Optional[int] = None
    # Incremental-repropagation accounting: whether the run executed a
    # restricted task graph, and how many tasks of the full graph were
    # skipped by reusing the previous propagation's tables.
    incremental: bool = False
    tasks_skipped: int = 0

    def degraded(self) -> bool:
        """True when a ResilientExecutor had to fall back or rescue."""
        return bool(self.degradations)

    def total_compute(self) -> float:
        return sum(self.compute_time)

    def total_sched(self) -> float:
        return sum(self.sched_time)

    def sched_ratio(self) -> float:
        """Scheduling overhead as a fraction of total busy time."""
        busy = self.total_compute() + self.total_sched()
        if busy == 0:
            return 0.0
        return self.total_sched() / busy

    def worker_slots(self) -> List[int]:
        """Indices of the per-slot lists that belong to real workers.

        Excludes the process executor's master slot (inline work the
        master ran opportunistically); thread executors have no master
        slot, so every index qualifies.
        """
        return [
            slot
            for slot in range(len(self.compute_time))
            if slot != self.master_slot
        ]

    def per_worker_summary(self) -> List[dict]:
        """One dict per slot: role, pid (if known), compute time, tasks.

        Rows cover every slot — real workers and (process executor) the
        master's inline-execution share, marked by ``role == "master"``.
        """
        rows = []
        for slot, compute in enumerate(self.compute_time):
            rows.append(
                {
                    "slot": slot,
                    "role": "master" if slot == self.master_slot else "worker",
                    "pid": self.worker_pids[slot]
                    if slot < len(self.worker_pids)
                    else None,
                    "compute_time": compute,
                    "sched_time": self.sched_time[slot]
                    if slot < len(self.sched_time)
                    else 0.0,
                    "tasks": self.tasks_per_thread[slot]
                    if slot < len(self.tasks_per_thread)
                    else 0,
                }
            )
        return rows

    def load_imbalance(self) -> float:
        """max/mean per-worker compute time; 1.0 means perfectly balanced.

        Only real worker slots count: averaging in the process executor's
        master slot (mostly-idle inline work) used to deflate the mean
        and overstate imbalance.
        """
        compute = [self.compute_time[s] for s in self.worker_slots()]
        if not compute or max(compute) == 0:
            return 1.0
        mean = sum(compute) / len(compute)
        if mean == 0:
            return 1.0
        return max(compute) / mean

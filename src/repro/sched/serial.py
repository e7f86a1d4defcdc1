"""Reference serial executor: tasks in topological order, one thread."""

from __future__ import annotations

import time
from typing import Optional

from repro.sched.faults import TaskExecutionError
from repro.sched.stats import ExecutionStats
from repro.tasks.state import PropagationState
from repro.tasks.task import TaskGraph


class SerialExecutor:
    """Runs every task in a fixed topological order on the calling thread.

    This is both the correctness oracle for the parallel executors and the
    ``P = 1`` baseline for speedup measurements.
    """

    def run(
        self,
        graph: TaskGraph,
        state: PropagationState,
        tracer=None,
        deadline: Optional[float] = None,
    ) -> ExecutionStats:
        """Run the graph; ``deadline`` is an absolute ``time.monotonic()``
        instant checked between tasks (the serial form of the parallel
        executors' fetch-boundary check).  A whole-run overrun surfaces
        only as :class:`~repro.sched.faults.TaskExecutionError` with
        ``phase="deadline"``; no stats object outlives it."""
        buf = tracer.bind(0) if tracer is not None else None
        start_ns = time.perf_counter_ns()
        compute_ns = 0
        executed = 0
        for tid in graph.topological_order():
            if deadline is not None and time.monotonic() >= deadline:
                raise TaskExecutionError(
                    f"serial propagation exceeded its deadline with "
                    f"{graph.num_tasks - executed} of {graph.num_tasks} "
                    f"tasks unexecuted",
                    phase="deadline",
                )
            t0 = time.perf_counter_ns()
            state.execute(graph.tasks[tid])
            t1 = time.perf_counter_ns()
            compute_ns += t1 - t0
            executed += 1
            if buf is not None:
                buf.task_span("task", tid, t0, t1)
        wall = (time.perf_counter_ns() - start_ns) * 1e-9
        compute = compute_ns * 1e-9
        return ExecutionStats(
            num_threads=1,
            wall_time=wall,
            tasks_executed=graph.num_tasks,
            compute_time=[compute],
            sched_time=[max(wall - compute, 0.0)],
            tasks_per_thread=[graph.num_tasks],
        )

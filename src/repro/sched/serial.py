"""Reference serial executor: a task graph as one straight-line run.

The graph is compiled once into its step list (every task in topological
order, with operand slot indices and its pipeline's plan:
:meth:`repro.tasks.layout.TableLayout.step_list`), and the run walks that
list against the state's slot-indexed table views
(:meth:`repro.tasks.state.PropagationState.run_steps`): no dependency
counters, no per-task lookups.  Tracing and the deadline check go through
the same loop.
"""

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
        executed, compute_ns = state.run_steps(
            state.step_list(graph), buf, deadline
        )
        if executed < graph.num_tasks:
            raise TaskExecutionError(
                f"serial propagation exceeded its deadline with "
                f"{graph.num_tasks - executed} of {graph.num_tasks} "
                f"tasks unexecuted",
                phase="deadline",
            )
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

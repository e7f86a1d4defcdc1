"""Reference serial executor: a task graph as one straight-line run.

A tree's full task graph, from its second run on, runs level by level
as *waves* (:meth:`repro.tasks.layout.TableLayout.wave_list`): every
level of the DAG is one gather / scatter numpy call per primitive kind
over the tasks whose tables are small, with the wide tasks as single
steps between them — the paper's level-synchronous baseline, run as data
parallelism inside numpy rather than as a thread team
(:meth:`repro.tasks.state.PropagationState.run_waves`).  Every other
run — a restricted graph (mostly run once), the full graph's first run,
a run traced by a :class:`~repro.obs.tracer.Tracer` (one span per task)
— walks the graph's step list, compiled once (every task in topological
order, with operand slot indices and its pipeline's plan:
:meth:`repro.tasks.layout.TableLayout.step_list`), against the state's
slot-indexed table views
(:meth:`repro.tasks.state.PropagationState.run_steps`).  Neither path
has dependency counters or per-task lookups, and both leave the same
bits in every table.  The deadline is checked before every wave or step.
A wide pipeline (its target clique has at least
:data:`~repro.potential.primitives.WIDE_TABLE` entries) has no
``extended`` table: its EXTEND step runs nothing and its MULTIPLY
multiplies the separator ratio straight into the clique, so on a tree
of wide cliques only three primitives run per pipeline.
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
        instant checked between waves or tasks (the serial form of the
        parallel executors' fetch-boundary check).  A whole-run overrun
        surfaces only as :class:`~repro.sched.faults.TaskExecutionError`
        with ``phase="deadline"``; no stats object outlives it."""
        start_ns = time.perf_counter_ns()
        waves = state.wave_list(graph) if tracer is None else None
        if waves is not None:
            executed, compute_ns = state.run_waves(waves, deadline)
        else:
            buf = tracer.bind(0) if tracer is not None else None
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

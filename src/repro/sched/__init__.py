"""Executors that run a task graph against a propagation state.

All executors produce numerically equivalent results; they differ in *how*
tasks are ordered, interleaved, and mapped onto hardware:

* :class:`SerialExecutor` — reference topological execution, its own
  loop: the oracle every other executor is compared against.
* :mod:`repro.sched.core` — the paper's Algorithm 2 as *one* threaded
  loop whose Allocate / Fetch / Partition decisions come from a policy.
  :class:`CollaborativeExecutor` (the paper's scheduler),
  :class:`WorkStealingExecutor` (Section 8), the Section 7 baselines
  :class:`LevelParallelExecutor` and :class:`DataParallelExecutor`, and
  :func:`run_dag` (any DAG of callables) each pick a policy and call it.
  Threads are GIL-bound while per-task Python dominates; numpy releases
  the GIL inside its loops, so only wide tables overlap.  The paper's
  speedup figures come from :mod:`repro.simcore`.
* :class:`ProcessSharedMemoryExecutor` — Algorithm 2 across worker
  *processes* with all potential tables in shared memory.  It pays two
  arena copies per run and a dispatch round-trip per task, and is slower
  than serial on every benchmark-suite workload (``sched.process.run_ms``
  beside ``sched.serial.run_ms``).

Every executor's ``run(graph, state, tracer=None, deadline=None)`` takes
the same arguments.  Fault tolerance: :class:`ResilientExecutor` is the
one recovery ladder — roll back, step down to the next tier, end at
serial — with numerical health guards and a log-space underflow rescue.
No executor recovers on its own: a fault ends its run with an exception,
and the ladder steps down.  :class:`FaultPlan` injects deterministic
faults for testing it.
"""

from repro.sched.stats import ExecutionStats
from repro.sched.serial import SerialExecutor
from repro.sched.core import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
    WorkStealingExecutor,
    run_dag,
)
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.faults import (
    FaultPlan,
    HealthReport,
    TaskExecutionError,
    check_state_health,
    scan_tables,
)
from repro.sched.resilient import DegradationRecord, ResilientExecutor

__all__ = [
    "ExecutionStats",
    "SerialExecutor",
    "CollaborativeExecutor",
    "LevelParallelExecutor",
    "DataParallelExecutor",
    "WorkStealingExecutor",
    "ProcessSharedMemoryExecutor",
    "run_dag",
    "FaultPlan",
    "HealthReport",
    "TaskExecutionError",
    "check_state_health",
    "scan_tables",
    "DegradationRecord",
    "ResilientExecutor",
]

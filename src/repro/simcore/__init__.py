"""Discrete-event multicore simulator.

Python's GIL prevents measuring shared-memory speedup directly, so the
speedup experiments run the paper's scheduling policies over the *same task
graphs* inside a discrete-event simulation with a calibrated cost model
(per-primitive operation counts, per-task scheduling overhead, lock
contention, memory-bandwidth pressure, fork/join and barrier costs).

The simulator reports per-core compute and scheduling-overhead clocks plus
the makespan, from which :mod:`repro.experiments` derives the speedup curves,
load-balance profiles and overhead ratios of Figs. 5-9.
"""

from repro.simcore.profiles import (
    IBM_P655,
    OPTERON,
    XEON,
    PlatformProfile,
)
from repro.simcore.result import SimResult
from repro.simcore.simgraph import SimGraph, build_sim_graph
from repro.simcore.trace import Trace, TraceEvent
from repro.simcore.policies import (
    CentralizedPolicy,
    CollaborativePolicy,
    DataParallelPolicy,
    LevelParallelPolicy,
    OpenMPPolicy,
    SerialPolicy,
    WorkStealingPolicy,
)
from repro.simcore.machine import Machine

__all__ = [
    "PlatformProfile",
    "XEON",
    "OPTERON",
    "IBM_P655",
    "SimResult",
    "SimGraph",
    "build_sim_graph",
    "Trace",
    "TraceEvent",
    "Machine",
    "SerialPolicy",
    "CollaborativePolicy",
    "WorkStealingPolicy",
    "LevelParallelPolicy",
    "OpenMPPolicy",
    "DataParallelPolicy",
    "CentralizedPolicy",
]

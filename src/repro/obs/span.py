"""The span model of the observability subsystem.

A :class:`Span` is one timed interval on one worker's timeline — a task
execution, a chunk of a partitioned task, a combiner, a scheduling wait, a
slow lock acquisition, a dispatch round-trip — tagged with everything the
metrics layer needs to attribute the time: task id, primitive kind, phase,
clique, potential-table bytes and the FLOP estimate the scheduler balanced
on.  Spans are *produced* by :class:`~repro.obs.tracer.Tracer` buffers
(which record cheap tuples on the hot path and materialize ``Span`` objects
only at finalize time) and *consumed* by the exporter, the metrics layer
and the calibration report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# Span categories (the ``cat`` field; mirrored as Chrome-trace categories).
CAT_EXECUTE = "execute"  # primitive / chunk / combine work
CAT_SCHED = "sched"  # fetch, allocate, dispatch-wait, steal
CAT_LOCK = "lock"  # slow GL/LL lock acquisitions
CAT_IPC = "ipc"  # process-executor dispatch round-trips
CAT_FAULT = "fault"  # injected faults, torn writes, degradations
CAT_SERVE = "serve"  # inference-service request lifecycles
CAT_STREAM = "stream"  # streaming-session tick lifecycles / window rolls
CAT_RECOVERY = "recovery"  # journal replay / checkpoint adoption on restart

CATEGORIES = (
    CAT_EXECUTE, CAT_SCHED, CAT_LOCK, CAT_IPC, CAT_FAULT, CAT_SERVE,
    CAT_STREAM, CAT_RECOVERY,
)

# Execution-span roles (stored in ``Span.role``).
ROLE_TASK = "task"  # whole-task primitive execution
ROLE_CHUNK = "chunk"  # one chunk of a partitioned task
ROLE_COMBINE = "combine"  # the final subtask T̂_n
ROLE_INLINE = "inline"  # master-inline execution (process executor)

# Well-known virtual worker rows (negative so they never collide with a
# real worker slot; exporters map them to named timeline rows).
CONTROL_ROW = -1  # degradations, run-level annotations
IPC_ROW = -2  # dispatch round-trip spans (async track)

_FLOAT_BYTES = 8  # all potential tables are float64


@dataclass
class Span:
    """One timed interval on one worker's timeline.

    ``start_ns`` / ``end_ns`` are nanoseconds relative to the trace origin
    (the tracer's creation instant), so spans from master, threads and
    worker processes share one timeline.
    """

    name: str
    cat: str
    worker: int
    start_ns: int
    end_ns: int
    role: Optional[str] = None
    tid: Optional[int] = None  # task id
    kind: Optional[str] = None  # primitive kind value
    phase: Optional[str] = None  # collect / distribute
    clique: Optional[int] = None
    edge: Optional[Tuple[int, int]] = None
    table_bytes: Optional[int] = None
    flops: Optional[float] = None
    chunk: Optional[Tuple[int, int]] = None  # (lo, hi) slice
    pid: Optional[int] = None  # OS pid (process executor workers)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return (self.end_ns - self.start_ns) * 1e-9

    def args(self) -> Dict[str, object]:
        """Non-empty tags, as they appear in the Chrome-trace ``args``."""
        out: Dict[str, object] = {}
        for key in (
            "role",
            "tid",
            "kind",
            "phase",
            "clique",
            "edge",
            "table_bytes",
            "flops",
            "chunk",
            "pid",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass
class TaskMeta:
    """Static description of one task, embedded in saved traces.

    Carries enough structure (sizes, kind, dependencies) to rebuild the
    :class:`~repro.tasks.task.TaskGraph` from a trace file alone, which is
    what lets ``repro trace report`` replay a saved trace through the
    :mod:`repro.simcore` cost model without the original network.
    """

    tid: int
    kind: str
    phase: str
    edge: Tuple[int, int]
    clique: int
    input_size: int
    output_size: int
    flops: float
    deps: List[int] = field(default_factory=list)

    @property
    def table_bytes(self) -> int:
        return (self.input_size + self.output_size) * _FLOAT_BYTES

    def to_dict(self) -> Dict[str, object]:
        return {
            "tid": self.tid,
            "kind": self.kind,
            "phase": self.phase,
            "edge": list(self.edge),
            "clique": self.clique,
            "input_size": self.input_size,
            "output_size": self.output_size,
            "flops": self.flops,
            "deps": list(self.deps),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TaskMeta":
        return cls(
            tid=int(data["tid"]),
            kind=str(data["kind"]),
            phase=str(data["phase"]),
            edge=tuple(data["edge"]),
            clique=int(data["clique"]),
            input_size=int(data["input_size"]),
            output_size=int(data["output_size"]),
            flops=float(data["flops"]),
            deps=[int(d) for d in data.get("deps", [])],
        )

    @classmethod
    def from_task(cls, task, deps: List[int]) -> "TaskMeta":
        return cls(
            tid=task.tid,
            kind=task.kind.value,
            phase=task.phase,
            edge=tuple(task.edge),
            clique=task.clique,
            input_size=task.input_size,
            output_size=task.output_size,
            flops=task.weight,
            deps=list(deps),
        )

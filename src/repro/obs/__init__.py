"""repro.obs — tracing, metrics, and profiling for executors and simulator.

The observability subsystem: a low-overhead span tracer every executor can
carry (:class:`Tracer`), the finished run record (:class:`PropagationTrace`),
a Chrome-trace/Perfetto exporter with an ASCII Gantt fallback, a metrics
layer (:func:`compute_metrics`) and the simcore calibration report
(:func:`calibrate`).  See ``docs/observability.md`` for the span taxonomy
and the overhead budget.
"""

from repro.obs.calibrate import (
    CalibrationReport,
    calibrate,
    rebuild_task_graph,
)
from repro.obs.export import (
    ascii_gantt,
    chrome_trace,
    load_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    PrimitiveMetrics,
    TraceMetrics,
    compute_metrics,
    observed_critical_path,
)
from repro.obs.span import (
    CAT_EXECUTE,
    CAT_FAULT,
    CAT_IPC,
    CAT_LOCK,
    CAT_SCHED,
    CATEGORIES,
    CONTROL_ROW,
    IPC_ROW,
    ROLE_CHUNK,
    ROLE_COMBINE,
    ROLE_INLINE,
    ROLE_TASK,
    Span,
    TaskMeta,
)
from repro.obs.trace import PropagationTrace
from repro.obs.tracer import (
    DEFAULT_SLOW_LOCK_NS,
    LOCK_GL,
    LOCK_LL,
    SpanBuffer,
    TimedLock,
    Tracer,
)

__all__ = [
    "CalibrationReport",
    "calibrate",
    "rebuild_task_graph",
    "ascii_gantt",
    "chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "PrimitiveMetrics",
    "TraceMetrics",
    "compute_metrics",
    "observed_critical_path",
    "CAT_EXECUTE",
    "CAT_FAULT",
    "CAT_IPC",
    "CAT_LOCK",
    "CAT_SCHED",
    "CATEGORIES",
    "CONTROL_ROW",
    "IPC_ROW",
    "ROLE_CHUNK",
    "ROLE_COMBINE",
    "ROLE_INLINE",
    "ROLE_TASK",
    "Span",
    "TaskMeta",
    "PropagationTrace",
    "DEFAULT_SLOW_LOCK_NS",
    "LOCK_GL",
    "LOCK_LL",
    "SpanBuffer",
    "TimedLock",
    "Tracer",
]

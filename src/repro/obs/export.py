"""Trace exchange formats: Chrome Trace Event JSON and ASCII Gantt.

The JSON exporter emits the Chrome Trace Event Format (the subset Perfetto
and ``chrome://tracing`` load): ``X`` complete events for spans, ``b``/``e``
async events for the process executor's overlapping dispatch round-trips,
``C`` counter events for queue-depth samples, and ``M`` metadata events
naming the timeline rows.  A ``repro`` top-level object carries everything
needed to reload the trace losslessly — executor name, task metadata
(including the dependency structure, so a saved file is enough to replay
the run through :mod:`repro.simcore`), lock-wait totals and counters.

:func:`validate_chrome_trace` is the checker the CI trace-smoke job runs:
every event must carry the required ``ph``/``ts``/``pid``/``tid``/``name``
keys and every ``X`` event a non-negative ``dur``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.span import CAT_IPC, Span, TaskMeta
from repro.obs.trace import PropagationTrace

# All spans share one Chrome "process"; real OS pids live in span args.
_CHROME_PID = 1

REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")


def _chrome_tid(worker: int) -> int:
    """Map a worker row to a Chrome thread id (virtual rows after 10000)."""
    return worker if worker >= 0 else 10_000 - worker


def chrome_trace(trace: PropagationTrace) -> dict:
    """Lower a :class:`PropagationTrace` to a Chrome-trace JSON object."""
    events: List[dict] = []
    rows: Dict[int, int] = {}

    events.append(
        {
            "ph": "M",
            "ts": 0,
            "pid": _CHROME_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"repro:{trace.executor or 'propagation'}"},
        }
    )
    for worker in trace.workers():
        tid = _chrome_tid(worker)
        rows[tid] = worker
        events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": _CHROME_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": trace.row_label(worker)},
            }
        )

    async_id = 0
    for span in trace.spans:
        tid = _chrome_tid(span.worker)
        rows.setdefault(tid, span.worker)
        ts_us = span.start_ns / 1000.0
        if span.cat == CAT_IPC:
            # Dispatch round-trips overlap on one row; async begin/end
            # pairs render as a proper async track in Perfetto.
            async_id += 1
            base = {
                "cat": span.cat,
                "id": async_id,
                "pid": _CHROME_PID,
                "tid": tid,
                "name": span.name,
            }
            events.append({**base, "ph": "b", "ts": ts_us, "args": span.args()})
            events.append({**base, "ph": "e", "ts": span.end_ns / 1000.0})
            continue
        if span.duration_ns == 0:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": span.cat,
                    "ts": ts_us,
                    "pid": _CHROME_PID,
                    "tid": tid,
                    "name": span.name,
                    "args": span.args(),
                }
            )
            continue
        events.append(
            {
                "ph": "X",
                "cat": span.cat,
                "ts": ts_us,
                "dur": span.duration_ns / 1000.0,
                "pid": _CHROME_PID,
                "tid": tid,
                "name": span.name,
                "args": span.args(),
            }
        )

    for worker, ts_ns, depth in trace.queue_samples:
        tid = _chrome_tid(worker)
        rows.setdefault(tid, worker)
        events.append(
            {
                "ph": "C",
                "ts": ts_ns / 1000.0,
                "pid": _CHROME_PID,
                "tid": tid,
                "name": f"queue depth ({trace.row_label(worker)})",
                "args": {"depth": depth},
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {
            "version": 1,
            "executor": trace.executor,
            "num_workers": trace.num_workers,
            "wall_ns": trace.wall_ns,
            "lock_wait_ns": dict(trace.lock_wait_ns),
            "counters": dict(trace.counters),
            "row_names": {str(w): n for w, n in trace.row_names.items()},
            "rows": {str(tid): worker for tid, worker in rows.items()},
            "tasks": [t.to_dict() for t in trace.tasks],
            "meta": dict(trace.meta),
        },
    }


def write_chrome_trace(trace: PropagationTrace, path) -> dict:
    """Serialize to ``path``; returns the exported object."""
    obj = chrome_trace(trace)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return obj


# --------------------------------------------------------------------- #
# Validation (the CI smoke contract)
# --------------------------------------------------------------------- #


def validate_chrome_trace(obj: Union[dict, str]) -> Dict[str, int]:
    """Check Chrome Trace Event Format invariants; raise ``ValueError``.

    Accepts a parsed object or a path.  Returns summary counts
    (``events``, ``spans``, ``counters``, ``rows``) on success.
    """
    if isinstance(obj, (str, bytes)) or hasattr(obj, "__fspath__"):
        with open(obj) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("trace must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents")
    problems: List[str] = []
    spans = counters = 0
    rows = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in event]
        if missing:
            problems.append(f"event {i} missing keys {missing}")
            continue
        rows.add((event["pid"], event["tid"]))
        ph = event["ph"]
        if ph == "X":
            spans += 1
            if "dur" not in event:
                problems.append(f"X event {i} has no dur")
            elif event["dur"] < 0:
                problems.append(f"X event {i} has negative dur")
            if event["ts"] < 0:
                problems.append(f"X event {i} has negative ts")
        elif ph == "C":
            counters += 1
            if "args" not in event:
                problems.append(f"C event {i} has no args")
        elif ph in ("b", "e"):
            if "id" not in event:
                problems.append(f"async event {i} has no id")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    if problems:
        raise ValueError(
            "invalid Chrome trace: " + "; ".join(problems)
        )
    return {
        "events": len(events),
        "spans": spans,
        "counters": counters,
        "rows": len(rows),
    }


# --------------------------------------------------------------------- #
# Loading (for ``repro trace report`` on a saved file)
# --------------------------------------------------------------------- #


def load_chrome_trace(path) -> PropagationTrace:
    """Rebuild a :class:`PropagationTrace` from an exported JSON file."""
    with open(path) as fh:
        obj = json.load(fh)
    validate_chrome_trace(obj)
    repro = obj.get("repro", {})
    rows = {int(tid): worker for tid, worker in repro.get("rows", {}).items()}

    def worker_of(event) -> int:
        return rows.get(event["tid"], event["tid"])

    spans: List[Span] = []
    samples: List[Tuple[int, int, int]] = []
    open_async: Dict[object, dict] = {}
    for event in obj["traceEvents"]:
        ph = event["ph"]
        if ph == "M":
            continue
        if ph == "C":
            samples.append(
                (
                    worker_of(event),
                    int(event["ts"] * 1000),
                    int(event.get("args", {}).get("depth", 0)),
                )
            )
            continue
        if ph == "b":
            open_async[event.get("id")] = event
            continue
        if ph == "e":
            begin = open_async.pop(event.get("id"), None)
            if begin is None:
                continue
            spans.append(
                _span_from_event(
                    begin,
                    worker_of(begin),
                    end_ns=int(event["ts"] * 1000),
                )
            )
            continue
        if ph in ("X", "i"):
            start_ns = int(event["ts"] * 1000)
            end_ns = start_ns + int(event.get("dur", 0) * 1000)
            spans.append(_span_from_event(event, worker_of(event), end_ns))
    spans.sort(key=lambda s: (s.start_ns, s.worker))
    return PropagationTrace(
        executor=repro.get("executor", ""),
        num_workers=int(repro.get("num_workers", 1)),
        wall_ns=int(repro.get("wall_ns", 0)),
        spans=spans,
        queue_samples=samples,
        lock_wait_ns={
            k: int(v) for k, v in repro.get("lock_wait_ns", {}).items()
        },
        counters=dict(repro.get("counters", {})),
        tasks=[TaskMeta.from_dict(t) for t in repro.get("tasks", [])],
        row_names={
            int(w): n for w, n in repro.get("row_names", {}).items()
        },
        meta=dict(repro.get("meta", {})),
    )


def _span_from_event(event: dict, worker: int, end_ns: int) -> Span:
    args = event.get("args", {}) or {}

    def pair(key):
        value = args.get(key)
        return tuple(value) if value is not None else None

    return Span(
        name=event["name"],
        cat=event.get("cat", ""),
        worker=worker,
        start_ns=int(event["ts"] * 1000),
        end_ns=end_ns,
        role=args.get("role"),
        tid=args.get("tid"),
        kind=args.get("kind"),
        phase=args.get("phase"),
        clique=args.get("clique"),
        edge=pair("edge"),
        table_bytes=args.get("table_bytes"),
        flops=args.get("flops"),
        chunk=pair("chunk"),
        pid=args.get("pid"),
    )


# --------------------------------------------------------------------- #
# ASCII Gantt
# --------------------------------------------------------------------- #


def ascii_gantt(trace: PropagationTrace, width: int = 72) -> List[str]:
    """Render execute spans as one ``|####|`` row per worker timeline.

    ``#`` marks execute time, ``.`` marks scheduling/lock/ipc spans, so a
    terminal user sees load balance and scheduler share at a glance —
    the textual version of Fig. 8.
    """
    span_ns = max((s.end_ns for s in trace.spans), default=0)
    if span_ns <= 0:
        return ["(empty trace)"]
    rows: List[str] = []
    label_width = max(
        (len(trace.row_label(w)) for w in trace.workers()), default=0
    )
    for worker in trace.workers():
        cells = [" "] * width
        for span in trace.spans:
            if span.worker != worker or span.duration_ns == 0:
                continue
            lo = int(span.start_ns / span_ns * (width - 1))
            hi = max(int(span.end_ns / span_ns * (width - 1)), lo)
            mark = "#" if span.cat == "execute" else "."
            for i in range(lo, hi + 1):
                if mark == "#" or cells[i] == " ":
                    cells[i] = mark
        label = trace.row_label(worker).rjust(label_width)
        rows.append(f"{label}: |{''.join(cells)}|")
    rows.append(
        f"{' ' * label_width}  0{'-' * (width - 10)}"
        f"{span_ns * 1e-6:>7.2f}ms"
    )
    return rows


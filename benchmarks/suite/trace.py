"""Outside-in span tracer: wraps the layers' public entry points.

Nothing under ``src/`` knows about this file.  ``install`` resolves each
trace point by dotted name at run time, swaps in a recording wrapper and
remembers how to undo it; a name that no longer resolves is reported as
a *missing point* (its metrics read null) instead of failing the run, so
the suite survives the refactors the ROADMAP plans.

A span is ``(id, name, start_ns, end_ns, parent, op, note, thread)``.
The traced replay runs one op at a time, so the op id is a recorder-wide
value and spans on service worker threads pick it up without any
context being passed through the system.

Self time.  Within one op every instant of wall-clock is attributed to
the span that started last among those active at that instant.  On one
thread that is exactly "duration minus the part covered by child
spans"; across threads (a client blocked in ``serve.wait`` while a
worker propagates, two pool threads running primitives at once) it
still hands each instant to exactly one span, so self times sum to the
op's wall time and never beyond it.
"""

import functools
import heapq
import importlib
import inspect
import itertools
import sys
import threading
import time

# (dotted target, span name, note).  Targets prefer the top-level
# ``repro`` exports, which outlive module moves.  ``note`` picks what the
# wrapper stores with the span: table sizes for the primitives, task
# counts for executors and propagate.
TRACE_POINTS = [
    ("repro.potential.primitives:marginalize", "potential.marginalize", "read1"),
    ("repro.potential.primitives:divide", "potential.divide", "read2"),
    ("repro.potential.primitives:extend", "potential.extend", "read1"),
    ("repro.potential.primitives:multiply", "potential.multiply", "read2"),
    ("repro:build_task_graph", "tasks.build_graph", None),
    ("repro.tasks.state:PropagationState.__init__", "tasks.state_init", None),
    ("repro.tasks.state:PropagationState.incremental", "tasks.state_incremental", None),
    ("repro.inference.incremental:plan_incremental", "inference.plan", None),
    ("repro:InferenceEngine.propagate", "inference.propagate", "full_tasks"),
    ("repro:InferenceEngine.query", "inference.query", None),
    ("repro:InferenceEngine.marginals_all", "inference.marginals_all", None),
    ("repro:SerialExecutor.run", "sched.serial.run", "graph_tasks"),
    ("repro:CollaborativeExecutor.run", "sched.collaborative.run", "graph_tasks"),
    ("repro:WorkStealingExecutor.run", "sched.workstealing.run", "graph_tasks"),
    ("repro:ProcessSharedMemoryExecutor.run", "sched.process.run", "graph_tasks"),
    ("repro:LevelParallelExecutor.run", "sched.level.run", "graph_tasks"),
    ("repro:DataParallelExecutor.run", "sched.data.run", "graph_tasks"),
    ("repro:junction_tree_from_network", "jt.build", None),
    ("repro:reroot_optimally", "jt.reroot", None),
    ("repro:ModelRegistry.acquire", "registry.acquire", None),
    ("repro.streaming:FilteringSession.tick", "streaming.tick", None),
    ("repro.streaming:FilteringSession.posteriors", "streaming.posteriors", None),
    ("repro:TickJournal.append_tick", "durability.append_tick", None),
    ("repro:TickJournal.append_ack", "durability.append_ack", None),
    ("repro:TickJournal.rotate", "durability.rotate", None),
]

# Counted, not timed: too cheap and too frequent to carry a span.
COUNT_POINTS = [
    ("repro:QueryCache.get_marginal", "inference.cache_lookup"),
]


def resolve(target):
    """``(owner, attribute)`` for ``"module:dotted.attr"``, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.getattr_static(owner, parts[-1], None) is None:
        return None
    return owner, parts[-1]


def lookup(target):
    """The object a dotted target names, or None when it is gone."""
    found = resolve(target)
    return getattr(found[0], found[1]) if found else None


def _size(table):
    return table.values.size


# What a wrapper keeps with its span, read off the call's arguments and
# result: entries read and written for the primitives, task counts for
# executors (``run(self, graph, state)``) and ``propagate(self)``.
_NOTES = {
    "read1": lambda args, result: (_size(args[0]), _size(result)),
    "read2": lambda args, result: (
        _size(args[0]) + _size(args[1]), _size(result)
    ),
    "graph_tasks": lambda args, result: args[1].num_tasks,
    "full_tasks": lambda args, result: args[0].task_graph.num_tasks,
}


class Recorder:
    """In-memory span store; written out once, when the benchmark ends."""

    FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "note",
              "thread")

    def __init__(self):
        self.op = None
        self.missing = []   # (target, span name) of points that are gone
        self.counts = {}
        self.child_cost_ns = 0.0  # see span_cost_ns; measured at install
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []  # (thread id, rows) per recording thread
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ---------------------------------------------------- #

    def _thread(self):
        local = self._local
        local.stack = []
        local.rows = []
        with self._lock:
            self._buffers.append((threading.get_ident(), local.rows))
        return local

    def _wrap(self, fn, name, note=None):
        """``fn`` with one span recorded around every call.

        The hot path is written out flat: on prop-small a traced op
        records ~1300 spans, and every microsecond here is a
        microsecond of ``budget.span_overhead_share``.
        """
        take = _NOTES.get(note)
        local, ids, clock = self._local, self._ids, time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = recorder._thread().stack
            row = [next(ids), name, 0, 0, stack[-1][0] if stack else -1,
                   recorder.op, None]
            stack.append(row)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
                local.rows.append(row)
            if take is not None:
                try:
                    row[6] = take(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # signature moved: the span stays, the note is lost
            return result

        return traced

    def span(self, name, fn):
        """``fn`` recorded as ``name``: the client-side spans (op, serve.*)."""
        return self._wrap(fn, name)

    def spans(self):
        """Every finished span as a dict, ordered by start."""
        with self._lock:
            rows = [
                row + [thread]
                for thread, buffer in self._buffers for row in buffer
            ]
        rows.sort(key=lambda row: row[2])
        return [dict(zip(self.FIELDS, row)) for row in rows]

    # -- installing --------------------------------------------------- #

    def _count(self, fn, name):
        counts = self.counts
        counts[name] = [0, 0]  # calls, calls that returned something

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            pair = counts[name]
            pair[0] += 1
            if result is not None:
                pair[1] += 1
            return result

        return counted

    def _swap(self, target, name, make):
        found = resolve(target)
        if found is None:
            self.missing.append((target, name))
            return
        owner, attr = found
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            original, replacement = raw, classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            original, replacement = raw, staticmethod(make(raw.__func__))
        else:
            original, replacement = raw, make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))
        if inspect.isfunction(raw) and not inspect.isclass(owner):
            # ``from module import fn`` copied the binding into other
            # modules' globals; rebind every copy inside the package.
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module is owner or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, replacement)
                        self._undo.append((module, key, raw))

    def install(self):
        self.child_cost_ns = span_cost_ns()
        for target, name, note in TRACE_POINTS:
            self._swap(target, name, lambda fn: self._wrap(fn, name, note))
        for target, name in COUNT_POINTS:
            self._swap(target, name, lambda fn: self._count(fn, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def self_times(spans):
    """Self nanoseconds per span id for the spans of ONE op.

    Sweep over span boundaries; each elementary interval goes to the
    active span with the latest start (ties: the later id, i.e. the
    inner one).  Zero-length and not-yet-active spans get zero.
    """
    events = []
    for span in spans:
        events.append((span["start_ns"], 1, span["id"], span))
        events.append((span["end_ns"], 0, span["id"], span))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    result = {span["id"]: 0 for span in spans}
    active = []  # max-heap on (start, id) with lazy deletion
    closed = set()
    previous = None
    for at, opening, span_id, span in events:
        while active and active[0][2] in closed:
            heapq.heappop(active)
        if active and previous is not None and at > previous:
            result[active[0][2]] += at - previous
        previous = at
        if opening:
            heapq.heappush(active, (-span["start_ns"], -span_id, span_id))
        else:
            closed.add(span_id)
    return result


def by_op(spans):
    """Group spans by op id (spans outside any op are dropped)."""
    ops = {}
    for span in spans:
        if span["op"] is not None:
            ops.setdefault(span["op"], []).append(span)
    return ops


def span_cost_ns(repeat=20000):
    """Nanoseconds one recorded span costs the span that *encloses* it.

    A wrapper's bookkeeping before its start stamp and after its end
    stamp is billed to whatever span is open around the call; with a
    thousand primitive calls per op that would pass for scheduler self
    time.  Measured here on a no-op with the primitives' kind of note,
    subtracted per child in :func:`summarize`.
    """
    import types

    import numpy as np

    stub = types.SimpleNamespace(values=np.zeros(4))

    def noop(a, b):
        return a

    scratch = Recorder()
    wrapped = scratch._wrap(noop, "calibrate", "read2")
    start = time.perf_counter_ns()
    for _ in range(repeat):
        wrapped(stub, stub)
    per_call = (time.perf_counter_ns() - start) / repeat
    inside = sorted(
        row["end_ns"] - row["start_ns"] for row in scratch.spans()
    )[repeat // 2]
    return max(per_call - inside, 0.0)


def summarize(spans, child_cost_ns=0.0):
    """Per span name over all ops: calls, inclusive and self nanoseconds.

    Returns ``(table, ops, op_wall_ns)`` where ``table[name]`` has
    ``calls``, ``total_ns`` and ``self_ns`` summed over every traced op.
    Self time is taken inside the op's own ``op`` span: work a service
    thread does for an op after answering it is on the next op's clock.
    ``child_cost_ns`` per recorded child moves from its parent's self
    time to the ``trace.overhead`` row, so the rows still sum to the op.
    """
    table = {}
    op_wall = 0
    ops = by_op(spans)

    def add(name, calls, total, own):
        row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += calls
        row["total_ns"] += total
        row["self_ns"] += own

    for op_spans in ops.values():
        root = next((s for s in op_spans if s["name"] == "op"), None)
        if root is not None:
            lo, hi = root["start_ns"], root["end_ns"]
            op_wall += hi - lo
            op_spans = [
                s if lo <= s["start_ns"] and s["end_ns"] <= hi
                else dict(s, start_ns=min(max(s["start_ns"], lo), hi),
                          end_ns=min(max(s["end_ns"], lo), hi))
                for s in op_spans
            ]
        own = self_times(op_spans)
        moved = 0.0
        for span in op_spans:
            parent = span["parent"]
            if parent in own:
                cost = min(child_cost_ns, own[parent])
                own[parent] -= cost
                moved += cost
        for span in op_spans:
            add(span["name"], 1, span["end_ns"] - span["start_ns"],
                own[span["id"]])
        if moved:
            add("trace.overhead", 0, 0, moved)
    return table, len(ops), op_wall

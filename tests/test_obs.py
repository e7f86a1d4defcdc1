"""Tests for the observability subsystem (repro.obs).

Covers the tracer hot path, executor instrumentation (traced runs stay
numerically identical to untraced ones and cover >= 95% of measured busy
time), the Chrome-trace export/validate/load round-trip, derived
metrics, and the simcore calibration report.
"""

import json
import threading

import numpy as np
import pytest

from repro.inference.engine import InferenceEngine
from repro.inference.propagation import propagate_reference
from repro.jt.generation import synthetic_tree
from repro.obs import (
    CAT_EXECUTE,
    PropagationTrace,
    Span,
    Tracer,
    TimedLock,
    ascii_gantt,
    chrome_trace,
    observed_critical_path,
    validate_chrome_trace,
)
from repro.sched import CollaborativeExecutor, WorkStealingExecutor
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.resilient import ResilientExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


def _workload(num_cliques=24, clique_width=6, seed=11):
    tree = synthetic_tree(
        num_cliques, clique_width=clique_width, states=2, avg_children=3,
        seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree, build_task_graph(tree)


def _complete_event_count(trace):
    """Spans the exporter renders as Chrome ``X`` (complete) events."""
    return sum(
        1 for s in trace.spans if s.duration_ns > 0 and s.cat != "ipc"
    )


def _traced_run(executor, tree, graph):
    tracer = Tracer()
    state = PropagationState(tree)
    stats = executor.run(graph, state, tracer=tracer)
    trace = tracer.finalize(
        graph=graph, stats=stats, executor=type(executor).__name__
    )
    return trace, stats, state


# --------------------------------------------------------------------- #
# Tracer primitives
# --------------------------------------------------------------------- #


class TestTracer:
    def test_buffer_is_singleton_per_worker(self):
        tracer = Tracer()
        assert tracer.buffer(3) is tracer.buffer(3)
        assert tracer.buffer(3) is not tracer.buffer(4)

    def test_bind_sets_thread_current(self):
        tracer = Tracer()
        buf = tracer.bind(1)
        assert tracer.current() is buf

    def test_unbound_thread_charges_control_row(self):
        tracer = Tracer()
        seen = {}

        def probe():
            seen["worker"] = tracer.current().worker

        t = threading.Thread(target=probe)
        t.start()
        t.join()
        assert seen["worker"] == -1  # CONTROL_ROW

    def test_finalize_without_graph_keeps_untagged_spans(self):
        tracer = Tracer()
        buf = tracer.bind(0)
        t0 = tracer.origin_ns
        buf.task_span("task", 5, t0 + 100, t0 + 300)
        trace = tracer.finalize()
        (span,) = trace.spans
        assert span.tid == 5
        assert span.duration_ns == 200
        assert span.kind is None

    def test_slow_lock_threshold_gates_individual_spans(self):
        tracer = Tracer(slow_lock_ns=1_000)
        buf = tracer.bind(0)
        buf.lock_wait("GL", 500)      # below threshold: counter only
        buf.lock_wait("GL", 5_000)    # above: counter + span
        trace = tracer.finalize()
        assert trace.lock_wait_ns["GL"] == 5_500
        lock_spans = [s for s in trace.spans if s.cat == "lock"]
        assert len(lock_spans) == 1


class TestTimedLock:
    def test_mutual_exclusion_and_wait_accounting(self):
        tracer = Tracer(slow_lock_ns=1)
        tracer.bind(0)
        lock = TimedLock(tracer, "GL")
        hits = []

        with lock:
            t = threading.Thread(
                target=lambda: (tracer.bind(1), lock.acquire(),
                                hits.append(1), lock.release())
            )
            t.start()
            t.join(timeout=0.05)
            assert not hits  # blocked while held
        t.join()
        assert hits == [1]
        # The contended acquire was charged to the waiter's buffer.
        assert tracer.buffer(1).lock_wait_ns.get("GL", 0) > 0

    def test_uncontended_acquire_records_nothing(self):
        tracer = Tracer()
        tracer.bind(0)
        lock = TimedLock(tracer, "LL")
        with lock:
            pass
        assert tracer.buffer(0).lock_wait_ns == {}


# --------------------------------------------------------------------- #
# Executor instrumentation
# --------------------------------------------------------------------- #


EXECUTORS = [
    ("serial", lambda: SerialExecutor()),
    (
        "collaborative",
        lambda: CollaborativeExecutor(num_threads=2, partition_threshold=256),
    ),
    (
        "workstealing",
        lambda: WorkStealingExecutor(num_threads=2, partition_threshold=256),
    ),
]


class TestTracedExecutors:
    @pytest.mark.parametrize("name,make", EXECUTORS)
    def test_traced_matches_untraced_and_covers_busy(self, name, make):
        tree, graph = _workload()
        ref = PropagationState(tree)
        make().run(graph, ref)

        trace, stats, state = _traced_run(make(), tree, graph)
        for i in range(tree.num_cliques):
            np.testing.assert_allclose(
                state.potentials[i].values,
                ref.potentials[i].values,
                rtol=1e-9,
                atol=1e-12,
            )
        assert stats.tasks_executed == graph.num_tasks
        assert trace.coverage(stats) >= 0.95
        assert trace.executor == type(make()).__name__
        # Every execute span is tagged from the graph.
        for span in trace.execute_spans():
            assert span.tid >= 0
            assert span.kind or span.role in ("combine", "inline")

    def test_traced_collaborative_records_lock_categories(self):
        tree, graph = _workload()
        trace, _, _ = _traced_run(
            CollaborativeExecutor(num_threads=2, partition_threshold=256),
            tree,
            graph,
        )
        assert "GL" in trace.lock_wait_ns or "LL" in trace.lock_wait_ns or (
            # Uncontended runs may record no waits at all — the categories
            # appear only when a lock actually blocked.
            trace.lock_wait_ns == {}
        )
        assert trace.queue_samples  # fetch-time queue-depth samples

    def test_traced_workstealing_counts_steals(self):
        tree, graph = _workload(num_cliques=32)
        trace, _, _ = _traced_run(
            WorkStealingExecutor(num_threads=2, partition_threshold=256),
            tree,
            graph,
        )
        # steals counter exists when any steal happened; spans always do.
        assert trace.execute_spans()
        assert all(s.start_ns >= 0 for s in trace.spans)

    # The schedule invariants, read off the tracer's execute spans; the
    # partitioned runs cover chunk and combine spans too.
    @pytest.mark.parametrize("delta", [None, 4], ids=["whole", "chunked"])
    @pytest.mark.parametrize(
        "executor_cls",
        [CollaborativeExecutor, WorkStealingExecutor],
        ids=["collaborative", "workstealing"],
    )
    def test_spans_form_valid_schedule(self, executor_cls, delta):
        tree, graph = _workload(num_cliques=16, clique_width=4, seed=91)
        trace, stats, _ = _traced_run(
            executor_cls(num_threads=4, partition_threshold=delta), tree, graph
        )
        spans = trace.execute_spans()
        assert (stats.tasks_partitioned > 0) == (delta is not None)

        # Every task appears: exactly once whole, or as chunks + a combiner.
        by_task = {}
        for span in spans:
            by_task.setdefault(span.tid, []).append(span.role)
        assert set(by_task) == set(range(graph.num_tasks))
        for roles in by_task.values():
            assert roles == ["task"] or (
                roles.count("combine") == 1 and roles.count("chunk") >= 2
                and roles.count("task") == 0
            )

        # A task starts only after every dependency has ended.
        first_start = {
            tid: min(s.start_ns for s in spans if s.tid == tid)
            for tid in by_task
        }
        last_end = {
            tid: max(s.end_ns for s in spans if s.tid == tid)
            for tid in by_task
        }
        for tid, deps in enumerate(graph.deps):
            for dep in deps:
                assert first_start[tid] >= last_end[dep], (tid, dep)

        # No two spans overlap on one worker row.
        for worker in {s.worker for s in spans}:
            row = sorted(
                (s for s in spans if s.worker == worker),
                key=lambda s: s.start_ns,
            )
            for before, after in zip(row, row[1:]):
                assert before.end_ns <= after.start_ns

    def test_untraced_run_unchanged(self):
        tree, graph = _workload()
        stats = SerialExecutor().run(graph, PropagationState(tree))
        assert stats.tasks_executed == graph.num_tasks

    def test_resilient_executor_forwards_tracer(self):
        tree, graph = _workload()
        trace, stats, _ = _traced_run(
            ResilientExecutor(SerialExecutor()), tree, graph
        )
        assert trace.coverage(stats) >= 0.95


class TestTracedProcessExecutor:
    def test_process_trace_merges_worker_rows(self):
        tree, graph = _workload(num_cliques=16, clique_width=8)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, partition_threshold=4096, inline_threshold=64
        )
        ref = propagate_reference(tree, {})
        trace, stats, state = _traced_run(executor, tree, graph)
        for i in range(tree.num_cliques):
            np.testing.assert_allclose(
                state.potentials[i].values, ref[i].values, rtol=1e-9
            )
        assert trace.coverage(stats) >= 0.95
        # Worker spans carry the executing process pid and land on the
        # dispatched slots' rows; dispatch round-trips land on the ipc row.
        dispatched = [
            s for s in trace.execute_spans() if s.role != "inline"
        ]
        assert dispatched
        assert all(s.pid is not None for s in dispatched)
        assert any(s.cat == "ipc" for s in trace.spans)
        assert trace.counters.get("dispatches", 0) >= len(dispatched) / 2

    def test_acceptance_256_clique_tree(self):
        # ISSUE acceptance: traced 256-clique process run -> valid Chrome
        # JSON whose spans cover >= 95% of per-worker busy time.
        tree, graph = _workload(num_cliques=256, clique_width=5, seed=3)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, partition_threshold=4096, inline_threshold=32
        )
        trace, stats, _ = _traced_run(executor, tree, graph)
        assert trace.coverage(stats) >= 0.95
        counts = validate_chrome_trace(trace.to_chrome())
        # X events = spans with duration on worker rows; IPC round-trips
        # export as b/e async pairs and zero-length markers as instants.
        assert counts["spans"] == _complete_event_count(trace)


# --------------------------------------------------------------------- #
# Export / validate / load round-trip
# --------------------------------------------------------------------- #


class TestChromeExport:
    @pytest.fixture(scope="class")
    def traced(self):
        tree, graph = _workload()
        return _traced_run(
            CollaborativeExecutor(num_threads=2, partition_threshold=256),
            tree,
            graph,
        )

    def test_events_carry_required_keys(self, traced):
        trace, _, _ = traced
        doc = chrome_trace(trace)
        assert doc["displayTimeUnit"] == "ms"
        for event in doc["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event, event

    def test_validate_counts(self, traced):
        trace, _, _ = traced
        counts = validate_chrome_trace(trace.to_chrome())
        assert counts["spans"] == _complete_event_count(trace)
        assert counts["rows"] >= len(trace.workers())

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "ts": 1, "pid": 1}]}
            )

    def test_validate_rejects_negative_duration(self):
        bad = {
            "traceEvents": [
                {
                    "ph": "X", "ts": 5, "dur": -2, "pid": 1, "tid": 0,
                    "name": "t",
                }
            ]
        }
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)

    def test_save_load_roundtrip(self, traced, tmp_path):
        trace, _, _ = traced
        path = tmp_path / "trace.json"
        trace.save(path)
        validate_chrome_trace(path)
        loaded = PropagationTrace.load(path)
        assert loaded.executor == trace.executor
        assert loaded.num_workers == trace.num_workers
        assert loaded.num_spans == trace.num_spans
        assert len(loaded.tasks) == len(trace.tasks)
        assert loaded.lock_wait_ns == trace.lock_wait_ns
        # Execute spans survive with their tags (timestamps to µs).
        orig = sorted(
            (s.tid, s.role, s.kind) for s in trace.execute_spans()
        )
        back = sorted(
            (s.tid, s.role, s.kind) for s in loaded.execute_spans()
        )
        assert orig == back
        # Derived products work from the loaded file alone.
        assert sum(loaded.metrics().busy_seconds.values()) > 0
        assert loaded.calibrate().predicted_makespan > 0

    def test_ascii_gantt_rows(self, traced):
        trace, _, _ = traced
        rows = ascii_gantt(trace, width=40)
        assert any("#" in row for row in rows)
        assert len(rows) >= len(trace.workers())


# --------------------------------------------------------------------- #
# Metrics and calibration
# --------------------------------------------------------------------- #


class TestMetrics:
    @pytest.fixture(scope="class")
    def traced(self):
        tree, graph = _workload(num_cliques=32, clique_width=7)
        return _traced_run(
            CollaborativeExecutor(num_threads=2, partition_threshold=1024),
            tree,
            graph,
        )

    def test_per_primitive_accounting(self, traced):
        trace, stats, _ = traced
        m = trace.metrics()
        assert set(m.per_primitive) >= {
            "marginalize", "divide", "extend", "multiply",
        }
        assert m.total_execute_seconds == pytest.approx(
            sum(trace.busy_ns().values()) * 1e-9
        )
        assert m.total_flops > 0
        assert m.wall_seconds == pytest.approx(trace.wall_seconds)
        assert 0 < m.parallel_efficiency <= 1.0

    def test_observed_critical_path_bounds(self, traced):
        trace, _, _ = traced
        cp_seconds, cp_tasks = observed_critical_path(trace)
        assert cp_tasks
        durations = {}
        for s in trace.execute_spans():
            durations[s.tid] = durations.get(s.tid, 0) + s.duration_ns
        # Critical path is at least the heaviest task, at most the sum.
        assert cp_seconds >= max(durations.values()) * 1e-9 * 0.999
        assert cp_seconds <= sum(durations.values()) * 1e-9 * 1.001
        # It is a real dependency chain.
        deps = {t.tid: set(t.deps) for t in trace.tasks}
        for a, b in zip(cp_tasks, cp_tasks[1:]):
            assert a in deps[b]

    def test_format_renders(self, traced):
        trace, _, _ = traced
        text = trace.metrics().format()
        assert "wall time" in text
        assert "per primitive" in text


class TestCalibration:
    def test_report_structure(self):
        tree, graph = _workload(num_cliques=32, clique_width=7)
        trace, stats, _ = _traced_run(
            CollaborativeExecutor(num_threads=2, partition_threshold=1024),
            tree,
            graph,
        )
        report = trace.calibrate()
        assert report.num_workers == 2
        assert report.fitted_flops_per_second > 0
        assert report.predicted_makespan > 0
        assert report.measured_makespan == pytest.approx(trace.wall_seconds)
        text = report.format()
        assert "measured" in text and "predicted" in text
        assert f"{report.makespan_error * 100:+.1f}%" in text

    def test_calibrate_without_tasks_raises(self):
        with pytest.raises(ValueError):
            PropagationTrace(spans=[Span("x", CAT_EXECUTE, 0, 0, 10)]).calibrate()


# --------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------- #


class TestEngineTracing:
    def test_propagate_trace_true_records(self):
        tree, _ = _workload(num_cliques=12)
        engine = InferenceEngine(tree, reroot=False)
        engine.propagate(trace=True)
        assert engine.last_trace is not None
        assert engine.last_trace.executor == "SerialExecutor"
        assert engine.last_trace.coverage(engine.last_stats) >= 0.95

    def test_propagate_trace_path_writes_json(self, tmp_path):
        tree, _ = _workload(num_cliques=12)
        engine = InferenceEngine(tree, reroot=False)
        path = tmp_path / "engine_trace.json"
        engine.propagate(trace=str(path))
        counts = validate_chrome_trace(path)
        assert counts["spans"] > 0
        data = json.loads(path.read_text())
        assert data["repro"]["executor"] == "SerialExecutor"

    def test_propagate_accepts_prepared_tracer(self):
        tree, _ = _workload(num_cliques=12)
        engine = InferenceEngine(tree, reroot=False)
        tracer = Tracer(slow_lock_ns=50_000)
        engine.propagate(trace=tracer)
        assert engine.last_trace.num_spans > 0

    def test_untraced_propagate_leaves_no_trace(self):
        tree, _ = _workload(num_cliques=12)
        engine = InferenceEngine(tree, reroot=False)
        engine.propagate()
        assert engine.last_trace is None

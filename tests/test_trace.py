"""Tests for simulated-schedule traces."""

import pytest

from repro.jt.generation import synthetic_tree
from repro.simcore.policies import CollaborativePolicy, WorkStealingPolicy
from repro.simcore.profiles import XEON
from repro.simcore.trace import Trace, TraceEvent
from repro.tasks.dag import build_task_graph


class TestTraceBasics:
    def test_event_duration(self):
        e = TraceEvent(0, 1, 2.0, 5.0)
        assert e.duration == 3.0

    def test_add_and_group(self):
        trace = Trace(2)
        trace.add(0, 0, 0.0, 1.0)
        trace.add(1, 1, 0.5, 2.0)
        trace.add(2, 0, 1.0, 3.0)
        by_core = trace.per_core()
        assert [e.node for e in by_core[0]] == [0, 2]
        assert [e.node for e in by_core[1]] == [1]

    def test_negative_duration_rejected(self):
        trace = Trace(1)
        with pytest.raises(ValueError, match="ends before"):
            trace.add(0, 0, 2.0, 1.0)

    def test_bad_core_rejected(self):
        trace = Trace(1)
        with pytest.raises(ValueError, match="out of range"):
            trace.add(0, 5, 0.0, 1.0)

    def test_makespan_and_times(self):
        trace = Trace(2)
        trace.add(0, 0, 0.0, 2.0)
        trace.add(1, 1, 0.0, 1.0)
        assert trace.makespan() == 2.0
        assert trace.busy_time(0) == 2.0
        assert trace.idle_time(1) == 1.0

    def test_overlap_detection(self):
        trace = Trace(1)
        trace.add(0, 0, 0.0, 2.0)
        trace.add(1, 0, 1.0, 3.0)
        with pytest.raises(ValueError, match="starts at"):
            trace.check_no_overlap()

    def test_dependency_violation_detection(self):
        trace = Trace(2)
        trace.add(0, 0, 1.0, 2.0)
        trace.add(1, 1, 0.0, 0.5)  # starts before node 0 finishes
        with pytest.raises(ValueError, match="before"):
            trace.check_dependencies([[], [0]])

    def test_gantt_rows_render(self):
        trace = Trace(2)
        trace.add(0, 0, 0.0, 1.0)
        trace.add(1, 1, 0.5, 1.0)
        rows = trace.gantt_rows(width=20)
        assert len(rows) == 2
        assert all(row.startswith("core") for row in rows)

    def test_empty_trace_gantt(self):
        assert Trace(1).gantt_rows() == ["(empty trace)"]


class TestPolicyTracing:
    def test_collaborative_trace_is_valid_schedule(self):
        tree = synthetic_tree(20, clique_width=5, seed=42)
        graph = build_task_graph(tree)
        for policy in (CollaborativePolicy(), WorkStealingPolicy()):
            result = policy.simulate(graph, XEON, 4, record_trace=True)
            trace = result.trace
            assert trace is not None, policy.name
            trace.check_no_overlap()
            trace.check_dependencies(result.sim_graph.deps)
            assert len(trace.events) == result.sim_graph.num_nodes

    def test_trace_makespan_matches_result(self):
        tree = synthetic_tree(15, clique_width=4, seed=43)
        graph = build_task_graph(tree)
        result = CollaborativePolicy().simulate(
            graph, XEON, 2, record_trace=True
        )
        assert result.trace.makespan() == pytest.approx(result.makespan)

    def test_no_trace_by_default(self):
        tree = synthetic_tree(10, clique_width=3, seed=44)
        graph = build_task_graph(tree)
        result = CollaborativePolicy().simulate(graph, XEON, 2)
        assert result.trace is None

"""The straight-line run: task graphs compiled into step lists.

A step list is a graph's tasks in topological order, each compiled to a
kind code, operand and output slot indices and its pipeline's plan.  The
serial executor walks it (a tree's own full graph, untraced, runs as
waves instead: ``tests/test_waves.py``); every other executor runs the
same per-step body one task at a time through
``PropagationState.execute``.  So both
paths — and every executor that runs whole tasks — must leave the same
bytes in every table, on the suite's two propagation shapes, for the
full graph and for a cached restricted graph.  The deadline check and
the tracer's task spans ride in the same loop.
"""

import itertools
import re

import numpy as np
import pytest

from repro.inference.engine import InferenceEngine
from repro.inference.incremental import distribute_edges_for, plan_incremental
from repro.jt.generation import synthetic_tree
from repro.potential.primitives import PrimitiveKind
from repro.sched import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
    ProcessSharedMemoryExecutor,
    SerialExecutor,
    WorkStealingExecutor,
)
from repro.sched.faults import TaskExecutionError
from repro.tasks import state as state_module
from repro.tasks.dag import build_task_graph
from repro.tasks.layout import table_layout
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT, TaskGraph

# (N, w_C, r, k) of the suite's prop-small and prop-large workloads.
SHAPES = {"prop-small": (128, 5, 2, 4), "prop-large": (16, 16, 2, 2)}

# The six executors of test_differential_executors.py, each running whole
# tasks (no partitioning; the data-parallel split never goes below one
# chunk per task), so each must match the straight-line run bit for bit.
WHOLE_TASK_EXECUTORS = [
    ("serial", SerialExecutor),
    ("collaborative", lambda: CollaborativeExecutor(num_threads=2)),
    ("level-parallel", lambda: LevelParallelExecutor(num_threads=2)),
    ("data-parallel", lambda: DataParallelExecutor(
        num_threads=2, min_chunk=1 << 30)),
    ("work-stealing", lambda: WorkStealingExecutor(num_threads=2)),
    ("process", lambda: ProcessSharedMemoryExecutor(
        num_workers=2, inline_threshold=0)),
]


def _shape_tree(name, seed=3):
    n, width, states, children = SHAPES[name]
    tree = synthetic_tree(
        num_cliques=n, clique_width=width, states=states,
        avg_children=children, width_jitter=0, seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree


def _evidence(tree, count=3, seed=0):
    rng = np.random.default_rng(seed)
    variables = sorted({v for c in tree.cliques for v in c.variables})
    chosen = rng.choice(variables, size=count, replace=False)
    return {int(v): int(rng.integers(2)) for v in chosen}


def _per_task(graph, state):
    for tid in graph.topological_order():
        state.execute(graph.tasks[tid])


def _assert_bitwise(a, b, label):
    """Every table either state counts as written holds the same bytes."""
    assert set(a._inter) == set(b._inter), label
    for mine, theirs in (
        (a.potentials, b.potentials),
        (a.separators, b.separators),
        (a._inter, b._inter),
    ):
        for key, table in mine.items():
            assert np.array_equal(table.values, theirs[key].values), (
                f"{label}: table {key} differs"
            )


def _restricted(tree, prev):
    """A cached restricted graph and what an incremental state for it
    needs: one new finding in the deepest leaf, distributed back to that
    leaf only (a targeted query's graph)."""
    leaf = max(tree.leaves(), key=tree.depth_of)
    var = next(
        v for v in tree.cliques[leaf].variables if v not in prev.evidence
    )
    evidence = {**prev.evidence, var: 1}
    plan = plan_incremental(tree, prev, evidence, {})
    stale = set(range(tree.num_cliques)) - {tree.root}
    distribute = distribute_edges_for(tree, stale, {leaf})
    cache = table_layout(tree).graphs
    cache.get(tree, plan.collect_edges, distribute)
    graph = cache.get(tree, plan.collect_edges, distribute)
    assert cache.get(tree, plan.collect_edges, distribute) is graph  # kept
    return graph, evidence, sorted(plan.rebuild)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_straight_line_equals_per_task_execute(shape):
    tree = _shape_tree(shape)
    evidence = _evidence(tree)
    graph = build_task_graph(tree)

    line = PropagationState(tree, evidence)
    SerialExecutor().run(graph, line)
    tasks = PropagationState(tree, evidence)
    _per_task(graph, tasks)
    _assert_bitwise(line, tasks, f"{shape} full graph")
    assert len(line._inter) == len(table_layout(tree).inter)

    restricted, moved, rebuild = _restricted(tree, line)
    assert 0 < restricted.num_tasks < graph.num_tasks
    again = PropagationState.incremental(line, moved, rebuild=rebuild)
    SerialExecutor().run(restricted, again)
    by_task = PropagationState.incremental(line, moved, rebuild=rebuild)
    _per_task(restricted, by_task)
    _assert_bitwise(again, by_task, f"{shape} restricted graph")


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_whole_task_executor_matches_the_straight_line(shape):
    tree = _shape_tree(shape, seed=5)
    evidence = _evidence(tree, seed=1)
    graph = build_task_graph(tree)
    reference = PropagationState(tree, evidence)
    SerialExecutor().run(graph, reference)
    restricted, moved, rebuild = _restricted(tree, reference)
    restricted_reference = PropagationState.incremental(
        reference, moved, rebuild=rebuild
    )
    SerialExecutor().run(restricted, restricted_reference)
    for label, make in WHOLE_TASK_EXECUTORS:
        executor = make()
        state = PropagationState(tree, evidence)
        executor.run(graph, state)
        _assert_bitwise(reference, state, f"{shape} {label} full graph")
        del state
        state = PropagationState.incremental(reference, moved, rebuild=rebuild)
        executor.run(restricted, state)
        _assert_bitwise(
            restricted_reference, state, f"{shape} {label} restricted graph"
        )
        del state


class TestStepLists:
    def test_a_graph_compiles_once_per_layout_and_add_task_drops_it(self):
        tree = _shape_tree("prop-small")
        layout = table_layout(tree)
        graph = build_task_graph(tree)
        steps = layout.step_list(graph)
        assert layout.step_list(graph) is steps
        assert steps.tids == graph.topological_order()
        assert len(steps.steps) == graph.num_tasks
        # The memo names its layout: another tree's layout compiles anew.
        other = table_layout(_shape_tree("prop-small"))
        assert other.step_list(graph) is not steps
        task = graph.tasks[steps.tids[0]]
        graph.add_task(
            PrimitiveKind.MARGINALIZE, COLLECT, task.edge, task.clique,
            task.input_size, task.output_size,
        )
        rebuilt = layout.step_list(graph)
        assert rebuilt is not steps and len(rebuilt.steps) == graph.num_tasks

    def test_steps_name_the_slots_the_layout_placed(self):
        tree = _shape_tree("prop-small")
        layout = table_layout(tree)
        graph = build_task_graph(tree)
        listed = layout.step_list(graph)
        for tid, step in zip(listed.tids, listed.steps):
            task = graph.tasks[tid]
            out = layout.slots[step.out]
            if task.kind is PrimitiveKind.MULTIPLY:
                assert step.written is None and step.out == task.clique
            else:
                assert layout.slots[layout.inter_at[step.written]] == out
                assert step.written[:2] == (task.phase, task.edge)

    def test_a_task_over_an_edge_the_tree_lacks_is_refused(self):
        tree = _shape_tree("prop-small")
        graph = TaskGraph()
        far = tree.num_cliques + 1
        graph.add_task(
            PrimitiveKind.MARGINALIZE, COLLECT, (far, far + 1), far, 1, 1
        )
        with pytest.raises(ValueError, match="not tasks of this layout"):
            SerialExecutor().run(graph, PropagationState(tree))
        with pytest.raises(ValueError, match="not a task of this state"):
            PropagationState(tree).execute(graph.tasks[0])


class TestOneLoop:
    def _expire(self, monkeypatch, trace, checks):
        """A prop-small engine whose next full propagation meets its
        deadline after ``checks`` deadline checks (a clock that ticks
        once per check); returns the error's message, after asserting
        that the engine kept its state, bit for bit."""
        tree = _shape_tree("prop-small")
        engine = InferenceEngine(tree)
        engine.set_evidence(_evidence(tree))
        before = engine.propagate(incremental=False)
        snapshot = before.buffer.copy()
        engine.set_evidence(_evidence(tree, seed=9))
        ticks = itertools.count()
        monkeypatch.setattr(state_module, "monotonic", lambda: next(ticks))
        with pytest.raises(TaskExecutionError) as excinfo:
            engine.propagate(
                incremental=False, trace=trace, deadline=checks - 0.5
            )
        assert excinfo.value.phase == "deadline"
        assert engine._state is before
        assert np.array_equal(before.buffer, snapshot)
        return engine, str(excinfo.value)

    def test_deadline_expiring_mid_list_leaves_the_engine_state(
        self, monkeypatch
    ):
        # Untraced, the full graph runs as waves and the deadline is
        # checked once per wave: it lands between the 30th and the 31st.
        engine, message = self._expire(monkeypatch, trace=None, checks=30)
        waves = table_layout(engine.jt).wave_list(engine.task_graph)
        assert len(waves.units) > 31
        run = sum(map(len, waves.tids[:30]))
        total = engine.task_graph.num_tasks
        assert 30 < run < total
        assert re.fullmatch(
            rf"serial propagation exceeded its deadline with {total - run} "
            rf"of {total} tasks unexecuted",
            message,
        )

    def test_deadline_expiring_mid_step_list_leaves_the_engine_state(
        self, monkeypatch
    ):
        # A traced run walks the step list, one check per step: the
        # deadline lands between the 300th and the 301st step.
        engine, message = self._expire(monkeypatch, trace=True, checks=300)
        total = engine.task_graph.num_tasks
        assert re.fullmatch(
            rf"serial propagation exceeded its deadline with {total - 300} "
            rf"of {total} tasks unexecuted",
            message,
        )

    @pytest.mark.parametrize("incremental", [False, True])
    def test_a_traced_run_records_one_task_span_per_step(self, incremental):
        tree = _shape_tree("prop-small")
        engine = InferenceEngine(tree)
        evidence = _evidence(tree)
        engine.set_evidence(evidence)
        if incremental:
            # One more finding: a restricted graph from the graph cache.
            engine.propagate()
            leaf = max(engine.jt.leaves(), key=engine.jt.depth_of)
            var = next(
                v for v in engine.jt.cliques[leaf].variables
                if v not in evidence
            )
            engine.observe(var, 0)
        engine.propagate(trace=True, incremental=incremental)
        stats = engine.last_stats
        assert bool(stats.incremental) is incremental
        tasks = engine.task_graph.num_tasks - (stats.tasks_skipped or 0)
        assert 0 < tasks
        spans = engine.last_trace.execute_spans()
        assert len(spans) == tasks == stats.tasks_executed
        assert sorted(s.tid for s in spans) == list(range(tasks))

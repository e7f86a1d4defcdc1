"""PropagationState: task execution must reproduce the reference results."""

import numpy as np
import pytest

from repro.inference.propagation import propagate_reference
from repro.jt.generation import synthetic_tree
from repro.potential.partition import chunk_ranges
from repro.potential.primitives import PrimitiveKind
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


@pytest.fixture
def tree():
    t = synthetic_tree(12, clique_width=3, states=2, avg_children=2, seed=21)
    t.initialize_potentials(np.random.default_rng(21))
    return t


class TestStateSetup:
    def test_requires_potentials(self):
        bare = synthetic_tree(5, clique_width=3, seed=0)
        with pytest.raises(ValueError, match="potentials"):
            PropagationState(bare)

    def test_copies_potentials(self, tree):
        state = PropagationState(tree)
        state.potentials[0].values[:] = 0
        assert not np.all(tree.potential(0).values == 0)

    def test_evidence_absorbed_at_setup(self, tree):
        var = tree.cliques[3].variables[0]
        state = PropagationState(tree, {var: 1})
        host = 3
        reduced = tree.potential(host).reduce({var: 1})
        assert np.allclose(state.potentials[host].values, reduced.values)

    def test_separators_start_as_identity(self, tree):
        state = PropagationState(tree)
        for table in state.separators.values():
            assert np.all(table.values == 1.0)


class TestSerialExecution:
    def test_matches_reference_propagation(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        reference = propagate_reference(tree)
        for i in range(tree.num_cliques):
            assert state.potentials[i].allclose(reference[i]), f"clique {i}"

    def test_matches_reference_with_evidence(self, tree):
        evidence = {tree.cliques[0].variables[0]: 1}
        graph = build_task_graph(tree)
        state = PropagationState(tree, evidence)
        SerialExecutor().run(graph, state)
        reference = propagate_reference(tree, evidence)
        for i in range(tree.num_cliques):
            assert state.potentials[i].allclose(reference[i])

    def test_calibration_consistency(self, tree):
        """After propagation, adjacent cliques agree on their separator."""
        from repro.potential.primitives import marginalize

        graph = build_task_graph(tree)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        for child in range(tree.num_cliques):
            parent = tree.parent[child]
            if parent is None:
                continue
            sep = tree.separator(child, parent)
            from_child = marginalize(state.potentials[child], sep)
            from_parent = marginalize(state.potentials[parent], sep)
            assert np.allclose(from_child.values, from_parent.values)

    def test_stats_reported(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        stats = SerialExecutor().run(graph, state)
        assert stats.num_threads == 1
        assert stats.tasks_executed == graph.num_tasks
        assert stats.wall_time > 0
        assert stats.compute_time[0] > 0


class TestCompiledPipelines:
    def test_plans_are_built_once_per_tree_and_shared_by_states(self, tree):
        from repro.tasks.layout import table_layout

        from repro.potential.primitives import PrimitiveKind

        first = PropagationState(tree)
        second = PropagationState(tree, {tree.cliques[0].variables[0]: 1})
        assert first._steps is second._steps
        layout = table_layout(tree)
        pipelines = layout.pipelines()
        assert layout.pipelines() is pipelines
        assert first._steps is layout.steps()
        graph = build_task_graph(tree)
        assert set(pipelines) == {(t.phase, t.edge) for t in graph.tasks}
        for key, pipe in pipelines.items():
            step = first._steps[key + (PrimitiveKind.MARGINALIZE,)]
            assert step.plan is pipe.marginalize
            assert step.source == pipe.source
        var = tree.variables()[0]
        host, _axis = tree.host(var)
        assert layout.answer(host, var) is layout.answer(host, var)


class TestChunkedExecution:
    def test_every_task_chunked_equals_whole(self, tree):
        """Run the whole graph, executing each task via chunks.

        EXTEND / MULTIPLY / DIVIDE chunks write disjoint slices of the same
        arithmetic, so fed the same inputs they are bitwise equal to the
        whole task; only partitioned MARGINALIZE adds in another order.
        """
        graph = build_task_graph(tree)
        whole_state = PropagationState(tree)
        chunk_state = PropagationState(tree)
        for tid in graph.topological_order():
            task = graph.tasks[tid]
            whole_state.execute(task)
            ranges = chunk_ranges(task.partition_size, 3)
            parts = [
                chunk_state.execute_chunk(task, lo, hi) for lo, hi in ranges
            ]
            chunk_state.combine_chunks(task, parts, ranges)
            if task.kind is PrimitiveKind.MARGINALIZE:
                key = (task.phase, task.edge, "sep_new")
                assert np.allclose(
                    whole_state._inter[key].values,
                    chunk_state._inter[key].values,
                    rtol=1e-12, atol=0,
                )
                # Same inputs downstream: isolate the concatenating
                # primitives from the marginalization round-off.
                chunk_state._inter[key].values[...] = (
                    whole_state._inter[key].values
                )
            else:
                assert np.array_equal(whole_state.buffer, chunk_state.buffer), (
                    f"chunked {task} is not bitwise equal to the whole task"
                )
        assert set(whole_state._inter) == set(chunk_state._inter)

    def test_combine_requires_matching_lengths(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        task = graph.tasks[graph.roots()[0]]
        with pytest.raises(ValueError, match="equal length"):
            state.combine_chunks(task, [np.zeros(2)], [(0, 1), (1, 2)])


class TestNoAlias:
    def test_failed_incremental_run_leaves_previous_state_untouched(self):
        """A new state never aliases the previous one's buffer: an executor
        that dies on the k-th task of an incremental run leaves the engine's
        state byte-identical, and the next query is still exact."""
        from repro.bn.generation import random_network
        from repro.inference.engine import InferenceEngine

        class DiesOnTask:
            def __init__(self, k):
                self.k = k

            def run(self, graph, state, **kw):
                for n, tid in enumerate(graph.topological_order()):
                    if n == self.k:
                        raise RuntimeError("executor died mid-run")
                    state.execute(graph.tasks[tid])

        bn = random_network(12, seed=4)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({0: 1})
        before = engine.propagate()
        snapshot = before.buffer.copy()
        engine.observe(7, 0)
        for k in (0, 3, 9):
            with pytest.raises(RuntimeError, match="died mid-run"):
                engine.propagate(executor=DiesOnTask(k))
            assert engine._state is before
            assert np.array_equal(before.buffer, snapshot)
        oracle = InferenceEngine.from_network(bn)
        oracle.set_evidence({0: 1, 7: 0})
        oracle.propagate()
        for var in range(12):
            assert np.allclose(
                engine.marginal(var), oracle.marginal(var),
                rtol=1e-9, atol=1e-12,
            )
        assert engine.last_stats.incremental


class TestQueries:
    def test_marginal_is_distribution(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        var = tree.cliques[5].variables[0]
        m = state.marginal(var)
        assert np.isclose(m.sum(), 1.0)
        assert np.all(m >= 0)

    def test_clique_marginal_normalized(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        cm = state.clique_marginal(2)
        assert np.isclose(cm.total(), 1.0)

    def test_likelihood_decreases_with_evidence(self, tree):
        graph = build_task_graph(tree)
        free = PropagationState(tree)
        SerialExecutor().run(graph, free)
        var = tree.cliques[0].variables[0]
        clamped = PropagationState(tree, {var: 0})
        SerialExecutor().run(graph, clamped)
        assert clamped.likelihood() <= free.likelihood() + 1e-12

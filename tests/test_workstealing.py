"""Work-stealing executor: equivalence and behaviour."""

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree
from repro.sched.serial import SerialExecutor
from repro.sched import WorkStealingExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


@pytest.fixture
def tree():
    t = synthetic_tree(18, clique_width=4, states=2, avg_children=3, seed=61)
    t.initialize_potentials(np.random.default_rng(61))
    return t


def _run(tree, executor, evidence=None):
    graph = build_task_graph(tree)
    state = PropagationState(tree, evidence)
    stats = executor.run(graph, state)
    return state, stats


class TestEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_matches_serial(self, tree, threads):
        serial, _ = _run(tree, SerialExecutor())
        stolen, _ = _run(tree, WorkStealingExecutor(num_threads=threads))
        for i in range(tree.num_cliques):
            assert np.allclose(
                serial.potentials[i].values, stolen.potentials[i].values
            )

    @pytest.mark.parametrize("delta", [2, 4])
    def test_partitioned_matches_serial(self, tree, delta):
        serial, _ = _run(tree, SerialExecutor())
        stolen, stats = _run(
            tree,
            WorkStealingExecutor(num_threads=4, partition_threshold=delta),
        )
        for i in range(tree.num_cliques):
            assert np.allclose(
                serial.potentials[i].values, stolen.potentials[i].values
            )
        assert stats.tasks_partitioned > 0

    def test_with_evidence(self, tree):
        var = tree.cliques[2].variables[0]
        serial, _ = _run(tree, SerialExecutor(), {var: 1})
        stolen, _ = _run(
            tree, WorkStealingExecutor(num_threads=3), {var: 1}
        )
        for i in range(tree.num_cliques):
            assert np.allclose(
                serial.potentials[i].values, stolen.potentials[i].values
            )


class TestBehaviour:
    def test_all_tasks_accounted(self, tree):
        graph = build_task_graph(tree)
        stats = WorkStealingExecutor(num_threads=4).run(
            graph, PropagationState(tree)
        )
        assert stats.tasks_executed == graph.num_tasks
        assert sum(stats.tasks_per_thread) == graph.num_tasks

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            WorkStealingExecutor(num_threads=0)
        with pytest.raises(ValueError):
            WorkStealingExecutor(partition_threshold=0)
        with pytest.raises(ValueError):
            WorkStealingExecutor(max_chunks=1)

    def test_exception_propagates(self, tree):
        graph = build_task_graph(tree)

        class Broken:
            def __getattr__(self, name):
                raise RuntimeError("broken state")

        with pytest.raises(RuntimeError, match="broken state"):
            WorkStealingExecutor(num_threads=2).run(graph, Broken())

    def test_single_thread_never_steals(self, tree):
        graph = build_task_graph(tree)
        stats = WorkStealingExecutor(num_threads=1).run(
            graph, PropagationState(tree)
        )
        assert stats.tasks_per_thread == [graph.num_tasks]

"""All executors must produce identical calibrated potentials."""

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree, template_tree
from repro.sched import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
)
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


def _run(tree, executor, evidence=None):
    graph = build_task_graph(tree)
    state = PropagationState(tree, evidence)
    stats = executor.run(graph, state)
    return state, stats


@pytest.fixture
def tree():
    t = synthetic_tree(16, clique_width=4, states=2, avg_children=3, seed=33)
    t.initialize_potentials(np.random.default_rng(33))
    return t


@pytest.fixture
def reference(tree):
    state, _ = _run(tree, SerialExecutor())
    return state


def _assert_same_potentials(tree, a, b):
    for i in range(tree.num_cliques):
        assert np.allclose(
            a.potentials[i].values, b.potentials[i].values
        ), f"clique {i} differs"


class TestCollaborativeEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_matches_serial(self, tree, reference, threads):
        state, _ = _run(tree, CollaborativeExecutor(num_threads=threads))
        _assert_same_potentials(tree, reference, state)

    @pytest.mark.parametrize("delta", [1, 4, 16, 64])
    def test_partitioning_preserves_results(self, tree, reference, delta):
        state, stats = _run(
            tree,
            CollaborativeExecutor(num_threads=4, partition_threshold=delta),
        )
        _assert_same_potentials(tree, reference, state)
        if delta <= 8:
            assert stats.tasks_partitioned > 0

    @pytest.mark.parametrize(
        "allocation", ["min-workload", "round-robin", "random"]
    )
    def test_allocation_heuristics_equivalent(self, tree, reference, allocation):
        state, _ = _run(
            tree, CollaborativeExecutor(num_threads=3, allocation=allocation)
        )
        _assert_same_potentials(tree, reference, state)

    @pytest.mark.parametrize("fetch", ["fifo", "largest-first"])
    def test_fetch_policies_equivalent(self, tree, reference, fetch):
        state, _ = _run(tree, CollaborativeExecutor(num_threads=3, fetch=fetch))
        _assert_same_potentials(tree, reference, state)

    def test_with_evidence(self, tree):
        var = tree.cliques[4].variables[1]
        serial, _ = _run(tree, SerialExecutor(), {var: 1})
        collab, _ = _run(
            tree,
            CollaborativeExecutor(num_threads=4, partition_threshold=4),
            {var: 1},
        )
        _assert_same_potentials(tree, serial, collab)

    def test_repeated_runs_are_deterministic(self, tree):
        a, _ = _run(tree, CollaborativeExecutor(num_threads=4))
        b, _ = _run(tree, CollaborativeExecutor(num_threads=4))
        _assert_same_potentials(tree, a, b)


class TestBaselineEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_level_parallel_matches_serial(self, tree, reference, threads):
        state, _ = _run(tree, LevelParallelExecutor(num_threads=threads))
        _assert_same_potentials(tree, reference, state)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_data_parallel_matches_serial(self, tree, reference, threads):
        state, _ = _run(tree, DataParallelExecutor(num_threads=threads))
        _assert_same_potentials(tree, reference, state)

    def test_template_tree_all_executors(self):
        tree = template_tree(2, num_cliques=25, clique_width=4)
        tree.initialize_potentials(np.random.default_rng(1))
        serial, _ = _run(tree, SerialExecutor())
        for executor in (
            CollaborativeExecutor(num_threads=4, partition_threshold=4),
            LevelParallelExecutor(num_threads=4),
            DataParallelExecutor(num_threads=4),
        ):
            state, _ = _run(tree, executor)
            _assert_same_potentials(tree, serial, state)


class TestExecutorValidation:
    def test_bad_thread_count_rejected(self):
        with pytest.raises(ValueError):
            CollaborativeExecutor(num_threads=0)
        with pytest.raises(ValueError):
            LevelParallelExecutor(num_threads=0)
        with pytest.raises(ValueError):
            DataParallelExecutor(num_threads=-1)

    def test_bad_partition_threshold_rejected(self):
        with pytest.raises(ValueError):
            CollaborativeExecutor(partition_threshold=0)

    def test_bad_allocation_rejected(self):
        with pytest.raises(ValueError, match="allocation"):
            CollaborativeExecutor(allocation="clairvoyant")

    def test_bad_fetch_rejected(self):
        with pytest.raises(ValueError, match="fetch"):
            CollaborativeExecutor(fetch="psychic")


class TestCollaborativeStats:
    def test_all_tasks_accounted(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        stats = CollaborativeExecutor(num_threads=4).run(graph, state)
        assert stats.tasks_executed == graph.num_tasks
        assert sum(stats.tasks_per_thread) == graph.num_tasks

    def test_partition_stats(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        stats = CollaborativeExecutor(
            num_threads=4, partition_threshold=4
        ).run(graph, state)
        assert stats.tasks_partitioned > 0
        assert stats.chunks_executed > stats.tasks_partitioned

    def test_worker_exception_propagates(self, tree):
        graph = build_task_graph(tree)

        class Broken:
            def __getattr__(self, name):
                raise RuntimeError("broken state")

        with pytest.raises(RuntimeError, match="broken state"):
            CollaborativeExecutor(num_threads=2).run(graph, Broken())

    def test_sched_ratio_between_zero_and_one(self, tree):
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        stats = CollaborativeExecutor(num_threads=2).run(graph, state)
        assert 0.0 <= stats.sched_ratio() <= 1.0
        assert stats.load_imbalance() >= 1.0

"""Scheduler stress: high thread counts on a 200+ clique tree.

Runs CollaborativeExecutor and WorkStealingExecutor with 8–16 threads on a
large junction tree under a hard timeout, asserting the paper's liveness
and accounting invariants: no deadlock, no dropped tasks, and numerically
stable results across repeated runs.
"""

import threading

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree
from repro.sched import CollaborativeExecutor, WorkStealingExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState

TIMEOUT_SECONDS = 120.0
REPETITIONS = 5


@pytest.fixture(scope="module")
def big_workload():
    tree = synthetic_tree(
        220, clique_width=3, states=2, avg_children=3, seed=555
    )
    tree.initialize_potentials(np.random.default_rng(555))
    graph = build_task_graph(tree)
    reference = PropagationState(tree)
    SerialExecutor().run(graph, reference)
    return tree, graph, reference


def _run_with_deadline(executor, graph, state):
    """Run on a watchdog thread; a hang fails the test instead of the job."""
    result = {}

    def target():
        try:
            result["stats"] = executor.run(graph, state)
        except BaseException as exc:  # surfaced below
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT_SECONDS)
    assert not thread.is_alive(), (
        f"{type(executor).__name__} deadlocked: still running after "
        f"{TIMEOUT_SECONDS}s on {graph.num_tasks} tasks"
    )
    if "error" in result:
        raise result["error"]
    return result["stats"]


def _executor_matrix():
    for threads in (8, 12, 16):
        yield CollaborativeExecutor(
            num_threads=threads, partition_threshold=8
        )
        yield WorkStealingExecutor(
            num_threads=threads, partition_threshold=8
        )


@pytest.mark.parametrize(
    "executor",
    list(_executor_matrix()),
    ids=lambda e: f"{type(e).__name__}-{e.num_threads}t",
)
def test_no_deadlock_no_dropped_tasks(big_workload, executor):
    tree, graph, reference = big_workload
    state = PropagationState(tree)
    stats = _run_with_deadline(executor, graph, state)
    # Task-count accounting: every task executed exactly once, each
    # attributed to exactly one thread.
    assert stats.tasks_executed == graph.num_tasks
    assert sum(stats.tasks_per_thread) == graph.num_tasks
    for i in range(tree.num_cliques):
        assert np.allclose(
            reference.potentials[i].values, state.potentials[i].values
        ), f"clique {i} diverges at {executor.num_threads} threads"


@pytest.mark.parametrize(
    "make_executor",
    [
        lambda: CollaborativeExecutor(num_threads=16, partition_threshold=8),
        lambda: WorkStealingExecutor(num_threads=16, partition_threshold=8),
    ],
    ids=["collaborative-16t", "workstealing-16t"],
)
def test_results_stable_across_repeated_runs(big_workload, make_executor):
    """5 repetitions at 16 threads: identical accounting, stable beliefs."""
    tree, graph, reference = big_workload
    for rep in range(REPETITIONS):
        state = PropagationState(tree)
        stats = _run_with_deadline(make_executor(), graph, state)
        assert stats.tasks_executed == graph.num_tasks, f"rep {rep}"
        assert sum(stats.tasks_per_thread) == graph.num_tasks, f"rep {rep}"
        for i in range(tree.num_cliques):
            assert np.allclose(
                reference.potentials[i].values,
                state.potentials[i].values,
                rtol=1e-9,
                atol=1e-12,
            ), f"rep {rep}: clique {i} diverges"

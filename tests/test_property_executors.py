"""Property-based executor equivalence on random trees and evidence.

The core safety property of the whole scheduling layer: *any* executor,
with *any* thread count and partitioning threshold, run on *any* valid
junction tree with *any* evidence, produces exactly the serial reference
potentials.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.propagation import propagate_reference
from repro.jt.generation import synthetic_tree
from repro.sched import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
    WorkStealingExecutor,
)
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


@st.composite
def workloads(draw):
    """A random potential-initialized tree plus random evidence."""
    seed = draw(st.integers(min_value=0, max_value=999))
    num_cliques = draw(st.integers(min_value=2, max_value=14))
    width = draw(st.integers(min_value=2, max_value=4))
    states = draw(st.integers(min_value=2, max_value=3))
    children = draw(st.integers(min_value=1, max_value=3))
    tree = synthetic_tree(
        num_cliques,
        clique_width=width,
        states=states,
        avg_children=children,
        seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    all_vars = sorted(
        {v for c in tree.cliques for v in c.variables}
    )
    evidence = {}
    num_obs = draw(st.integers(min_value=0, max_value=2))
    for _ in range(num_obs):
        var = draw(st.sampled_from(all_vars))
        evidence[var] = draw(st.integers(min_value=0, max_value=states - 1))
    return tree, evidence


@st.composite
def executor_configs(draw):
    kind = draw(
        st.sampled_from(
            ["collaborative", "workstealing", "level", "dataparallel"]
        )
    )
    threads = draw(st.integers(min_value=1, max_value=6))
    delta = draw(st.sampled_from([None, 2, 8, 64]))
    if kind == "collaborative":
        allocation = draw(
            st.sampled_from(["min-workload", "round-robin", "random"])
        )
        return CollaborativeExecutor(
            num_threads=threads,
            partition_threshold=delta,
            allocation=allocation,
        )
    if kind == "workstealing":
        return WorkStealingExecutor(
            num_threads=threads, partition_threshold=delta
        )
    if kind == "level":
        return LevelParallelExecutor(num_threads=threads)
    return DataParallelExecutor(num_threads=threads)


@given(workloads(), executor_configs())
@settings(max_examples=40, deadline=None)
def test_any_executor_matches_reference(workload, executor):
    tree, evidence = workload
    reference = propagate_reference(tree, evidence)
    graph = build_task_graph(tree)
    state = PropagationState(tree, evidence)
    executor.run(graph, state)
    for i in range(tree.num_cliques):
        assert state.potentials[i].allclose(
            reference[i]
        ), f"clique {i} diverged under {type(executor).__name__}"


@given(workloads())
@settings(max_examples=30, deadline=None)
def test_propagation_calibrates_any_tree(workload):
    from repro.jt.calibration import check_calibrated

    tree, evidence = workload
    potentials = propagate_reference(tree, evidence)
    check_calibrated(tree, potentials, rtol=1e-7, atol=1e-9)


@given(workloads())
@settings(max_examples=30, deadline=None)
def test_rerooting_preserves_propagation_results(workload):
    from repro.jt.rerooting import reroot_optimally

    tree, evidence = workload
    original = propagate_reference(tree, evidence)
    rerooted, _, _ = reroot_optimally(tree)
    again = propagate_reference(rerooted, evidence)
    for i in range(tree.num_cliques):
        assert original[i].allclose(again[i])

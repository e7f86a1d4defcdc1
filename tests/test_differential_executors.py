"""Differential equivalence harness across ALL six executors.

Generates a battery of randomized junction trees (varying clique count,
width, state count, branching, evidence) and asserts that every executor —
Serial, Collaborative, LevelParallel, DataParallel, WorkStealing, and the
shared-memory Process executor — produces beliefs within 1e-9 of each
other, and (for trees built from Bayesian networks) of variable
elimination, an independent inference algorithm sharing no propagation
code.
"""

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.inference.variable_elimination import ve_query
from repro.jt.generation import synthetic_tree
from repro.sched import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
    ProcessSharedMemoryExecutor,
    SerialExecutor,
    WorkStealingExecutor,
)
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState

RTOL = 1e-9
ATOL = 1e-12

# The five parallel executors, each with partitioning exercised.  Worker
# counts stay small so the whole battery is cheap; correctness must not
# depend on them.
PARALLEL_EXECUTORS = [
    ("collaborative", lambda: CollaborativeExecutor(num_threads=3, partition_threshold=16)),
    ("level-parallel", lambda: LevelParallelExecutor(num_threads=3)),
    ("data-parallel", lambda: DataParallelExecutor(num_threads=3)),
    ("work-stealing", lambda: WorkStealingExecutor(num_threads=3, partition_threshold=16)),
    ("process", lambda: ProcessSharedMemoryExecutor(num_workers=2, partition_threshold=16, inline_threshold=4)),
]

# (seed, num_cliques, width, states, avg_children, num_evidence) — 14
# synthetic-tree scenarios spanning chains, bushy trees, ternary variables,
# and varying evidence set sizes, then one of w = 12 cliques whose whole-task
# MARGINALIZE takes the wide-table reduction (``primitives.WIDE_TABLE``)
# while its chunks take the chunk kernel.
TREE_SCENARIOS = [
    (0, 2, 2, 2, 1, 0),
    (1, 4, 3, 2, 1, 1),
    (2, 6, 2, 3, 2, 0),
    (3, 8, 4, 2, 2, 2),
    (4, 10, 3, 2, 3, 1),
    (5, 12, 4, 2, 1, 0),
    (6, 14, 2, 3, 2, 3),
    (7, 16, 4, 2, 3, 2),
    (8, 18, 3, 3, 2, 1),
    (9, 20, 4, 2, 4, 0),
    (10, 22, 3, 2, 2, 4),
    (11, 24, 4, 2, 3, 2),
    (12, 9, 5, 2, 2, 1),
    (13, 7, 3, 4, 2, 1),
    (14, 4, 12, 2, 2, 2),
]

# (seed, num_variables, cardinality, num_evidence) — randomized Bayesian
# networks for the variable-elimination cross-check.
NETWORK_SCENARIOS = [
    (20, 6, 2, 0),
    (21, 8, 2, 1),
    (22, 9, 2, 2),
    (23, 7, 3, 1),
    (24, 10, 2, 2),
    (25, 8, 3, 0),
]


def _tree_workload(seed, num_cliques, width, states, children, num_evidence):
    tree = synthetic_tree(
        num_cliques,
        clique_width=width,
        states=states,
        avg_children=children,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    tree.initialize_potentials(rng)
    variables = sorted(
        {v for c in tree.cliques for v in c.variables}
    )
    evidence = {}
    for var in rng.choice(variables, size=min(num_evidence, len(variables)), replace=False):
        var = int(var)
        card = next(
            c.card_of(var) for c in tree.cliques if var in c.variables
        )
        evidence[var] = int(rng.integers(card))
    return tree, build_task_graph(tree), evidence


def _assert_states_close(tree, ref, other, label):
    for i in range(tree.num_cliques):
        assert np.allclose(
            ref.potentials[i].values,
            other.potentials[i].values,
            rtol=RTOL,
            atol=ATOL,
        ), f"{label}: clique {i} diverges"
    assert np.allclose(
        ref.likelihood(), other.likelihood(), rtol=RTOL, atol=ATOL
    ), f"{label}: likelihood diverges"


ALL_EXECUTORS = [("serial", SerialExecutor)] + PARALLEL_EXECUTORS


@pytest.mark.parametrize(
    "seed,num_cliques,width,states,children,num_evidence", TREE_SCENARIOS
)
def test_all_executors_agree_on_randomized_trees(
    seed, num_cliques, width, states, children, num_evidence
):
    tree, graph, evidence = _tree_workload(
        seed, num_cliques, width, states, children, num_evidence
    )
    reference = PropagationState(tree, evidence)
    SerialExecutor().run(graph, reference)
    for label, make in PARALLEL_EXECUTORS:
        state = PropagationState(tree, evidence)
        stats = make().run(graph, state)
        assert stats.tasks_executed == graph.num_tasks, label
        _assert_states_close(tree, reference, state, f"{label} seed={seed}")


def test_wide_table_reduction_runs_whole_under_every_executor():
    """The w = 12 tree with partitioning off: every executor that runs
    whole tasks reduces its wide tables through the same plan, and lands
    on the chunked runs of the battery above."""
    from repro.tasks.layout import table_layout

    tree, graph, evidence = _tree_workload(*TREE_SCENARIOS[-1])
    plans = table_layout(tree).pipelines().values()
    assert any(p.marginalize.subscripts is not None for p in plans)
    chunked = PropagationState(tree, evidence)
    CollaborativeExecutor(num_threads=3, partition_threshold=16).run(
        graph, chunked
    )
    for label, make in [
        ("serial", SerialExecutor),
        ("collaborative", lambda: CollaborativeExecutor(num_threads=3)),
        ("level-parallel", lambda: LevelParallelExecutor(num_threads=3)),
        ("work-stealing", lambda: WorkStealingExecutor(num_threads=3)),
        ("process", lambda: ProcessSharedMemoryExecutor(num_workers=2)),
    ]:
        state = PropagationState(tree, evidence)
        make().run(graph, state)
        _assert_states_close(tree, chunked, state, f"{label} whole tasks")


@pytest.mark.parametrize("seed,num_vars,card,num_evidence", NETWORK_SCENARIOS)
def test_executors_match_variable_elimination(seed, num_vars, card, num_evidence):
    """Propagation beliefs equal VE's, per executor, on BN-derived trees."""
    bn = random_network(
        num_vars,
        cardinality=card,
        max_parents=3,
        edge_probability=0.7,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    evidence_vars = rng.choice(num_vars, size=num_evidence, replace=False)
    evidence = {
        int(v): int(rng.integers(bn.cardinalities[int(v)])) for v in evidence_vars
    }
    targets = [v for v in range(num_vars) if v not in evidence]
    expected = {
        t: ve_query(bn, [t], evidence).values for t in targets
    }
    engine = InferenceEngine.from_network(bn)
    engine.set_evidence(evidence)
    for label, make in ALL_EXECUTORS:
        engine.set_evidence(evidence)  # invalidate previous propagation
        engine.propagate(make())
        for t in targets:
            assert np.allclose(
                engine.marginal(t), expected[t], rtol=RTOL, atol=ATOL
            ), f"{label} seed={seed}: P(X{t}) diverges from VE"


@pytest.mark.parametrize(
    "seed,num_cliques,width,states,children,num_evidence", TREE_SCENARIOS[3::3]
)
def test_restricted_graphs_agree_with_from_scratch_serial(
    seed, num_cliques, width, states, children, num_evidence
):
    """Propagate, move the findings on two variables, repropagate
    *incrementally* through each executor: the restricted graph over the
    copied state must land where a from-scratch serial run under the new
    findings lands.  (The two findings are new ones: overwriting a hard
    finding is a weakening delta, which the planner soundly refuses.)"""
    tree, _graph, evidence = _tree_workload(
        seed, num_cliques, width, states, children, num_evidence
    )
    variables = sorted({v for c in tree.cliques for v in c.variables})
    # The highest variable ids sit in the last-built (leaf-ward) cliques, so
    # their root-ward closure leaves most of the tree reusable.
    first, second = [v for v in variables if v not in evidence][-2:]
    scratch = InferenceEngine(tree)
    scratch.set_evidence({**evidence, first: 1, second: 0})
    reference = scratch.propagate()
    for label, make in ALL_EXECUTORS:
        engine = InferenceEngine(tree)
        engine.set_evidence(evidence)
        engine.propagate()
        engine.observe(first, 1).observe(second, 0)
        state = engine.propagate(executor=make())
        assert engine.last_stats.incremental, label
        assert engine.last_stats.tasks_skipped > 0, label
        _assert_states_close(
            engine.jt, reference, state, f"{label} seed={seed} restricted"
        )

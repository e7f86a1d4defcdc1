"""Property-based invariants of the multicore simulator on random DAGs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jt.generation import synthetic_tree
from repro.simcore.policies import CollaborativePolicy, SerialPolicy
from repro.simcore.profiles import OPTERON, XEON
from repro.simcore.simgraph import build_sim_graph
from repro.tasks.dag import build_task_graph


@st.composite
def task_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=500))
    num_cliques = draw(st.integers(min_value=2, max_value=20))
    width = draw(st.integers(min_value=2, max_value=8))
    children = draw(st.integers(min_value=1, max_value=4))
    tree = synthetic_tree(
        num_cliques,
        clique_width=width,
        states=2,
        avg_children=children,
        seed=seed,
    )
    return build_task_graph(tree)


@given(task_graphs(), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_makespan_respects_lower_bounds(graph, cores):
    pol = CollaborativePolicy()
    result = pol.simulate(graph, XEON, cores)
    sim = build_sim_graph(graph, pol.partition_threshold, pol.max_chunks)
    work = sum(XEON.duration(w, cores) for w in sim.weights)
    span = XEON.duration(sim.critical_path(), cores)
    assert result.makespan >= max(span, work / cores) * 0.999


@given(task_graphs(), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_compute_time_is_conserved(graph, cores):
    pol = CollaborativePolicy()
    result = pol.simulate(graph, XEON, cores)
    sim = build_sim_graph(graph, pol.partition_threshold, pol.max_chunks)
    work = sum(XEON.duration(w, cores) for w in sim.weights)
    assert np.isclose(result.total_compute(), work)


@given(task_graphs(), st.integers(min_value=2, max_value=8))
@settings(max_examples=30, deadline=None)
def test_traced_schedule_is_valid(graph, cores):
    result = CollaborativePolicy().simulate(
        graph, XEON, cores, record_trace=True
    )
    result.trace.check_no_overlap()
    result.trace.check_dependencies(result.sim_graph.deps)
    assert result.trace.makespan() <= result.makespan + 1e-12


@given(task_graphs(), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_greedy_is_work_conserving(graph, cores):
    """The greedy schedule never exceeds fully-serial execution at the
    same core count's per-task costs (cores can idle, never obstruct)."""
    pol = CollaborativePolicy()
    result = pol.simulate(graph, XEON, cores)
    sim = build_sim_graph(graph, pol.partition_threshold, pol.max_chunks)
    serial_work = sum(XEON.duration(w, cores) for w in sim.weights)
    overhead = sim.num_nodes * XEON.task_sched_overhead(cores)
    # Each task also passes once through the serialized global-list lock.
    lock_serial = sim.num_nodes * XEON.lock_cost if cores > 1 else 0.0
    assert result.makespan <= serial_work + overhead + lock_serial + 1e-12


@given(task_graphs())
@settings(max_examples=20, deadline=None)
def test_platform_consistency(graph):
    """A slower platform never finishes first under the same policy."""
    pol = SerialPolicy()
    fast = pol.simulate(graph, XEON)
    slow = pol.simulate(graph, OPTERON)
    assert slow.makespan >= fast.makespan

"""Level waves: a tree's full task graph, one numpy call per primitive
kind per level.

The serial executor runs the layout's full graph as waves
(``TableLayout.wave_list``): the small tasks of one level and one kind
gathered and scattered over flat index maps into the state buffer.  A
wave gives every entry the arithmetic its tasks' steps give it (the
small-table MARGINALIZE is the same ``bincount`` either way), so the
wave run must leave the *whole* buffer bitwise equal to the step list
and to every executor that runs whole tasks — on the suite's
``prop-small`` shape, on ``serve-mix``'s network, and on random trees
with shuffled scopes, wide cliques next to small ones and evidence that
zeroes separators (DIVIDE's 0/0).  The waves are compiled once per tree
structure, on its full graph's second run, whoever runs it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import random_network
from repro.bn.dbn import make_hmm
from repro.inference.engine import InferenceEngine
from repro.jt.generation import synthetic_tree
from repro.jt.junction_tree import Clique, JunctionTree
from repro.potential.primitives import WIDE_TABLE, PrimitiveKind, Wave
from repro.sched.serial import SerialExecutor
from repro.serve import EngineSessionPool
from repro.streaming import FilteringSession
from repro.tasks import layout as layout_module
from repro.tasks.dag import build_task_graph
from repro.tasks.layout import compile_waves, table_layout
from repro.tasks.state import PropagationState

from tests.test_step_list import WHOLE_TASK_EXECUTORS, _evidence, _shape_tree


def _serve_mix_tree():
    """The rerooted tree of the network the suite's serve-mix serves."""
    network = random_network(
        30, max_parents=3, edge_probability=0.6, seed=7
    )
    return InferenceEngine.from_network(network).jt


def _waved(tree, evidence):
    state = PropagationState(tree, evidence)
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    done, _ns = state.run_waves(compile_waves(layout, graph))
    assert done == graph.num_tasks
    return state


def _assert_same_buffer(reference, state, label):
    assert np.array_equal(reference.buffer, state.buffer), label
    assert set(reference._inter) == set(state._inter), label


@pytest.mark.parametrize("shape", ["prop-small", "serve-mix"])
def test_every_whole_task_executor_equals_the_wave_run(shape):
    if shape == "serve-mix":
        tree = _serve_mix_tree()
        evidence = {3: 1, 11: 0, 20: 1}
    else:
        tree = _shape_tree(shape, seed=5)
        evidence = _evidence(tree, seed=1)
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    waves = compile_waves(layout, graph)
    # Every task of the graph rides in exactly one unit, every unit is a
    # wave (no table of either tree is wide) and no level repeats a kind.
    assert sorted(t for tids in waves.tids for t in tids) == list(
        range(graph.num_tasks)
    )
    assert all(type(unit) is Wave for unit in waves.units)
    assert len(waves.units) < graph.num_tasks / 3
    reference = _waved(tree, evidence)
    assert len(reference._inter) == len(layout.inter)

    stepped = PropagationState(tree, evidence)
    stepped.run_steps(layout.step_list(graph))
    _assert_same_buffer(reference, stepped, f"{shape} run_steps")
    del stepped
    for label, make in WHOLE_TASK_EXECUTORS:
        state = PropagationState(tree, evidence)
        make().run(graph, state)
        _assert_same_buffer(reference, state, f"{shape} {label}")
        del state


def test_only_the_full_graph_from_its_second_run_gets_waves():
    tree = _shape_tree("prop-small")
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    evidence = _evidence(tree)
    # A graph built apart from the layout, however full, runs its steps.
    assert layout.wave_list(build_task_graph(tree)) is None
    # The layout's graph: its first run walks the step list (a full graph
    # run once never pays the compile), the second compiles the waves.
    SerialExecutor().run(graph, PropagationState(tree, evidence))
    assert graph._waves == ()
    second = PropagationState(tree, evidence)
    SerialExecutor().run(graph, second)
    waves = layout.wave_list(graph)
    assert waves is not None and layout.wave_list(graph) is waves
    assert np.array_equal(second.buffer, _waved(tree, evidence).buffer)
    # Every prop-large clique has 2**16 entries: nothing to wave.
    wide = _shape_tree("prop-large")
    assert compile_waves(table_layout(wide), table_layout(wide).task_graph(
        wide
    )) is None
    assert table_layout(wide).reads(wide).wave is None


def _shuffled(tree, rng):
    """``tree`` with every clique's scope in a random axis order."""
    cliques = []
    for clique in tree.cliques:
        order = rng.permutation(len(clique.variables))
        cliques.append(Clique(
            clique.index,
            [clique.variables[i] for i in order],
            [clique.cardinalities[i] for i in order],
        ))
    return JunctionTree(cliques, tree.parent)


@st.composite
def mixed_trees(draw):
    """A tree of 2-9 cliques, 3-13 binary variables each (so some tables
    are wide and most are small), scopes shuffled, with hard evidence on
    separator variables (zero separator entries: 0/0 in distribute) and
    some zeroed potential entries."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    tree = _shuffled(synthetic_tree(
        num_cliques=draw(st.integers(min_value=2, max_value=9)),
        clique_width=8, states=2,
        avg_children=draw(st.integers(min_value=1, max_value=3)),
        width_jitter=5, seed=seed,
    ), rng)
    tree.initialize_potentials(rng)
    for i in draw(st.sets(st.integers(0, tree.num_cliques - 1), max_size=2)):
        values = tree.potentials[i].values
        values[rng.random(values.shape) < 0.2] = 0.0
    shared = sorted({
        v for child, parent in enumerate(tree.parent) if parent is not None
        for v in tree.separator(child, parent)
    })
    evidence = {}
    if shared:
        for var in draw(st.lists(st.sampled_from(shared), max_size=3)):
            evidence[var] = draw(st.integers(min_value=0, max_value=1))
    return tree, evidence


@given(mixed_trees())
@settings(max_examples=25, deadline=None)
def test_waves_equal_the_step_list_on_mixed_shuffled_trees(workload):
    tree, evidence = workload
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    steps = PropagationState(tree, evidence)
    steps.run_steps(layout.step_list(graph))
    waves = compile_waves(layout, graph)
    if waves is None:
        assert all(slot.size >= WIDE_TABLE for slot in layout.potentials)
        return
    waved = _waved(tree, evidence)
    _assert_same_buffer(steps, waved, "waves vs steps")
    for unit in waves.units:
        if type(unit) is not Wave:
            if unit.out < 0:
                # A wide pipeline's EXTEND, which writes nothing, however
                # small its ratio.
                assert unit.code is PrimitiveKind.EXTEND
                assert math.prod(unit.plan.target_cards) >= WIDE_TABLE
                continue
            slots = (unit.source, unit.other, unit.out)
            assert max(layout.slots[s].size for s in slots if s >= 0) >= (
                WIDE_TABLE
            )
    posteriors = waved.marginals_all()
    assert list(posteriors) == tree.variables()
    for var, values in posteriors.items():
        assert np.allclose(values, waved.marginal(var), rtol=1e-12, atol=0)


def test_marginals_all_is_one_wave_over_the_small_hosts():
    tree = _shape_tree("prop-small")
    evidence = _evidence(tree)
    state = _waved(tree, evidence)
    reads = table_layout(tree).reads(tree)
    assert reads.wide == () and reads.wave.code is PrimitiveKind.MARGINALIZE
    posteriors = state.marginals_all()
    assert list(posteriors) == tree.variables() == list(reads.parts)
    # One flat array behind every variable's vector.
    assert posteriors.values.size == reads.size == 2 * len(posteriors)
    for var, values in posteriors.items():
        assert np.shares_memory(values, posteriors.values)
        assert np.allclose(values, state.marginal(var), rtol=1e-12, atol=0)
        assert values.sum() == pytest.approx(1.0)
    with pytest.raises(KeyError):
        posteriors[max(tree.variables()) + 1]


def test_waves_compile_once_per_tree_structure(monkeypatch):
    compiled = []
    compile_waves = layout_module.compile_waves

    def counted(layout, graph):
        compiled.append(layout)
        return compile_waves(layout, graph)

    monkeypatch.setattr(layout_module, "compile_waves", counted)

    # Engines over one tree, a fork, a twin and a session pool over it.
    tree = _shape_tree("prop-small")
    engines = [InferenceEngine(tree) for _ in range(3)]
    assert len({id(table_layout(e.jt)) for e in engines}) == 1
    engines += [engines[0].fork(), engines[0].sharing(engines[0].jt)]
    for engine in engines:
        engine.set_evidence(_evidence(tree))
        engine.propagate(incremental=False)
    pool = EngineSessionPool.from_junction_tree(engines[0].jt, sessions=2)
    assert all(e.task_graph is engines[0].task_graph for e in pool.engines)
    assert compiled == [table_layout(engines[0].jt)]
    assert table_layout(tree).wave_list(engines[0].task_graph) is not None

    # A filtering stream: its first window, then rolled windows, each a
    # new tree sharing one template structure.
    compiled.clear()
    dbn = make_hmm(
        num_states=2, num_observations=2,
        initial=np.array([0.6, 0.4]),
        transition=np.array([[0.7, 0.3], [0.2, 0.8]]),
        emission=np.array([[0.9, 0.1], [0.3, 0.7]]),
    )
    session = FilteringSession(dbn, window=3, retire=1)
    layouts = []
    for t in range(8):
        session.tick({1: t % 2})
        layouts.append(table_layout(session.engine.jt))
    # The first window propagates in full once: no compile.  Every roll
    # propagates a new tree over the template's structure in full: the
    # second roll compiles, once.
    assert session.rolls >= 3
    rolled = layouts[-1]
    assert layouts[0] is not rolled
    assert compiled == [rolled]

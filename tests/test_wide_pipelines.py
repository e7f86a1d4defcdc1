"""Wide pipelines: the separator ratio multiplied straight into the clique.

Eq. 1 updates a clique as ``multiply(psi_X, extend(ratio))``.  A pipeline
whose target clique has at least ``WIDE_TABLE`` entries never builds that
extension: its layout has no ``extended`` slot, its EXTEND task runs no
arithmetic, and its MULTIPLY multiplies the ratio in through a broadcast
view, or one strided lane per slice where the plan carries a ``Split``.
Multiplication is exactly rounded, so every executor path must leave
every clique, separator, ``sep_new`` and ``ratio`` entry bitwise equal to
a reference that materialises each extension and multiplies it in, kept
here.  The trees mix wide and small cliques with shuffled scopes, so the
runs cover extensions with a permutation (into wide and small targets),
``Split`` lanes with ``post`` 1 to 4, and plain broadcasts.
"""

import tracemalloc

import numpy as np
import pytest

from repro.jt.junction_tree import Clique, JunctionTree
from repro.potential.primitives import (
    WIDE_TABLE,
    PrimitiveKind,
    Wave,
    divide,
    extend,
    marginalize,
    multiply,
    plan_multiply,
)
from repro.potential.table import PotentialTable
from repro.sched import (
    CollaborativeExecutor,
    ProcessSharedMemoryExecutor,
    SerialExecutor,
    WorkStealingExecutor,
)
from repro.tasks.layout import compile_waves, table_layout
from repro.tasks.partition_plan import plan_partition
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT

MARGINALIZE = PrimitiveKind.MARGINALIZE
DIVIDE = PrimitiveKind.DIVIDE
EXTEND = PrimitiveKind.EXTEND
MULTIPLY = PrimitiveKind.MULTIPLY


def _tree(scopes, parent, seed):
    """A tree over ``scopes`` (lists of (variable, cardinality)) with
    random priors, some entries zeroed."""
    cliques = [
        Clique(i, [v for v, _c in scope], [c for _v, c in scope])
        for i, scope in enumerate(scopes)
    ]
    tree = JunctionTree(cliques, parent)
    rng = np.random.default_rng(seed)
    tree.initialize_potentials(rng)
    for i in range(1, tree.num_cliques, 2):
        values = tree.potentials[i].values
        values[rng.random(values.shape) < 0.2] = 0.0
    return tree


def _binary(*variables):
    return [(v, 2) for v in variables]


def _mixed_tree():
    """Two wide cliques (W, V) with wide and small neighbours.

    Collect into W: from c1 adds var 11 (card 3, last: Split post 1),
    from c2 adds var 10 (Split post 3), from c3 / c4 (shuffled shared
    vars: a permuted broadcast), from V adds vars 10, 11.  Collect into
    V: from v1 adds var 30 (post 2), from v2 var 9 (post 4), from v3 a
    permuted broadcast.  Distribute into c2 and v1 adds a leading axis
    (a plain broadcast); c3a -> c3 is a small pipeline with a
    permutation (a gather wave), as are W -> c3, W -> c4 and V -> v3.
    """
    w = _binary(*range(11)) + [(11, 3)]
    scopes = [
        w,                                                  # 0 W, 6144
        _binary(*range(11), 20),                            # 1 c1, 4096
        _binary(21, *range(10)) + [(11, 3)],                # 2 c2, 6144
        _binary(5, 22, 3, 1, 23, 0),                        # 3 c3, small
        _binary(24, 4, 2),                                  # 4 c4, small
        _binary(*range(10), 30, 31),                        # 5 V, 4096
        _binary(40, *range(10), 31),                        # 6 v1, 4096
        _binary(*range(9), 30, 31, 41),                     # 7 v2, 4096
        _binary(31, 42, 30),                                # 8 v3, small
        _binary(23, 50, 22),                                # 9 c3a, small
    ]
    parent = [None, 0, 0, 0, 0, 0, 5, 5, 5, 3]
    return _tree(scopes, parent, seed=7), {0: 1, 22: 0, 31: 1}


def _chunk_tree():
    """Three wide cliques whose every separator is half its cliques: no
    MARGINALIZE is worth partitioning (input < 4 x output), so a small
    threshold chunks the wide DIVIDEs and MULTIPLYs only.  C's shared
    vars are shuffled (a permuted broadcast into W), D misses W's var 11
    (Split post 2)."""
    scopes = [
        _binary(*range(13)),                # W
        _binary(12, *range(11), 13),        # C
        _binary(*range(11), 12, 14),        # D
    ]
    return _tree(scopes, [None, 0, 0], seed=11), {3: 1, 12: 0}


def _reference(tree, evidence):
    """Eq. 1 with every extension materialised: ``extended =
    extend(ratio, scope(X))``, then ``psi_X * extended``.  Returns the
    cliques, separators and (phase, edge, stage) intermediates."""
    state = PropagationState(tree, evidence)
    cliques = {i: t.values.copy() for i, t in state.potentials.items()}
    seps = {e: t.values.copy() for e, t in state.separators.items()}
    del state
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    inter = {}
    for tid in graph.topological_order():
        task = graph.tasks[tid]
        phase, edge = task.phase, task.edge
        parent, child = edge
        source, target = (child, parent) if phase == COLLECT else (
            parent, child
        )
        sep = layout.separators[edge]
        if task.kind is MARGINALIZE:
            slot = layout.potentials[source]
            table = PotentialTable(
                slot.variables, slot.cardinalities, cliques[source]
            )
            inter[(phase, edge, "sep_new")] = marginalize(
                table, sep.variables
            ).values
        elif task.kind is DIVIDE:
            sep_new = inter[(phase, edge, "sep_new")]
            inter[(phase, edge, "ratio")] = divide(
                PotentialTable(sep.variables, sep.cardinalities, sep_new),
                PotentialTable(sep.variables, sep.cardinalities, seps[edge]),
            ).values
            seps[edge] = sep_new.copy()
        elif task.kind is EXTEND:
            slot = layout.potentials[target]
            ratio = PotentialTable(
                sep.variables, sep.cardinalities,
                inter[(phase, edge, "ratio")],
            )
            inter[(phase, edge, "extended")] = extend(
                ratio, slot.variables, slot.cardinalities
            ).values
        else:
            cliques[target] = np.multiply(
                cliques[target], inter[(phase, edge, "extended")]
            )
    return cliques, seps, inter


def _assert_matches(reference, state, label):
    cliques, seps, inter = reference
    for i, table in state.potentials.items():
        assert np.array_equal(table.values, cliques[i]), f"{label}: clique {i}"
    for edge, table in state.separators.items():
        assert np.array_equal(table.values, seps[edge]), f"{label}: sep {edge}"
    layout = table_layout(state.jt)
    for (phase, edge, stage), values in inter.items():
        key = (phase, edge, stage)
        target = edge[0] if phase == COLLECT else edge[1]
        wide = layout.potentials[target].size >= WIDE_TABLE
        if stage == "extended":
            # A wide pipeline has no extended table at all.
            assert (key in layout.inter) is not wide, f"{label}: {key}"
            if wide:
                continue
        assert np.array_equal(state._inter[key].values, values), (
            f"{label}: {key}"
        )
    assert set(state._inter) == set(layout.inter), label


def _extension_cases(layout):
    """What the wide MULTIPLY plans and small EXTEND plans of ``layout``
    cover: ("split", post), ("perm", wide?), ("plain", wide?)."""
    cases = set()
    for pipe in layout.pipelines().values():
        ext = pipe.multiply.extend
        wide = ext is not None
        if not wide:
            ext = pipe.extend
        if ext.split is not None:
            cases.add(("split", ext.split.post))
        elif ext.perm is not None:
            cases.add(("perm", wide))
        else:
            cases.add(("plain", wide))
    return cases


def test_the_mixed_tree_covers_every_extension_kind():
    tree, _evidence = _mixed_tree()
    layout = table_layout(tree)
    assert _extension_cases(layout) >= {
        ("split", 1), ("split", 2), ("split", 3), ("split", 4),
        ("perm", True), ("perm", False), ("plain", True), ("plain", False),
    }
    sizes = [slot.size for slot in layout.potentials]
    assert min(sizes) < WIDE_TABLE <= max(sizes)


def test_wide_pipelines_have_no_extended_slot_and_no_extend_work():
    tree, _evidence = _mixed_tree()
    layout = table_layout(tree)
    steps = layout.steps()
    extended = 0
    for (phase, edge), pipe in layout.pipelines().items():
        target = edge[0] if phase == COLLECT else edge[1]
        wide = layout.potentials[target].size >= WIDE_TABLE
        assert ((phase, edge, "extended") in layout.inter) is not wide
        ext = steps[(phase, edge, EXTEND)]
        mult = steps[(phase, edge, MULTIPLY)]
        ratio = layout.inter_at[(phase, edge, "ratio")]
        if wide:
            # EXTEND writes nothing; MULTIPLY reads the ratio.
            assert (ext.out, ext.written, mult.source) == (-1, None, ratio)
            assert pipe.multiply.extend is not None
        else:
            extended += layout.potentials[target].size
            assert mult.source == ext.out >= 0
            assert pipe.multiply.extend is None
    # The buffer is the cliques, the separators, two separator-sized
    # intermediates per pipeline and the small targets' extensions.
    seps = sum(slot.size for slot in layout.separators.values())
    assert layout.size == (
        layout.cliques_end + 5 * seps + extended
    )


def test_no_wide_extend_or_multiply_rides_in_a_wave():
    tree, _evidence = _mixed_tree()
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    waves = compile_waves(layout, graph)
    assert waves is not None
    steps = layout.step_list(graph)
    step_of = dict(zip(steps.tids, steps.steps))
    for unit, tids in zip(waves.units, waves.tids):
        if type(unit) is not Wave:
            continue
        for tid in tids:
            task = graph.tasks[tid]
            target = task.edge[0] if task.phase == COLLECT else task.edge[1]
            if task.kind in (EXTEND, MULTIPLY):
                assert layout.potentials[target].size < WIDE_TABLE, task
                assert step_of[tid].out >= 0
    # Some wide EXTEND has a small ratio: it still runs as its own step.
    assert any(
        step.code is EXTEND and step.out < 0
        and layout.slots[step.source].size < WIDE_TABLE
        for step in steps.steps
    )


WHOLE_TASK_PATHS = [
    ("collaborative", lambda: CollaborativeExecutor(num_threads=2)),
    ("work-stealing", lambda: WorkStealingExecutor(num_threads=2)),
    ("process", lambda: ProcessSharedMemoryExecutor(
        num_workers=2, inline_threshold=0)),
]


def test_every_executor_path_equals_the_materialised_reference():
    tree, evidence = _mixed_tree()
    reference = _reference(tree, evidence)
    layout = table_layout(tree)
    graph = layout.task_graph(tree)

    state = PropagationState(tree, evidence)
    done, _ns = state.run_steps(layout.step_list(graph))
    assert done == graph.num_tasks
    _assert_matches(reference, state, "serial steps")
    del state

    state = PropagationState(tree, evidence)
    done, _ns = state.run_waves(compile_waves(layout, graph))
    assert done == graph.num_tasks
    _assert_matches(reference, state, "waves")
    del state

    for label, make in WHOLE_TASK_PATHS:
        state = PropagationState(tree, evidence)
        make().run(graph, state)
        _assert_matches(reference, state, label)
        del state


def test_a_chunked_wide_multiply_equals_the_materialised_reference():
    tree, evidence = _chunk_tree()
    reference = _reference(tree, evidence)
    layout = table_layout(tree)
    graph = layout.task_graph(tree)
    threshold = 2048
    chunked = {
        task.kind for task in graph.tasks
        if plan_partition(task, threshold) is not None
    }
    assert MULTIPLY in chunked and EXTEND in chunked
    assert MARGINALIZE not in chunked
    assert _extension_cases(layout) >= {
        ("split", 1), ("split", 2), ("perm", True),
    }
    executor = CollaborativeExecutor(
        num_threads=2, partition_threshold=threshold
    )
    state = PropagationState(tree, evidence)
    stats = executor.run(graph, state)
    assert stats.tasks_partitioned > 0
    _assert_matches(reference, state, "collaborative, partitioned")
    # And the serial run agrees with both.
    serial = PropagationState(tree, evidence)
    SerialExecutor().run(graph, serial)
    _assert_matches(reference, serial, "serial")


def _table(variables, cardinalities, seed):
    rng = np.random.default_rng(seed)
    return PotentialTable(
        variables, cardinalities, rng.random(tuple(cardinalities))
    )


# (a's scope, b's scope): a Split (post 1, 2), a permuted and a plain
# broadcast of a table over a subset of a 2**16-entry table's scope.
SUBSETS = [
    (tuple(range(16)), tuple(range(15))),
    (tuple(range(16)), tuple(range(14)) + (15,)),
    (tuple(range(16)), (9, 2, 5, 0)),
    (tuple(range(16)), tuple(range(4, 16))),
]


@pytest.mark.parametrize("scopes", SUBSETS)
def test_multiply_by_a_subset_scope_is_extend_then_multiply(scopes):
    a_vars, b_vars = scopes
    a = _table(a_vars, [2] * len(a_vars), seed=1)
    b = _table(b_vars, [2] * len(b_vars), seed=2)
    expected = a.values * extend(b, a.variables, a.cardinalities).values
    assert np.array_equal(multiply(a, b).values, expected)
    plan = plan_multiply(
        a.variables, a.cardinalities, b.variables, b.cardinalities
    )
    out = a.copy()
    tracemalloc.start()
    try:
        multiply(out, b, out=out, plan=plan)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.values, expected)
    # No temporary of a's size: the extension is never built.
    assert peak < a.values.nbytes // 4, peak


def test_a_plan_for_other_cardinalities_is_refused():
    a = _table((0, 1, 2), (2, 3, 2), seed=1)
    b = _table((1,), (3,), seed=2)
    plan = plan_multiply((0, 1, 2), (2, 2, 2), (1,), (2,))
    with pytest.raises(ValueError, match="plan="):
        multiply(a, b, plan=plan)

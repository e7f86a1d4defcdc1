"""State entry from the prior image: one copy plus one write per finding.

A full :class:`PropagationState` starts as one copy of its tree's prior
image (``JunctionTree.prior_image``), then every entry inconsistent with
a hard finding is multiplied by zero, then the soft findings multiply
into their host cliques and the separators reset to ones.  The reference
here is the entry path the image replaced, kept in the test: every prior
aligned to its clique's scope and ``PotentialTable.reduce``d by the
findings, the soft weights multiplied in.  The two must agree bit for
bit — NaN, inf and -0.0 priors included — on random trees with shuffled
scopes, small and wide tables, and findings on every axis position; and
the next state must see every change to the priors: a replaced table,
``set_potential``, ``initialize_potentials`` and an in-place write
through a prior's ``values``.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.engine import InferenceEngine
from repro.jt.generation import synthetic_tree
from repro.jt.rerooting import reroot, select_root
from repro.potential.primitives import WIDE_TABLE, multiply
from repro.potential.table import PotentialTable
from repro.streaming import FilteringSession
from repro.tasks.layout import table_layout, table_view
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT

from tests.test_step_list import _evidence, _shape_tree
from tests.test_streaming import _chain_dbn, _ticks
from tests.test_waves import _shuffled

_SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf)

# inf times zero is NaN, with a warning, in the reference path as well.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _reference(tree, evidence, soft=None):
    """The clique region and the separator entries of a fresh state over
    ``tree``, by the path the image replaced."""
    layout = table_layout(tree)
    buffer = np.zeros(layout.size)
    for clique in tree.cliques:
        slot = layout.potentials[clique.index]
        prior = tree.potential(clique.index).aligned_to(clique.variables)
        buffer[slot.start:slot.start + slot.size] = prior.reduce(
            evidence
        ).values.reshape(-1)
    for var, weights in (soft or {}).items():
        host, axis = tree.host(var)
        table = table_view(buffer, layout.potentials[host])
        shape = [1] * len(table.cardinalities)
        shape[axis] = len(weights)
        table.values *= np.asarray(weights, dtype=np.float64).reshape(shape)
    for slot in layout.separators.values():
        buffer[slot.start:slot.start + slot.size] = 1.0
    return buffer


def _assert_entry(tree, state, evidence, soft=None):
    """``state``'s cliques and separators hold the reference's bits."""
    layout = table_layout(tree)
    reference = _reference(tree, evidence, soft)
    end = layout.cliques_end
    assert np.array_equal(_bits(state.buffer[:end]), _bits(reference[:end]))
    for slot in layout.separators.values():
        part = slice(slot.start, slot.start + slot.size)
        assert np.array_equal(
            _bits(state.buffer[part]), _bits(reference[part])
        )


def _entry_matches(tree, evidence, soft=None):
    state = PropagationState(tree, evidence, soft)
    _assert_entry(tree, state, evidence, soft)
    return state


@st.composite
def entry_cases(draw):
    """A 2-9-clique tree with shuffled scopes and 8-8192-entry tables
    (binary: 3-13 variables a clique; ternary: 2-8), priors salted with
    zeros, NaN, inf and -0.0, hard findings on any variable and soft
    findings on others."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    states = draw(st.sampled_from([2, 3]))
    width, jitter = (8, 5) if states == 2 else (5, 3)
    tree = _shuffled(synthetic_tree(
        num_cliques=draw(st.integers(min_value=2, max_value=9)),
        clique_width=width, states=states,
        avg_children=draw(st.integers(min_value=1, max_value=3)),
        width_jitter=jitter, seed=seed,
    ), rng)
    tree.initialize_potentials(rng)
    for i in draw(st.sets(st.integers(0, tree.num_cliques - 1), max_size=3)):
        values = tree.potentials[i].values.reshape(-1)
        salted = rng.random(values.size) < 0.3
        values[salted] = rng.choice(_SPECIAL, size=int(salted.sum()))
    variables = tree.variables()
    chosen = draw(st.lists(
        st.sampled_from(variables), unique=True, max_size=6
    ))
    evidence, soft = {}, {}
    for var in chosen:
        card = tree.cliques[tree.host(var)[0]].card_of(var)
        if draw(st.booleans()):
            evidence[var] = draw(st.integers(0, card - 1))
        else:
            soft[var] = list(rng.random(card) + 0.1)
    return tree, evidence, soft


@given(entry_cases())
@settings(max_examples=40, deadline=None)
def test_state_entry_is_bitwise_the_reduce_path(case):
    tree, evidence, soft = case
    _entry_matches(tree, evidence, soft)
    # The second state copies the image built by the first.
    _entry_matches(tree, evidence, soft)


def test_findings_land_on_every_axis_of_a_wide_table():
    """One 2**13-entry clique, a finding on each of its 13 axes and each
    state: the strided ranges (few entries after the axis) and the row
    blocks (many) both zero exactly what reduce zeroes."""
    tree = synthetic_tree(2, clique_width=13, states=2, width_jitter=0,
                          seed=4)
    tree.initialize_potentials(np.random.default_rng(4))
    layout = table_layout(tree)
    assert layout.potentials[0].size >= WIDE_TABLE
    tree.potentials[0].values.reshape(-1)[::7] = -0.0
    tree.potentials[0].values.reshape(-1)[3::11] = np.inf
    for var in tree.cliques[0].variables:
        for state in (0, 1):
            _entry_matches(tree, {var: state})
    variables = tree.cliques[0].variables
    _entry_matches(tree, {variables[0]: 1, variables[-1]: 0,
                          variables[6]: 1})


def test_out_of_range_findings_and_soft_sizes_are_refused():
    tree = _shape_tree("prop-small")
    with pytest.raises(ValueError, match="evidence state 2 out of range"):
        PropagationState(tree, {0: 2})
    # A variable no clique holds is not checked, as reduce never saw it.
    PropagationState(tree, {10_000: 5})
    with pytest.raises(ValueError, match="soft evidence for variable 0 has"):
        PropagationState(tree, soft_evidence={0: [0.5, 0.2, 0.3]})


class TestStaleness:
    """The next state sees every change to the priors."""

    def _tree(self):
        tree = _shape_tree("prop-small", seed=6)
        evidence = _evidence(tree, seed=2)
        _entry_matches(tree, evidence)
        return tree, evidence

    def test_a_replaced_table(self):
        tree, evidence = self._tree()
        clique = tree.cliques[5]
        tree.potentials[5] = PotentialTable.random(
            clique.variables, clique.cardinalities,
            np.random.default_rng(1),
        )
        _entry_matches(tree, evidence)

    def test_set_potential_with_another_axis_order(self):
        tree, evidence = self._tree()
        clique = tree.cliques[7]
        table = PotentialTable.random(
            clique.variables[::-1], clique.cardinalities[::-1],
            np.random.default_rng(2),
        )
        tree.set_potential(7, table)
        _entry_matches(tree, evidence)

    def test_a_table_in_another_axis_order_becomes_a_view(self):
        tree, evidence = self._tree()
        clique = tree.cliques[3]
        table = PotentialTable.random(
            clique.variables[::-1], clique.cardinalities[::-1],
            np.random.default_rng(3),
        )
        tree.potentials[3] = table
        _entry_matches(tree, evidence)
        assert np.shares_memory(table.values, tree.prior_image())
        table.values[(0,) * len(clique.variables)] = np.nan
        _entry_matches(tree, evidence)

    def test_initialize_potentials(self):
        tree, evidence = self._tree()
        tree.initialize_potentials(np.random.default_rng(9))
        _entry_matches(tree, evidence)

    def test_an_in_place_write_through_values(self):
        tree, evidence = self._tree()
        tree.potentials[0].values[...] = np.nan
        tree.potentials[11].values.reshape(-1)[:3] = (-0.0, np.inf, 2.5)
        _entry_matches(tree, evidence)

    def test_the_priors_are_views_into_the_image(self):
        tree, _evidence_ = self._tree()
        image = tree.prior_image()
        layout = table_layout(tree)
        for i, slot in enumerate(layout.potentials):
            values = tree.potentials[i].values
            assert np.shares_memory(values, image)
            assert np.array_equal(
                values.reshape(-1), image[slot.start:slot.start + slot.size]
            )
        assert tree.prior_image() is image


class TestSharing:
    def test_twins_and_rerooted_trees_share_one_image(self):
        tree = _shape_tree("prop-small", seed=11)
        image = tree.prior_image()
        assert tree.with_priors({}).prior_image() is image
        kept = {3: tree.potentials[3]}
        assert tree.with_priors(kept).prior_image() is image
        root, _weight = select_root(tree)
        assert reroot(tree, (root + 1) % tree.num_cliques).prior_image() is (
            image
        )

    def test_a_twin_with_a_new_prior_builds_its_own(self):
        tree = _shape_tree("prop-small", seed=12)
        evidence = _evidence(tree, seed=3)
        _entry_matches(tree, evidence)
        clique = tree.cliques[9]
        twin = tree.with_priors({9: PotentialTable.random(
            clique.variables, clique.cardinalities,
            np.random.default_rng(4),
        )})
        # Alternating between the two trees never shows one the other's
        # priors.
        for _ in range(3):
            _entry_matches(twin, evidence)
            _entry_matches(tree, evidence)
        assert twin.prior_image() is not tree.prior_image()

    def test_threads_rebuilding_shared_tables_at_once(self):
        """Four threads, each over its own twin (one new prior, the rest
        shared), on two cores with a tiny switch interval: every build
        rebinds the shared tables the others are copying, and every
        state still holds its own tree's priors."""
        tree = _shape_tree("prop-small", seed=14)
        evidence = _evidence(tree, seed=4)
        twins = []
        for k in range(4):
            clique = tree.cliques[10 + k]
            twins.append(tree.with_priors({10 + k: PotentialTable.random(
                clique.variables, clique.cardinalities,
                np.random.default_rng(k),
            )}))
        end = table_layout(tree).cliques_end
        expected = [_bits(_reference(t, evidence)[:end]) for t in twins]
        failures = []

        def work(twin, want):
            try:
                for _ in range(25):
                    state = PropagationState(twin, evidence)
                    if not np.array_equal(_bits(state.buffer[:end]), want):
                        failures.append("wrong priors")
            except Exception as error:  # reported below, not lost
                failures.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=pair)
                for pair in zip(twins, expected)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_rolled_stream_windows(self):
        dbn, _prior, _transition = _chain_dbn(5, 3)
        session = FilteringSession(dbn, window=3, retire=1)
        ticks = _ticks(5, soft=False)
        seen = set()
        while session.rolls < 6:
            session.tick(next(ticks))
            tree = session.engine.jt
            findings = session.engine.evidence.as_dict()
            _entry_matches(tree, findings)
            seen.add(id(tree))
        assert len(seen) > 2

    @pytest.mark.parametrize("shape", ["prop-small", "wide"])
    def test_incremental_rebuilds_copy_their_image_slices(self, shape):
        if shape == "wide":
            # 2**11-2**13 entries a clique: wide and small ones.
            tree = synthetic_tree(9, clique_width=12, states=2,
                                  avg_children=2, width_jitter=1, seed=13)
            tree.initialize_potentials(np.random.default_rng(13))
        else:
            tree = _shape_tree("prop-small", seed=13)
        rng = np.random.default_rng(5)
        values = tree.potentials[2].values.reshape(-1)
        values[::5] = -0.0
        engine = InferenceEngine(tree, reroot=False)
        variables = tree.variables()
        for step in range(6):
            engine.observe(int(rng.choice(variables)), int(rng.integers(2)))
            if step % 2:
                var = int(rng.choice(variables))
                engine.observe_soft(var, list(rng.random(2) + 0.1))
            engine.propagate()
        prev = engine._state
        hard = dict(prev.evidence)
        leaf = tree.leaves()[-1]
        for var in tree.cliques[leaf].variables[:2]:
            hard[var] = 1
        soft = dict(prev.soft_evidence)
        rebuild = set(tree.path_to_root(leaf)) | {1, tree.num_cliques - 2}
        state = PropagationState.incremental(prev, hard, soft, rebuild)
        # The reference: prev's bytes, the rebuilt cliques from the old
        # entry path, re-charged with the stored messages of clean
        # children, their separators reset.
        layout = table_layout(tree)
        fresh = _reference(tree, hard, soft)
        expected = prev.buffer.copy()
        for i in rebuild:
            slot = layout.potentials[i]
            part = slice(slot.start, slot.start + slot.size)
            expected[part] = fresh[part]
        for i in rebuild:
            target = table_view(expected, layout.potentials[i])
            for c in tree.children[i]:
                if c not in rebuild:
                    mu = prev._inter[(COLLECT, (i, c), "sep_new")]
                    multiply(target, mu, out=target)
        for (_parent, child), slot in layout.separators.items():
            if child in rebuild:
                expected[slot.start:slot.start + slot.size] = 1.0
        assert np.array_equal(_bits(state.buffer), _bits(expected))


class TestPickling:
    def test_a_propagated_tree_pickles_like_a_fresh_one(self):
        tree = _shape_tree("prop-small")
        fresh = len(pickle.dumps(tree))
        engine = InferenceEngine(tree)
        engine.set_evidence(_evidence(tree))
        engine.propagate()
        engine.propagate(incremental=False)  # the waves compile
        before = engine.marginals_all().values
        assert len(pickle.dumps(engine.jt)) <= 1.1 * fresh
        clone = pickle.loads(pickle.dumps(engine.jt))
        layout = table_layout(clone)
        assert layout.slots == table_layout(engine.jt).slots
        assert layout.free is not table_layout(engine.jt).free
        twin = InferenceEngine(clone, reroot=False)
        twin.set_evidence(_evidence(tree))
        twin.propagate()
        twin.propagate(incremental=False)
        assert np.array_equal(twin._state.buffer, engine._state.buffer)
        assert np.array_equal(twin.marginals_all().values, before)

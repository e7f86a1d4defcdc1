"""Unit tests for the JunctionTree data structure."""

import numpy as np
import pytest

from repro.jt.junction_tree import Clique, JunctionTree
from repro.potential.table import PotentialTable


def _chain_tree(n=4, width=2):
    """Cliques 0..n-1 in a chain, each sharing one variable with its parent."""
    cliques = [Clique(i, (i, i + 1), (2, 2)) for i in range(n)]
    parent = [None] + list(range(n - 1))
    return JunctionTree(cliques, parent)


def _star_tree():
    """Root 0 with children 1, 2, 3 all sharing variable 0."""
    cliques = [
        Clique(0, (0, 1), (2, 2)),
        Clique(1, (0, 2), (2, 2)),
        Clique(2, (0, 3), (2, 2)),
        Clique(3, (0, 4), (2, 2)),
    ]
    return JunctionTree(cliques, [None, 0, 0, 0])


class TestClique:
    def test_width_and_size(self):
        c = Clique(0, (3, 5, 7), (2, 3, 4))
        assert c.width == 3
        assert c.table_size == 24

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Clique(0, (1, 1), (2, 2))

    def test_card_of(self):
        c = Clique(0, (3, 5), (2, 4))
        assert c.card_of(5) == 4


class TestTreeConstruction:
    def test_root_detection(self):
        jt = _chain_tree()
        assert jt.root == 0
        assert jt.parent[0] is None

    def test_children_lists(self):
        jt = _star_tree()
        assert jt.children[0] == [1, 2, 3]
        assert jt.children[1] == []

    def test_multiple_roots_rejected(self):
        cliques = [Clique(0, (0,), (2,)), Clique(1, (0,), (2,))]
        with pytest.raises(ValueError, match="exactly one root"):
            JunctionTree(cliques, [None, None])

    def test_parent_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            JunctionTree([Clique(0, (0,), (2,))], [None, 0])

    def test_cycle_rejected(self):
        cliques = [
            Clique(0, (0,), (2,)),
            Clique(1, (0,), (2,)),
            Clique(2, (0,), (2,)),
        ]
        with pytest.raises(ValueError):
            JunctionTree(cliques, [None, 2, 1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValueError):
            JunctionTree([Clique(0, (0,), (2,))], [5])


class TestTraversals:
    def test_preorder_parents_first(self):
        jt = _chain_tree(5)
        order = jt.preorder()
        assert order == [0, 1, 2, 3, 4]

    def test_postorder_children_first(self):
        jt = _star_tree()
        order = jt.postorder()
        assert order[-1] == 0
        assert set(order[:-1]) == {1, 2, 3}

    def test_traversals_cover_all(self):
        jt = _star_tree()
        assert sorted(jt.preorder()) == [0, 1, 2, 3]
        assert sorted(jt.postorder()) == [0, 1, 2, 3]

    def test_leaves(self):
        assert _chain_tree(4).leaves() == [3]
        assert _star_tree().leaves() == [1, 2, 3]

    def test_depth_of(self):
        jt = _chain_tree(4)
        assert [jt.depth_of(i) for i in range(4)] == [0, 1, 2, 3]

    def test_path_to_root(self):
        jt = _chain_tree(4)
        assert jt.path_to_root(3) == [3, 2, 1, 0]

    def test_degree_counts_parent_and_children(self):
        jt = _star_tree()
        assert jt.degree(0) == 3
        assert jt.degree(1) == 1

    def test_undirected_adjacency_symmetric(self):
        jt = _star_tree()
        adj = jt.undirected_adjacency()
        for v, ns in enumerate(adj):
            for u in ns:
                assert v in adj[u]


class TestSeparators:
    def test_separator_contents(self):
        jt = _chain_tree()
        assert jt.separator(1, 0) == (1,)
        assert jt.separator(0, 1) == (1,)

    def test_separator_cards(self):
        jt = _star_tree()
        assert jt.separator_cards(1, 0) == (2,)

    def test_non_adjacent_rejected(self):
        jt = _star_tree()
        with pytest.raises(ValueError, match="not adjacent"):
            jt.separator(1, 2)

    def test_separator_order_follows_first_clique(self):
        cliques = [Clique(0, (2, 1), (2, 2)), Clique(1, (1, 2, 3), (2, 2, 2))]
        jt = JunctionTree(cliques, [None, 0])
        assert jt.separator(0, 1) == (2, 1)
        assert jt.separator(1, 0) == (1, 2)


class TestPotentials:
    def test_initialize_ones(self):
        jt = _chain_tree()
        jt.initialize_potentials()
        for i in range(jt.num_cliques):
            assert np.all(jt.potential(i).values == 1.0)

    def test_initialize_random_positive(self):
        jt = _chain_tree()
        jt.initialize_potentials(np.random.default_rng(0))
        for i in range(jt.num_cliques):
            assert np.all(jt.potential(i).values > 0)

    def test_missing_potential_raises(self):
        jt = _chain_tree()
        with pytest.raises(KeyError):
            jt.potential(0)

    def test_set_potential_aligns_scope(self):
        jt = _chain_tree()
        table = PotentialTable((1, 0), (2, 2), np.arange(4))
        jt.set_potential(0, table)
        stored = jt.potential(0)
        assert stored.variables == (0, 1)
        assert np.array_equal(stored.values, np.arange(4).reshape(2, 2).T)

    def test_set_potential_wrong_scope_rejected(self):
        jt = _chain_tree()
        with pytest.raises(ValueError, match="does not match"):
            jt.set_potential(0, PotentialTable((9,), (2,)))

    def test_copy_is_deep(self):
        jt = _chain_tree()
        jt.initialize_potentials(np.random.default_rng(0))
        twin = jt.copy()
        twin.potential(0).values[:] = 0
        assert not np.all(jt.potential(0).values == 0)

    def test_clique_containing_prefers_smallest(self):
        cliques = [
            Clique(0, (0, 1, 2), (2, 2, 2)),
            Clique(1, (0, 1), (2, 2)),
        ]
        jt = JunctionTree(cliques, [None, 0])
        assert jt.clique_containing([0, 1]) == 1
        assert jt.clique_containing([2]) == 0

    def test_clique_containing_missing_raises(self):
        jt = _chain_tree()
        with pytest.raises(KeyError):
            jt.clique_containing([99])

    def test_host_map_is_clique_containing_of_one_variable(self):
        from repro import random_network, synthetic_tree
        from repro.jt.build import junction_tree_from_network

        # Jittered widths give hosts of different sizes; width_jitter=0
        # gives ties, which must break towards the lowest index.
        trees = [
            synthetic_tree(
                num_cliques=24, clique_width=4, avg_children=3,
                width_jitter=seed % 2, seed=seed,
            )
            for seed in range(10)
        ]
        trees.append(junction_tree_from_network(random_network(30, seed=5)))
        trees.append(_star_tree())
        for jt in trees:
            scope = {v for c in jt.cliques for v in c.variables}
            assert jt.variables() == sorted(scope)
            for var in scope:
                host, axis = jt.host(var)
                assert host == jt.clique_containing([var])
                assert jt.cliques[host].variables[axis] == var

    def test_host_of_unknown_variable_raises(self):
        jt = _chain_tree()
        with pytest.raises(KeyError, match="99"):
            jt.host(99)
        assert jt.host(0) == (0, 0)  # the failed lookup left the map intact

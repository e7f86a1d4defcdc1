"""Tests for junction-tree rerooting (Algorithm 1)."""

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree, template_tree
from repro.jt.junction_tree import Clique, JunctionTree
from repro.jt.rerooting import (
    all_clique_costs,
    clique_cost,
    critical_path_weight,
    heaviest_leaf_path,
    path_weight,
    reroot,
    reroot_optimally,
    select_root,
    select_root_bruteforce,
)
from repro.jt.validate import check_tree_structure


def _chain(n):
    cliques = [Clique(i, (i, i + 1), (2, 2)) for i in range(n)]
    return JunctionTree(cliques, [None] + list(range(n - 1)))


class TestCliqueCost:
    def test_cost_formula(self):
        # width 2, binary, degree 1 in a 2-clique chain.
        jt = _chain(2)
        assert clique_cost(jt, 0) == 2 * 1 * 4

    def test_degree_factor(self):
        jt = _chain(3)
        assert clique_cost(jt, 1) == 2 * 2 * 4  # middle clique has degree 2

    def test_all_costs_indexed(self):
        jt = _chain(3)
        costs = all_clique_costs(jt)
        assert costs == [clique_cost(jt, i) for i in range(3)]


class TestCriticalPath:
    def test_chain_critical_path_is_whole_chain(self):
        jt = _chain(5)
        assert critical_path_weight(jt) == path_weight(jt, list(range(5)))

    def test_mid_root_halves_chain(self):
        jt = _chain(5)
        end = critical_path_weight(jt, 0)
        mid = critical_path_weight(jt, 2)
        assert mid < end

    def test_single_clique(self):
        jt = JunctionTree([Clique(0, (0,), (2,))], [None])
        assert critical_path_weight(jt) == clique_cost(jt, 0)

    def test_explicit_root_argument(self):
        jt = _chain(4)
        assert critical_path_weight(jt, jt.root) == critical_path_weight(jt)


class TestHeaviestLeafPath:
    def test_endpoints_are_undirected_leaves(self):
        for seed in range(5):
            tree = synthetic_tree(30, clique_width=4, seed=seed)
            path = heaviest_leaf_path(tree)
            adj = tree.undirected_adjacency()
            assert len(adj[path[0]]) == 1
            assert len(adj[path[-1]]) == 1

    def test_path_is_connected(self):
        tree = synthetic_tree(40, clique_width=4, seed=3)
        path = heaviest_leaf_path(tree)
        adj = tree.undirected_adjacency()
        for a, b in zip(path, path[1:]):
            assert b in adj[a]

    def test_no_repeated_cliques(self):
        tree = synthetic_tree(40, clique_width=4, seed=4)
        path = heaviest_leaf_path(tree)
        assert len(path) == len(set(path))


class TestSelectRoot:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_weight_on_random_trees(self, seed):
        tree = synthetic_tree(
            25, clique_width=4, avg_children=2, width_jitter=1, seed=seed
        )
        _, fast_weight = select_root(tree)
        _, brute_weight = select_root_bruteforce(tree)
        assert np.isclose(fast_weight, brute_weight)

    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_template_tree_reroots_at_junction(self, b):
        tree = template_tree(b, num_cliques=61, clique_width=5)
        root, _ = select_root(tree)
        assert root == tree.num_cliques - 1  # the junction clique

    def test_single_clique_tree(self):
        jt = JunctionTree([Clique(0, (0,), (2,))], [None])
        root, weight = select_root(jt)
        assert root == 0
        assert weight == clique_cost(jt, 0)

    def test_chain_selects_interior(self):
        jt = _chain(9)
        root, _ = select_root(jt)
        assert root not in (0, 8)

    def test_returned_weight_is_consistent(self):
        tree = synthetic_tree(30, clique_width=4, seed=11)
        root, weight = select_root(tree)
        assert np.isclose(weight, critical_path_weight(tree, root))


class TestReroot:
    def test_preserves_undirected_edges(self):
        tree = synthetic_tree(30, clique_width=4, seed=12)
        new = reroot(tree, 17)
        old_edges = {
            frozenset((i, p)) for i, p in enumerate(tree.parent) if p is not None
        }
        new_edges = {
            frozenset((i, p)) for i, p in enumerate(new.parent) if p is not None
        }
        assert old_edges == new_edges

    def test_sets_requested_root(self):
        tree = synthetic_tree(20, clique_width=4, seed=13)
        assert reroot(tree, 5).root == 5

    def test_shares_potentials(self):
        tree = synthetic_tree(10, clique_width=3, seed=14)
        tree.initialize_potentials(np.random.default_rng(0))
        new = reroot(tree, 3)
        for i in range(tree.num_cliques):
            assert new.potential(i) is tree.potential(i)

    def test_structure_valid_after_reroot(self):
        tree = synthetic_tree(25, clique_width=4, seed=15)
        check_tree_structure(reroot(tree, 11))

    def test_reroot_to_same_root_is_identity_shape(self):
        tree = synthetic_tree(15, clique_width=3, seed=16)
        same = reroot(tree, tree.root)
        assert same.parent == tree.parent

    def test_out_of_range_rejected(self):
        tree = synthetic_tree(5, clique_width=3, seed=17)
        with pytest.raises(ValueError):
            reroot(tree, 99)


class TestRerootOptimally:
    def test_returns_tree_with_selected_root(self):
        tree = synthetic_tree(40, clique_width=4, seed=18)
        rerooted, root, weight = reroot_optimally(tree)
        assert rerooted.root == root
        assert np.isclose(critical_path_weight(rerooted), weight)

    def test_idempotent(self):
        tree = synthetic_tree(40, clique_width=4, seed=19)
        once, root1, w1 = reroot_optimally(tree)
        twice, root2, w2 = reroot_optimally(once)
        assert np.isclose(w1, w2)

    def test_never_worse_than_original(self):
        for seed in range(8):
            tree = synthetic_tree(30, clique_width=4, seed=seed)
            _, _, weight = reroot_optimally(tree)
            assert weight <= critical_path_weight(tree) + 1e-9

    def test_returns_same_object_when_root_optimal(self):
        jt = _chain(3)
        # Root the chain at its centre first.
        centred = reroot(jt, 1)
        result, root, _ = reroot_optimally(centred)
        assert root == 1
        assert result is centred

    def test_engines_over_one_tree_share_the_rerooted_structure(self):
        from repro.inference.engine import InferenceEngine
        from repro.potential.table import PotentialTable
        from repro.tasks.layout import table_layout

        tree = synthetic_tree(
            128, clique_width=5, states=2, avg_children=4, width_jitter=0,
            seed=11,
        )
        tree.initialize_potentials(np.random.default_rng(11))
        first = InferenceEngine(tree)
        assert first.jt.root != tree.root  # this tree is rerooted
        second = InferenceEngine(tree)
        assert table_layout(second.jt) is table_layout(first.jt)
        assert second.task_graph is first.task_graph
        assert second.jt.parent is first.jt.parent
        assert second.jt.prior_image() is first.jt.prior_image()
        var = first.jt.cliques[0].variables[0]
        first.propagate()
        before = first.marginal(var)
        # A prior replaced on the input tree reaches the next engine (and
        # leaves the existing one alone).
        clique = tree.cliques[0]
        values = np.ones(clique.cardinalities)
        values[(0,) * clique.width] = 50.0
        tree.potentials[0] = PotentialTable(
            clique.variables, clique.cardinalities, values
        )
        third = InferenceEngine(tree)
        assert table_layout(third.jt) is table_layout(first.jt)
        third.propagate()
        assert not np.allclose(third.marginal(var), before)
        assert np.array_equal(first.marginal(var), before)
        fresh = InferenceEngine(tree.copy())
        fresh.propagate()
        assert np.allclose(third.marginal(var), fresh.marginal(var),
                           rtol=1e-12, atol=0)

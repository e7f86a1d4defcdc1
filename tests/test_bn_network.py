"""Unit tests for the Bayesian-network substrate."""

import numpy as np
import pytest

from repro.bn.cpd import (
    deterministic_cpd,
    noisy_or_cpd,
    tabular_cpd,
    uniform_cpd,
)
from repro.bn.network import BayesianNetwork
from repro.inference.engine import InferenceEngine
from repro.potential.table import PotentialTable


def _two_node_net():
    bn = BayesianNetwork([2, 2])
    bn.add_edge(0, 1)
    bn.set_cpt(0, PotentialTable([0], [2], np.array([0.3, 0.7])))
    bn.set_cpt(
        1, PotentialTable([0, 1], [2, 2], np.array([[0.9, 0.1], [0.4, 0.6]]))
    )
    return bn


class TestStructure:
    def test_cardinality_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            BayesianNetwork([2, 1])

    def test_add_edge_and_query(self):
        bn = BayesianNetwork([2, 2, 2])
        bn.add_edge(0, 2)
        bn.add_edge(1, 2)
        assert bn.parents(2) == (0, 1)
        assert bn.children(0) == (2,)
        assert set(bn.edges()) == {(0, 2), (1, 2)}

    def test_self_loop_rejected(self):
        bn = BayesianNetwork([2, 2])
        with pytest.raises(ValueError, match="self-loop"):
            bn.add_edge(1, 1)

    def test_duplicate_edge_rejected(self):
        bn = BayesianNetwork([2, 2])
        bn.add_edge(0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            bn.add_edge(0, 1)

    def test_cycle_rejected(self):
        bn = BayesianNetwork([2, 2, 2])
        bn.add_edge(0, 1)
        bn.add_edge(1, 2)
        with pytest.raises(ValueError, match="cycle"):
            bn.add_edge(2, 0)

    def test_out_of_range_variable_rejected(self):
        bn = BayesianNetwork([2, 2])
        with pytest.raises(ValueError, match="out of range"):
            bn.add_edge(0, 5)

    def test_topological_order_respects_edges(self):
        bn = BayesianNetwork([2] * 5)
        edges = [(0, 2), (1, 2), (2, 3), (1, 4)]
        for a, b in edges:
            bn.add_edge(a, b)
        order = bn.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for a, b in edges:
            assert pos[a] < pos[b]

    def test_adding_parent_invalidates_cpt(self):
        bn = BayesianNetwork([2, 2])
        bn.set_cpt(0, PotentialTable([0], [2], np.array([0.5, 0.5])))
        bn.set_cpt(1, PotentialTable([1], [2], np.array([0.5, 0.5])))
        bn.add_edge(0, 1)
        with pytest.raises(KeyError):
            bn.cpt(1)


class TestCpts:
    def test_set_cpt_wrong_scope_rejected(self):
        bn = BayesianNetwork([2, 2])
        bn.add_edge(0, 1)
        with pytest.raises(ValueError, match="scope"):
            bn.set_cpt(1, PotentialTable([1], [2], np.array([0.5, 0.5])))

    def test_set_cpt_unnormalized_rejected(self):
        bn = BayesianNetwork([2])
        with pytest.raises(ValueError, match="not normalized"):
            bn.set_cpt(0, PotentialTable([0], [2], np.array([0.5, 0.6])))

    def test_set_cpt_negative_entry_rejected(self):
        # [1.5, -0.5] sums to 1, so the normalization check alone admits it.
        bn = BayesianNetwork([2])
        with pytest.raises(ValueError, match="negative"):
            bn.set_cpt(0, PotentialTable([0], [2], np.array([1.5, -0.5])))

    def test_network_from_dict_refuses_a_negative_entry(self):
        from repro.io.json_io import network_from_dict, network_to_dict

        doc = network_to_dict(_two_node_net())
        assert doc["cpts"]["0"]["values"] == [0.3, 0.7]
        doc["cpts"]["0"]["values"] = [1.5, -0.5]
        with pytest.raises(ValueError, match="negative"):
            network_from_dict(doc)

    def test_set_cpt_wrong_cardinality_rejected(self):
        bn = BayesianNetwork([2])
        with pytest.raises(ValueError, match="cardinality"):
            bn.set_cpt(0, PotentialTable([0], [3], np.array([0.2, 0.3, 0.5])))

    def test_missing_cpt_raises(self):
        bn = BayesianNetwork([2])
        with pytest.raises(KeyError):
            bn.cpt(0)
        assert not bn.has_all_cpts()

    def test_randomize_cpts_normalized(self):
        bn = BayesianNetwork([2, 3, 2])
        bn.add_edge(0, 1)
        bn.add_edge(1, 2)
        bn.randomize_cpts(np.random.default_rng(0))
        assert bn.has_all_cpts()
        for v in range(3):
            cpt = bn.cpt(v)
            axis = cpt.variables.index(v)
            assert np.allclose(cpt.values.sum(axis=axis), 1.0)
            assert np.all(cpt.values > 0)


class TestSemantics:
    def test_joint_table_is_distribution(self):
        bn = _two_node_net()
        joint = bn.joint_table()
        assert np.isclose(joint.total(), 1.0)

    def test_joint_matches_hand_computation(self):
        bn = _two_node_net()
        joint = bn.joint_table().aligned_to([0, 1])
        expected = np.array([[0.3 * 0.9, 0.3 * 0.1], [0.7 * 0.4, 0.7 * 0.6]])
        assert np.allclose(joint.values, expected)

    def test_marginal_bruteforce_prior(self):
        bn = _two_node_net()
        m = bn.marginal_bruteforce(1)
        expected = np.array([0.3 * 0.9 + 0.7 * 0.4, 0.3 * 0.1 + 0.7 * 0.6])
        assert np.allclose(m, expected)

    def test_marginal_bruteforce_with_evidence(self):
        bn = _two_node_net()
        # P(0 | 1 = 0) by Bayes' rule.
        p1_0 = 0.3 * 0.9 + 0.7 * 0.4
        expected = np.array([0.3 * 0.9, 0.7 * 0.4]) / p1_0
        assert np.allclose(bn.marginal_bruteforce(0, {1: 0}), expected)

    def test_joint_requires_all_cpts(self):
        bn = BayesianNetwork([2, 2])
        with pytest.raises(RuntimeError, match="CPTs"):
            bn.joint_table()


class TestCpdBuilders:
    def test_uniform(self):
        cpd = uniform_cpd(3, 4)
        assert np.allclose(cpd.values, 0.25)

    def test_tabular_validates_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tabular_cpd(1, 2, [0], [2], np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_tabular_in_network(self):
        bn = BayesianNetwork([2, 2])
        bn.add_edge(0, 1)
        bn.set_cpt(0, uniform_cpd(0, 2))
        bn.set_cpt(
            1, tabular_cpd(1, 2, [0], [2], np.array([[0.9, 0.1], [0.2, 0.8]]))
        )
        assert np.allclose(
            bn.marginal_bruteforce(1), [0.55, 0.45]
        )

    def test_deterministic_xor(self):
        cpd = deterministic_cpd(2, 2, [0, 1], [2, 2], lambda a, b: a ^ b)
        assert cpd.values[0, 1, 1] == 1.0
        assert cpd.values[1, 1, 0] == 1.0
        assert np.allclose(cpd.values.sum(axis=-1), 1.0)

    def test_deterministic_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            deterministic_cpd(1, 2, [0], [2], lambda a: 5)

    def test_noisy_or_no_parents_active(self):
        cpd = noisy_or_cpd(2, [0, 1], [0.8, 0.6], leak=0.1)
        assert cpd.values[0, 0, 1] == pytest.approx(0.1)

    def test_noisy_or_all_parents_active(self):
        cpd = noisy_or_cpd(2, [0, 1], [0.8, 0.6], leak=0.0)
        assert cpd.values[1, 1, 1] == pytest.approx(1 - 0.2 * 0.4)

    def test_noisy_or_rows_normalized(self):
        cpd = noisy_or_cpd(3, [0, 1, 2], [0.5, 0.5, 0.5], leak=0.05)
        assert np.allclose(cpd.values.sum(axis=-1), 1.0)

    def test_noisy_or_validation(self):
        with pytest.raises(ValueError):
            noisy_or_cpd(1, [0], [0.5, 0.5])
        with pytest.raises(ValueError):
            noisy_or_cpd(1, [0], [1.5])
        with pytest.raises(ValueError):
            noisy_or_cpd(1, [0], [0.5], leak=1.0)

    def test_noisy_or_inference_end_to_end(self):
        # Two causes, noisy-OR effect; verify posterior "explaining away".
        bn = BayesianNetwork([2, 2, 2])
        bn.add_edge(0, 2)
        bn.add_edge(1, 2)
        bn.set_cpt(0, tabular_cpd(0, 2, [], [], np.array([0.9, 0.1])))
        bn.set_cpt(1, tabular_cpd(1, 2, [], [], np.array([0.7, 0.3])))
        bn.set_cpt(2, noisy_or_cpd(2, [0, 1], [0.9, 0.8], leak=0.01))
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({2: 1})
        engine.propagate()
        p0_effect = engine.marginal(0)[1]
        engine.set_evidence({2: 1, 1: 1})
        engine.propagate()
        p0_explained = engine.marginal(0)[1]
        assert p0_explained < p0_effect  # cause 1 explains the effect away

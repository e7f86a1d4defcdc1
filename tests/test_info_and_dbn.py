"""Dynamic Bayesian networks."""

import numpy as np
import pytest

from repro.bn.dbn import DynamicBayesianNetwork, make_hmm
from repro.inference.engine import InferenceEngine
from repro.potential.table import PotentialTable


def _toy_hmm():
    return make_hmm(
        num_states=2,
        num_observations=2,
        initial=np.array([0.6, 0.4]),
        transition=np.array([[0.7, 0.3], [0.2, 0.8]]),
        emission=np.array([[0.9, 0.1], [0.3, 0.7]]),
    )


def _forward_algorithm(initial, transition, emission, observations):
    """Classic HMM forward pass, the independent oracle."""
    alpha = initial * emission[:, observations[0]]
    for obs in observations[1:]:
        alpha = (alpha @ transition) * emission[:, obs]
    return alpha / alpha.sum()


class TestDbn:
    def test_unrolled_sizes(self):
        dbn = _toy_hmm()
        bn = dbn.unroll(5)
        assert bn.num_variables == 10
        assert bn.has_all_cpts()

    def test_unrolled_joint_is_distribution(self):
        bn = _toy_hmm().unroll(3)
        assert np.isclose(bn.joint_table().total(), 1.0)

    def test_filtering_matches_forward_algorithm(self):
        initial = np.array([0.6, 0.4])
        transition = np.array([[0.7, 0.3], [0.2, 0.8]])
        emission = np.array([[0.9, 0.1], [0.3, 0.7]])
        dbn = make_hmm(2, 2, initial, transition, emission)
        observations = [0, 1, 1, 0, 1]
        T = len(observations)
        bn = dbn.unroll(T)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence(
            {dbn.variable_at(1, t): observations[t] for t in range(T)}
        )
        engine.propagate()
        got = engine.marginal(dbn.variable_at(0, T - 1))
        want = _forward_algorithm(initial, transition, emission, observations)
        assert np.allclose(got, want)

    def test_smoothing_uses_future_evidence(self):
        dbn = _toy_hmm()
        bn = dbn.unroll(4)
        engine = InferenceEngine.from_network(bn)
        # Posterior of the state at t=1 given only past evidence...
        engine.set_evidence({dbn.variable_at(1, 0): 0})
        engine.propagate()
        filtered = engine.marginal(dbn.variable_at(0, 1))
        # ...shifts when future observations arrive (smoothing).
        engine.set_evidence(
            {dbn.variable_at(1, 0): 0, dbn.variable_at(1, 3): 1}
        )
        engine.propagate()
        smoothed = engine.marginal(dbn.variable_at(0, 1))
        assert not np.allclose(filtered, smoothed)

    def test_single_slice_needs_no_transition(self):
        dbn = DynamicBayesianNetwork([2])
        dbn.set_prior_cpt(
            0, PotentialTable([0], [2], np.array([0.5, 0.5]))
        )
        bn = dbn.unroll(1)
        assert bn.num_variables == 1

    def test_validation(self):
        dbn = DynamicBayesianNetwork([2, 2])
        with pytest.raises(ValueError):
            dbn.add_intra_edge(0, 0)
        with pytest.raises(ValueError):
            dbn.add_inter_edge(0, 5)
        with pytest.raises(ValueError):
            dbn.unroll(0)
        with pytest.raises(ValueError, match="prior"):
            dbn.unroll(2)

    def test_hmm_builder_validation(self):
        with pytest.raises(ValueError):
            make_hmm(2, 2, np.array([1.0]), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            make_hmm(2, 2, np.array([0.5, 0.5]), np.eye(3), np.eye(2))

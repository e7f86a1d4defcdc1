"""Soft (virtual / likelihood) evidence against brute-force computation."""

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.inference.evidence import Evidence
from repro.potential.primitives import marginalize
from repro.potential.table import PotentialTable


def _brute_posterior(bn, target, weights_by_var, hard=None):
    """Posterior with likelihood vectors multiplied into the joint."""
    joint = bn.joint_table()
    if hard:
        joint = joint.reduce(hard)
    values = joint.values
    for var, weights in weights_by_var.items():
        axis = joint.variables.index(var)
        shape = [1] * len(joint.cardinalities)
        shape[axis] = len(weights)
        values = values * np.asarray(weights).reshape(shape)
    weighted = PotentialTable(joint.variables, joint.cardinalities, values)
    return marginalize(weighted, (target,)).normalize().values


class TestEvidenceApi:
    def test_observe_soft_and_retract(self):
        e = Evidence()
        e.observe_soft(3, [0.5, 0.5])
        assert e.has_soft
        e.retract(3)
        assert not e.has_soft

    def test_invalid_weights_rejected(self):
        e = Evidence()
        with pytest.raises(ValueError):
            e.observe_soft(0, [1.0])  # too short
        with pytest.raises(ValueError):
            e.observe_soft(0, [-0.1, 1.0])  # negative
        with pytest.raises(ValueError):
            e.observe_soft(0, [0.0, 0.0])  # all zero
        with pytest.raises(ValueError):
            e.observe_soft(-1, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Evidence().observe_soft(0, [bad, 1.0])
        # Through the engine: refused up front, nothing computed or cached.
        engine = InferenceEngine.from_network(random_network(6, seed=1))
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.query({0: [bad, 1.0]}, vars=[3])
        assert len(engine.cache) == 0
        assert engine.evidence.soft_as_dict() == {}

    def test_checked_against_validates_length(self):
        e = Evidence()
        e.observe_soft(0, [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="weights"):
            e.checked_against([2, 2])

    def test_soft_as_dict_is_copy(self):
        e = Evidence()
        e.observe_soft(0, [0.5, 0.5])
        d = e.soft_as_dict()
        d[0][0] = 99.0
        assert e.soft_as_dict()[0][0] == 0.5


class TestSoftInference:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce(self, seed):
        bn = random_network(
            8, cardinality=2, max_parents=3, edge_probability=0.8, seed=seed
        )
        engine = InferenceEngine.from_network(bn)
        weights = {2: [0.3, 0.9], 6: [1.0, 0.25]}
        for var, w in weights.items():
            engine.observe_soft(var, w)
        engine.propagate()
        for target in (0, 4, 7):
            got = engine.marginal(target)
            want = _brute_posterior(bn, target, weights)
            assert np.allclose(got, want), f"seed {seed} target {target}"

    def test_mixed_hard_and_soft(self):
        bn = random_network(
            8, max_parents=2, edge_probability=0.8, seed=9
        )
        engine = InferenceEngine.from_network(bn)
        engine.observe(1, 0)
        engine.observe_soft(3, [0.1, 0.8])
        engine.propagate()
        want = _brute_posterior(bn, 5, {3: [0.1, 0.8]}, hard={1: 0})
        assert np.allclose(engine.marginal(5), want)

    def test_uniform_soft_evidence_is_noop(self):
        bn = random_network(
            7, max_parents=2, edge_probability=0.8, seed=10
        )
        plain = InferenceEngine.from_network(bn)
        plain.propagate()
        soft = InferenceEngine.from_network(bn)
        soft.observe_soft(2, [1.0, 1.0])
        soft.propagate()
        assert np.allclose(plain.marginal(4), soft.marginal(4))

    def test_sharp_soft_evidence_approaches_hard(self):
        bn = random_network(
            7, max_parents=2, edge_probability=0.8, seed=11
        )
        hard = InferenceEngine.from_network(bn)
        hard.set_evidence({2: 1})
        hard.propagate()
        soft = InferenceEngine.from_network(bn)
        soft.observe_soft(2, [0.0, 1.0])
        soft.propagate()
        assert np.allclose(hard.marginal(5), soft.marginal(5))

    def test_soft_evidence_survives_set_evidence_copy(self):
        bn = random_network(6, max_parents=2, edge_probability=0.8, seed=12)
        e = Evidence({0: 1})
        e.observe_soft(2, [0.4, 0.6])
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence(e)
        engine.propagate()
        want = _brute_posterior(bn, 4, {2: [0.4, 0.6]}, hard={0: 1})
        assert np.allclose(engine.marginal(4), want)


class TestMarginalsAll:
    def test_marginals_all_covers_every_variable(self):
        bn = random_network(9, max_parents=2, edge_probability=0.8, seed=14)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        all_marginals = engine.marginals_all()
        assert set(all_marginals) == set(range(9))
        for v, m in all_marginals.items():
            assert np.isclose(m.sum(), 1.0)
            assert np.allclose(m, bn.marginal_bruteforce(v))

"""Evidence sensitivity analysis."""

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.sensitivity import (
    evidence_impact,
    finding_strength,
    rank_findings,
)
from repro.jt.build import junction_tree_from_network
from repro.models import asia


@pytest.fixture
def asia_tree():
    bn, _ = asia()
    return junction_tree_from_network(bn)


class TestEvidenceImpact:
    def test_keys_match_evidence(self, asia_tree):
        impact = evidence_impact(asia_tree, 3, {2: 1, 6: 1, 0: 1})
        assert set(impact) == {2, 6, 0}
        assert all(v >= 0 for v in impact.values())

    def test_xray_dominates_for_lung_cancer(self, asia_tree):
        # For the lung-cancer posterior, the abnormal X-ray is far more
        # informative than the visit to Asia.
        impact = evidence_impact(asia_tree, 3, {6: 1, 0: 1})
        assert impact[6] > impact[0]

    def test_irrelevant_finding_zero_impact(self):
        bn = random_network(8, edge_probability=0.0, seed=1)
        jt = junction_tree_from_network(bn)
        # Fully disconnected network: nothing influences anything.
        impact = evidence_impact(jt, 0, {3: 1})
        assert impact[3] == pytest.approx(0.0, abs=1e-12)

    def test_observed_target_rejected(self, asia_tree):
        with pytest.raises(ValueError):
            evidence_impact(asia_tree, 3, {3: 1})

    def test_engine_state_restored_after_sweep(self, asia_tree):
        from repro.inference.shafershenoy import ShaferShenoyEngine

        evidence = {2: 1, 6: 1}
        impact_once = evidence_impact(asia_tree, 3, evidence)
        impact_twice = evidence_impact(asia_tree, 3, evidence)
        for var in evidence:
            assert impact_once[var] == pytest.approx(impact_twice[var])


class TestFindingStrength:
    def test_solo_strengths_nonnegative(self, asia_tree):
        strength = finding_strength(asia_tree, 3, {2: 1, 6: 1})
        assert all(v >= 0 for v in strength.values())

    def test_stronger_finding_ranks_higher(self, asia_tree):
        strength = finding_strength(asia_tree, 3, {6: 1, 0: 1})
        assert strength[6] > strength[0]


class TestRanking:
    def test_sorted_descending(self, asia_tree):
        ranked = rank_findings(asia_tree, 3, {2: 1, 6: 1, 0: 1})
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)

    def test_consistent_with_impact(self, asia_tree):
        evidence = {2: 1, 6: 1}
        impact = evidence_impact(asia_tree, 3, evidence)
        ranked = rank_findings(asia_tree, 3, evidence)
        assert dict(ranked) == pytest.approx(impact)


class TestInformationGain:
    def test_matches_mutual_information(self, asia_tree):
        """EIG with no evidence equals I(candidate; target) on the joint."""
        from repro.inference.sensitivity import expected_information_gain
        from repro.models import asia
        from repro.potential.primitives import marginalize

        def entropy(table):
            p = table.values[table.values > 0]
            return float(-(p * np.log(p)).sum())

        bn, _ = asia()
        joint = bn.joint_table().normalize()
        for candidate in (6, 0, 2):
            eig = expected_information_gain(asia_tree, 3, candidate)
            pair = marginalize(joint, (candidate, 3))
            mi = (
                entropy(marginalize(pair, (candidate,)))
                + entropy(marginalize(pair, (3,)))
                - entropy(pair)
            )
            assert eig == pytest.approx(mi, abs=1e-9)

    def test_nonnegative_and_zero_for_irrelevant(self):
        from repro.inference.sensitivity import expected_information_gain

        bn = random_network(6, edge_probability=0.0, seed=4)
        jt = junction_tree_from_network(bn)
        assert expected_information_gain(jt, 0, 3) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_xray_is_the_best_test_for_lung(self, asia_tree):
        from repro.inference.sensitivity import best_next_observation

        # With only "smoker" known, the X-ray is the most informative
        # next observation for lung cancer — more than dyspnoea or asia.
        ranked = best_next_observation(
            asia_tree, 3, candidates=[0, 6, 7], evidence={2: 1}
        )
        assert ranked[0][0] == 6
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)

    def test_validation(self, asia_tree):
        from repro.inference.sensitivity import expected_information_gain

        with pytest.raises(ValueError):
            expected_information_gain(asia_tree, 3, 3)
        with pytest.raises(ValueError):
            expected_information_gain(asia_tree, 3, 6, {6: 1})

"""Calibration utilities and the extension scheduling policies."""

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.propagation import propagate_reference
from repro.jt.build import junction_tree_from_network
from repro.jt.calibration import (
    check_calibrated,
    evidence_probability,
    separator_disagreements,
)
from repro.jt.generation import synthetic_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy, WorkStealingPolicy
from repro.simcore.profiles import XEON
from repro.tasks.dag import build_task_graph


class TestCalibration:
    def test_propagated_tree_is_calibrated(self):
        bn = random_network(10, max_parents=3, edge_probability=0.8, seed=1)
        jt = junction_tree_from_network(bn)
        potentials = propagate_reference(jt)
        assert separator_disagreements(jt, potentials) == []
        check_calibrated(jt, potentials)

    def test_uncalibrated_tree_detected(self):
        bn = random_network(10, max_parents=3, edge_probability=0.8, seed=2)
        jt = junction_tree_from_network(bn)
        # Raw CPT-initialized potentials are not calibrated.
        raw = {i: jt.potential(i).copy() for i in range(jt.num_cliques)}
        if jt.num_cliques > 1:
            with pytest.raises(ValueError):
                check_calibrated(jt, raw)

    def test_evidence_probability_matches_bruteforce(self):
        bn = random_network(9, max_parents=3, edge_probability=0.8, seed=3)
        jt = junction_tree_from_network(bn)
        evidence = {0: 1, 4: 0}
        potentials = propagate_reference(jt, evidence)
        expected = bn.joint_table().reduce(evidence).total()
        assert np.isclose(
            evidence_probability(jt, potentials), expected
        )

    def test_mass_inconsistency_detected(self):
        bn = random_network(8, max_parents=2, edge_probability=0.8, seed=4)
        jt = junction_tree_from_network(bn)
        potentials = propagate_reference(jt)
        if jt.num_cliques > 1:
            broken = dict(potentials)
            table = broken[0]
            from repro.potential.table import PotentialTable

            broken[0] = PotentialTable(
                table.variables, table.cardinalities, table.values * 3.0
            )
            with pytest.raises(ValueError):
                check_calibrated(jt, broken)


@pytest.fixture(scope="module")
def graph():
    tree = synthetic_tree(
        48, clique_width=12, states=2, avg_children=3, seed=88
    )
    tree, _, _ = reroot_optimally(tree)
    return build_task_graph(tree)


class TestWorkStealingPolicy:
    def test_cheaper_overhead_than_collaborative(self, graph):
        ws = WorkStealingPolicy().simulate(graph, XEON, 8)
        collab = CollaborativePolicy().simulate(graph, XEON, 8)
        assert ws.total_sched() < collab.total_sched()

    def test_makespan_not_worse(self, graph):
        ws = WorkStealingPolicy().simulate(graph, XEON, 8)
        collab = CollaborativePolicy().simulate(graph, XEON, 8)
        assert ws.makespan <= collab.makespan * 1.01

    def test_trace_recording(self, graph):
        result = WorkStealingPolicy().simulate(
            graph, XEON, 4, record_trace=True
        )
        assert result.trace is not None
        result.trace.check_no_overlap()

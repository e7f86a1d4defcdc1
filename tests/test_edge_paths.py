"""Edge-path coverage: disconnected components, scalar separators,
experiment runner wrappers, and facade kwargs."""

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.inference.propagation import propagate_reference
from repro.jt.build import junction_tree_from_network
from repro.sched import CollaborativeExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


class TestDisconnectedNetworks:
    """The spanning tree joins components with empty (scalar) separators."""

    @pytest.fixture
    def network(self):
        # Two independent chains: 0->1->2 and 3->4.
        from repro.bn.network import BayesianNetwork

        bn = BayesianNetwork([2] * 5)
        bn.add_edge(0, 1)
        bn.add_edge(1, 2)
        bn.add_edge(3, 4)
        bn.randomize_cpts(np.random.default_rng(7))
        return bn

    def test_marginals_match_bruteforce(self, network):
        engine = InferenceEngine.from_network(network)
        engine.set_evidence({0: 1, 3: 0})
        engine.propagate()
        for v in (1, 2, 4):
            assert np.allclose(
                engine.marginal(v),
                network.marginal_bruteforce(v, {0: 1, 3: 0}),
            )

    def test_parallel_executor_crosses_scalar_separators(self, network):
        jt = junction_tree_from_network(network)
        graph = build_task_graph(jt)
        serial = PropagationState(jt, {0: 1})
        from repro.sched.serial import SerialExecutor

        SerialExecutor().run(graph, serial)
        parallel = PropagationState(jt, {0: 1})
        CollaborativeExecutor(num_threads=3, partition_threshold=2).run(
            graph, parallel
        )
        for i in range(jt.num_cliques):
            assert np.allclose(
                serial.potentials[i].values, parallel.potentials[i].values
            )

    def test_evidence_probability_factorizes(self, network):
        jt = junction_tree_from_network(network)
        both = propagate_reference(jt, {0: 1, 3: 0})
        only_a = propagate_reference(jt, {0: 1})
        only_b = propagate_reference(jt, {3: 0})
        # Independent components: P(e_a, e_b) = P(e_a) P(e_b).
        assert np.isclose(
            both[jt.root].total(),
            only_a[jt.root].total() * only_b[jt.root].total(),
        )


class TestExperimentWrappers:
    def test_manycore_runner_small(self):
        from repro.experiments.manycore import run as run_manycore

        results = run_manycore(cores=(1, 2))
        assert set(results) == {
            "collaborative (shared locks)",
            "work-stealing (Section 8)",
        }
        for curve in results.values():
            assert curve[0] == pytest.approx(1.0)

    def test_robustness_runner_small(self):
        from repro.experiments.robustness import run as run_robustness

        result = run_robustness(seeds=(0, 1), cores=4, which_tree=3)
        assert len(result.speedups) == 2
        assert result.mean > 1.0
        assert result.spread >= 0.0


class TestFacadeKwargs:
    def test_machine_forwards_record_trace(self):
        from repro.jt.generation import synthetic_tree
        from repro.simcore.machine import Machine
        from repro.simcore.policies import CollaborativePolicy
        from repro.simcore.profiles import XEON

        tree = synthetic_tree(10, clique_width=3, seed=1)
        graph = build_task_graph(tree)
        result = Machine(XEON, 2).run(
            CollaborativePolicy(), graph, record_trace=True
        )
        assert result.trace is not None

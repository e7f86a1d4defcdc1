"""End-to-end tests for the InferenceEngine public API."""

import numpy as np
import pytest

from repro.bn.generation import chain_network, random_network
from repro.inference.engine import InferenceEngine
from repro.inference.evidence import Evidence
from repro.jt.generation import synthetic_tree
from repro.potential.table import PotentialTable
from repro.sched import CollaborativeExecutor
from repro.tasks.layout import table_layout


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_prior_marginals(self, seed):
        bn = random_network(
            9, cardinality=2, max_parents=3, edge_probability=0.8, seed=seed
        )
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        for v in range(bn.num_variables):
            assert np.allclose(
                engine.marginal(v), bn.marginal_bruteforce(v)
            ), f"seed {seed} variable {v}"

    @pytest.mark.parametrize("seed", range(5))
    def test_posterior_marginals(self, seed):
        bn = random_network(
            9, cardinality=2, max_parents=3, edge_probability=0.8, seed=seed
        )
        evidence = {1: 1, 5: 0}
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence(evidence)
        engine.propagate()
        for v in range(bn.num_variables):
            if v in evidence:
                continue
            assert np.allclose(
                engine.marginal(v), bn.marginal_bruteforce(v, evidence)
            )

    def test_evidence_variable_marginal_is_point_mass(self):
        bn = random_network(8, max_parents=2, edge_probability=0.8, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({2: 1})
        engine.propagate()
        m = engine.marginal(2)
        assert np.allclose(m, [0.0, 1.0])

    def test_multistate_network(self):
        bn = random_network(
            7, cardinality=3, max_parents=2, edge_probability=0.8, seed=4
        )
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({0: 2})
        engine.propagate()
        for v in range(1, bn.num_variables):
            assert np.allclose(
                engine.marginal(v), bn.marginal_bruteforce(v, {0: 2})
            )

    def test_likelihood_matches_bruteforce(self):
        bn = random_network(8, max_parents=3, edge_probability=0.8, seed=5)
        evidence = {0: 1, 3: 0}
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence(evidence)
        engine.propagate()
        joint = bn.joint_table().reduce(evidence)
        assert np.isclose(engine.likelihood(), joint.total())

    def test_chain_network_forward_filtering(self):
        bn = chain_network(12, seed=6)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({0: 1})
        engine.propagate()
        assert np.allclose(
            engine.marginal(11), bn.marginal_bruteforce(11, {0: 1})
        )


class TestRerootingIntegration:
    def test_reroot_changes_nothing_numerically(self):
        bn = random_network(10, max_parents=3, edge_probability=0.8, seed=7)
        with_r = InferenceEngine.from_network(bn, reroot=True)
        without = InferenceEngine.from_network(bn, reroot=False)
        with_r.set_evidence({2: 0})
        without.set_evidence({2: 0})
        with_r.propagate()
        without.propagate()
        for v in range(bn.num_variables):
            assert np.allclose(with_r.marginal(v), without.marginal(v))

    def test_reroot_never_increases_critical_path(self):
        bn = random_network(12, max_parents=3, edge_probability=0.7, seed=8)
        with_r = InferenceEngine.from_network(bn, reroot=True)
        without = InferenceEngine.from_network(bn, reroot=False)
        assert with_r.critical_path_weight <= without.critical_path_weight + 1e-9


class TestEngineApi:
    def test_requires_potentials(self):
        bare = synthetic_tree(5, clique_width=3, seed=0)
        with pytest.raises(ValueError, match="potentials"):
            InferenceEngine(bare)

    def test_marginal_before_propagate_raises(self):
        bn = random_network(6, seed=9)
        engine = InferenceEngine.from_network(bn)
        with pytest.raises(RuntimeError, match="propagate"):
            engine.marginal(0)

    def test_setting_evidence_invalidates_results(self):
        # Changing the findings after propagate() must never serve the old
        # posterior: the engine transparently repropagates on query.
        bn = random_network(6, max_parents=2, edge_probability=0.8, seed=10)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.observe(0, 1)
        assert np.allclose(
            engine.marginal(1), bn.marginal_bruteforce(1, {0: 1}), atol=1e-12
        )

    def test_observe_chaining(self):
        bn = random_network(6, max_parents=2, edge_probability=0.8, seed=11)
        engine = InferenceEngine.from_network(bn)
        engine.observe(0, 1).observe(2, 0)
        engine.propagate()
        assert np.allclose(
            engine.marginal(4), bn.marginal_bruteforce(4, {0: 1, 2: 0})
        )

    def test_evidence_object_accepted(self):
        bn = random_network(6, max_parents=2, edge_probability=0.8, seed=12)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence(Evidence({1: 0}))
        engine.propagate()
        assert np.allclose(
            engine.marginal(3), bn.marginal_bruteforce(3, {1: 0})
        )

    def test_invalid_evidence_rejected_at_propagate(self):
        bn = random_network(6, seed=13)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({0: 5})
        with pytest.raises(ValueError, match="out of range"):
            engine.propagate()

    def test_unknown_evidence_variable_rejected(self):
        bn = random_network(6, seed=14)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({99: 0})
        with pytest.raises(ValueError, match="does not exist"):
            engine.propagate()

    def test_parallel_executor_through_engine(self):
        bn = random_network(9, max_parents=3, edge_probability=0.8, seed=15)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({1: 1})
        engine.propagate(
            CollaborativeExecutor(num_threads=4, partition_threshold=8)
        )
        assert np.allclose(
            engine.marginal(5), bn.marginal_bruteforce(5, {1: 1})
        )
        assert engine.last_stats.num_threads == 4

    def test_clique_marginal_through_engine(self):
        bn = random_network(8, max_parents=2, edge_probability=0.8, seed=16)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        cm = engine.clique_marginal(0)
        assert np.isclose(cm.total(), 1.0)

    def test_repr(self):
        bn = random_network(6, seed=17)
        engine = InferenceEngine.from_network(bn)
        assert "InferenceEngine" in repr(engine)

    def test_synthetic_tree_engine(self):
        tree = synthetic_tree(14, clique_width=3, seed=18)
        tree.initialize_potentials(np.random.default_rng(18))
        engine = InferenceEngine(tree)
        engine.propagate()
        var = tree.cliques[2].variables[0]
        m = engine.marginal(var)
        assert np.isclose(m.sum(), 1.0)


class TestSharedStructure:
    def _engine(self):
        bn = random_network(12, max_parents=2, seed=4)
        return bn, InferenceEngine.from_network(bn)

    def test_sharing_reuses_the_compiled_structure(self):
        bn, engine = self._engine()
        engine.propagate()
        table = engine.jt.potentials[0]
        doubled = PotentialTable(
            table.variables, table.cardinalities, table.values * 2.0
        )
        twin = engine.sharing(engine.jt.with_priors({0: doubled}))
        assert twin.task_graph is engine.task_graph
        assert twin.jt.cliques is engine.jt.cliques
        assert table_layout(twin.jt) is table_layout(engine.jt)
        assert twin._state is None and not twin.evidence.as_dict()
        # Scaling one prior is absorbed by normalization: same posteriors.
        twin.observe(3, 1)
        engine.observe(3, 1)
        twin.propagate()
        for v in range(bn.num_variables):
            np.testing.assert_allclose(
                twin.marginal(v), engine.marginal(v), atol=1e-12
            )
        assert engine.jt.potentials[0] is table  # the original kept its own

    def test_sharing_refuses_another_structure(self):
        _, engine = self._engine()
        _, other = self._engine()
        with pytest.raises(ValueError, match="structure"):
            engine.sharing(other.jt)

    def test_fork_answers_for_its_own_findings_and_leaves_the_original(self):
        bn, engine = self._engine()
        engine.set_evidence({0: 1, 5: 0})
        engine.propagate()
        state = engine._state
        buffer = state.buffer.copy()
        before = {v: engine.marginal(v) for v in range(bn.num_variables)}

        fork = engine.fork()
        fork.retract(5)
        fork.observe(9, 1)
        for v in (2, 7):
            np.testing.assert_allclose(
                fork.marginal(v),
                bn.marginal_bruteforce(v, {0: 1, 9: 1}),
                atol=1e-12,
            )
        assert engine._state is state
        assert np.array_equal(state.buffer, buffer)
        assert engine.evidence.as_dict() == {0: 1, 5: 0}
        for v, values in before.items():
            assert np.array_equal(engine.marginal(v), values)

    def test_fork_of_a_partly_stale_engine_copies_the_state(self):
        bn, engine = self._engine()
        engine.propagate()
        engine.observe(0, 1)
        engine.marginal(0)  # a targeted refresh leaves cliques stale
        assert engine._stale
        state, buffer = engine._state, engine._state.buffer.copy()
        fork = engine.fork()
        assert fork._state is not state
        fork.marginals_all()
        assert np.array_equal(state.buffer, buffer)
        for v in range(bn.num_variables):
            np.testing.assert_allclose(
                fork.marginal(v), bn.marginal_bruteforce(v, {0: 1}),
                atol=1e-12,
            )

"""Large-scale integration: the whole stack on substantial inputs."""

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.inference.shafershenoy import ShaferShenoyEngine
from repro.inference.variable_elimination import ve_marginal
from repro.jt.build import junction_tree_from_network
from repro.jt.generation import paper_tree, template_tree
from repro.jt.rerooting import reroot_optimally, select_root_bruteforce
from repro.jt.validate import check_running_intersection, check_tree_structure
from repro.sched import CollaborativeExecutor
from repro.tasks.dag import build_task_graph


class TestLargeNetwork:
    """A 120-variable sparse network through the full pipeline."""

    @pytest.fixture(scope="class")
    def network(self):
        return random_network(
            120, cardinality=2, max_parents=2,
            edge_probability=0.6, seed=2026,
        )

    @pytest.fixture(scope="class")
    def engine(self, network):
        engine = InferenceEngine.from_network(network)
        engine.set_evidence({5: 1, 60: 0, 110: 1})
        engine.propagate()
        return engine

    def test_tree_is_valid(self, engine):
        check_tree_structure(engine.jt)
        check_running_intersection(engine.jt)

    def test_three_engines_agree_on_spot_checks(self, network, engine):
        evidence = {5: 1, 60: 0, 110: 1}
        ss = ShaferShenoyEngine(junction_tree_from_network(network))
        for var, state in evidence.items():
            ss.observe(var, state)
        for target in (0, 33, 77, 119):
            a = engine.marginal(target)
            b = ss.marginal(target)
            c = ve_marginal(network, target, evidence)
            assert np.allclose(a, b, atol=1e-9)
            assert np.allclose(b, c, atol=1e-9)

    def test_parallel_executor_on_large_tree(self, network):
        engine = InferenceEngine.from_network(network)
        engine.set_evidence({5: 1})
        serial_state = engine.propagate()
        reference = {
            i: serial_state.potentials[i].values.copy()
            for i in range(engine.jt.num_cliques)
        }
        parallel_state = engine.propagate(
            CollaborativeExecutor(num_threads=8, partition_threshold=512)
        )
        for i in range(engine.jt.num_cliques):
            assert np.allclose(
                parallel_state.potentials[i].values, reference[i]
            )

    def test_all_marginals_are_distributions(self, engine):
        for var, marg in engine.marginals_all().items():
            assert np.isclose(marg.sum(), 1.0), f"variable {var}"


class TestPaperScaleStructures:
    """Structure-only checks at the paper's actual workload sizes."""

    def test_jt1_pipeline_metrics(self):
        tree, root, weight = reroot_optimally(paper_tree(1))
        graph = build_task_graph(tree)
        assert graph.num_tasks == 8 * 511
        assert graph.total_work() / graph.critical_path_work() > 20
        assert tree.num_cliques == 512
        assert 15 <= max(c.width for c in tree.cliques) - 1 <= 25

    def test_rerooting_at_scale_matches_bruteforce(self):
        # 512-clique tree: Algorithm 1 must equal the O(N^2) search.
        tree = template_tree(4, num_cliques=512, clique_width=8)
        from repro.jt.rerooting import select_root

        _, fast = select_root(tree)
        _, brute = select_root_bruteforce(tree)
        assert np.isclose(fast, brute)

    def test_task_graph_valid_at_scale(self):
        tree, _, _ = reroot_optimally(paper_tree(2))
        graph = build_task_graph(tree)
        graph.validate()
        assert graph.num_tasks == 8 * 255

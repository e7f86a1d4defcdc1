"""Differential batch-vs-serial exactness suite.

The batching contract is absolute: column ``i`` of a batched propagation
equals a fresh single-case serial run of case ``i`` at 1e-9 — for every
evidence mix (empty, all-hard, all-soft, mixed), every batch size
(including B=1 and B much larger than the serve tier's queue depth), and
every executor that accepts batched states.  The serial single-case run
is the oracle; nothing here is compared against another batched run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.jt.generation import synthetic_tree
from repro.sched import CollaborativeExecutor
from repro.sched.faults import TaskExecutionError
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState

RTOL = 1e-9
ATOL = 1e-12

# Executors exercised on batched states.  The collaborative tier gets a
# tiny partition threshold so the batched *chunked* execution path
# (batch-major flat index space) is exercised, not just whole-task numpy.
BATCH_EXECUTORS = [
    ("serial", lambda: SerialExecutor()),
    (
        "collaborative",
        lambda: CollaborativeExecutor(num_threads=3, partition_threshold=16),
    ),
]


def _tree(seed, num_cliques=10, width=3, states=2, children=2):
    tree = synthetic_tree(
        num_cliques,
        clique_width=width,
        states=states,
        avg_children=children,
        seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree


def _tree_variables(tree):
    variables = set()
    for clique in tree.cliques:
        variables.update(clique.variables)
    return sorted(variables)


def _card_of(tree, var):
    return next(c.card_of(var) for c in tree.cliques if var in c.variables)


def _random_cases(tree, rng, batch, mode):
    """One evidence batch: ``(hard, soft)`` per case, in the given mode."""
    variables = _tree_variables(tree)
    cases = []
    for _ in range(batch):
        hard, soft = {}, {}
        if mode == "empty":
            pass
        elif mode == "hard":
            for var in rng.choice(variables, size=2, replace=False):
                var = int(var)
                hard[var] = int(rng.integers(_card_of(tree, var)))
        elif mode == "soft":
            for var in rng.choice(variables, size=2, replace=False):
                var = int(var)
                soft[var] = rng.uniform(0.2, 1.0, size=_card_of(tree, var))
        elif mode == "mixed":
            picks = rng.choice(variables, size=3, replace=False)
            hard[int(picks[0])] = int(rng.integers(_card_of(tree, int(picks[0]))))
            soft[int(picks[1])] = rng.uniform(
                0.2, 1.0, size=_card_of(tree, int(picks[1]))
            )
            if rng.integers(2):
                hard[int(picks[2])] = int(
                    rng.integers(_card_of(tree, int(picks[2])))
                )
        else:  # pragma: no cover - guard against typo'd parametrization
            raise ValueError(mode)
        cases.append((hard, soft))
    return cases


def _serial_oracles(tree, cases):
    graph = build_task_graph(tree)
    oracles = []
    for hard, soft in cases:
        state = PropagationState(tree, hard, soft_evidence=soft)
        SerialExecutor().run(graph, state)
        oracles.append(state)
    return oracles


def _assert_batch_matches(tree, batched, oracles, label):
    assert batched.batch == len(oracles)
    variables = _tree_variables(tree)
    likelihoods = batched.likelihood()
    for i, oracle in enumerate(oracles):
        for c in range(tree.num_cliques):
            ref = oracle.potentials[c]
            got = batched.potentials[c].case(i).aligned_to(ref.variables)
            np.testing.assert_allclose(
                got.values, ref.values, rtol=RTOL, atol=ATOL,
                err_msg=f"{label}: case {i} clique {c}",
            )
        np.testing.assert_allclose(
            likelihoods[i], oracle.likelihood(), rtol=RTOL, atol=ATOL,
            err_msg=f"{label}: case {i} likelihood",
        )
        for var in variables:
            np.testing.assert_allclose(
                batched.marginal(var)[i], oracle.marginal(var),
                rtol=RTOL, atol=ATOL,
                err_msg=f"{label}: case {i} marginal({var})",
            )


# --------------------------------------------------------------------- #
# State-level differential suite
# --------------------------------------------------------------------- #


class TestBatchedPropagationState:
    @pytest.mark.parametrize("mode", ["empty", "hard", "soft", "mixed"])
    @pytest.mark.parametrize(
        "executor_name,executor_factory", BATCH_EXECUTORS,
        ids=[name for name, _ in BATCH_EXECUTORS],
    )
    def test_batched_column_equals_serial_case(
        self, mode, executor_name, executor_factory
    ):
        tree = _tree(seed=11)
        rng = np.random.default_rng(101)
        cases = _random_cases(tree, rng, batch=5, mode=mode)
        oracles = _serial_oracles(tree, cases)
        batched = PropagationState.batched(tree, cases)
        executor_factory().run(build_task_graph(tree, batch=5), batched)
        _assert_batch_matches(
            tree, batched, oracles, f"{executor_name}/{mode}"
        )

    @pytest.mark.parametrize("batch", [1, 48])
    def test_degenerate_and_oversized_batches(self, batch):
        # B=1 must behave exactly like the single-case path, and a batch
        # far larger than the serve tier's queue depth (max_queue=32 by
        # default) must stay exact — size never trades off correctness.
        tree = _tree(seed=13, num_cliques=6)
        rng = np.random.default_rng(202)
        cases = _random_cases(tree, rng, batch=batch, mode="mixed")
        oracles = _serial_oracles(tree, cases)
        batched = PropagationState.batched(tree, cases)
        SerialExecutor().run(build_task_graph(tree, batch=batch), batched)
        _assert_batch_matches(tree, batched, oracles, f"B={batch}")

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_randomized_trees_collaborative(self, seed):
        tree = _tree(seed=seed, num_cliques=12, width=4)
        rng = np.random.default_rng(seed)
        cases = _random_cases(tree, rng, batch=4, mode="mixed")
        oracles = _serial_oracles(tree, cases)
        batched = PropagationState.batched(tree, cases)
        CollaborativeExecutor(num_threads=3, partition_threshold=8).run(
            build_task_graph(tree, batch=4), batched
        )
        _assert_batch_matches(tree, batched, oracles, f"seed={seed}")

    def test_from_cases_stacks_propagated_singles(self):
        tree = _tree(seed=17, num_cliques=6)
        rng = np.random.default_rng(303)
        cases = _random_cases(tree, rng, batch=3, mode="hard")
        oracles = _serial_oracles(tree, cases)
        stacked = PropagationState.from_cases(oracles)
        fresh = PropagationState.batched(tree, cases)
        SerialExecutor().run(build_task_graph(tree, batch=3), fresh)
        for c in range(tree.num_cliques):
            np.testing.assert_allclose(
                stacked.potentials[c].values,
                fresh.potentials[c].values,
                rtol=RTOL, atol=ATOL,
            )

    def test_impossible_case_stays_zero_without_corrupting_others(self):
        # One batch column carries contradictory evidence (zero mass);
        # its posteriors are all-zero, the other columns stay exact.
        tree = _tree(seed=19, num_cliques=5)
        rng = np.random.default_rng(404)
        var = _tree_variables(tree)[0]
        card = _card_of(tree, var)
        near_zero_soft = {var: np.full(card, 1e-300)}
        cases = [
            ({}, {}),
            ({}, near_zero_soft),
            _random_cases(tree, rng, 1, "hard")[0],
        ]
        oracles = _serial_oracles(tree, cases)
        batched = PropagationState.batched(tree, cases)
        SerialExecutor().run(build_task_graph(tree, batch=3), batched)
        _assert_batch_matches(tree, batched, oracles, "near-zero-mass")

    def test_process_executor_refuses_batched_state(self):
        tree = _tree(seed=23, num_cliques=4)
        cases = [({}, {}), ({}, {})]
        batched = PropagationState.batched(tree, cases)
        executor = ProcessSharedMemoryExecutor(num_workers=1)
        with pytest.raises(TaskExecutionError):
            executor.run(build_task_graph(tree, batch=2), batched)

    def test_incremental_refuses_batched_previous_state(self):
        tree = _tree(seed=23, num_cliques=4)
        batched = PropagationState.batched(tree, [({}, {})])
        with pytest.raises(ValueError):
            PropagationState.incremental(batched, evidence={})


# --------------------------------------------------------------------- #
# Engine-level differential suite
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def batch_network():
    return random_network(
        12, cardinality=2, max_parents=3, edge_probability=0.7, seed=77
    )


class TestEngineBatchAPI:
    @pytest.mark.parametrize(
        "executor_name,executor_factory", BATCH_EXECUTORS,
        ids=[name for name, _ in BATCH_EXECUTORS],
    )
    def test_query_batch_matches_fresh_single_engines(
        self, batch_network, executor_name, executor_factory
    ):
        rng = np.random.default_rng(55)
        deltas = [
            {},
            {0: 1},
            {1: 0, 3: 1},
            {2: rng.uniform(0.2, 1.0, size=2)},
            {0: 0, 4: rng.uniform(0.2, 1.0, size=2)},
        ]
        engine = InferenceEngine.from_network(batch_network)
        answers = engine.query_batch(deltas, executor=executor_factory())
        assert len(answers) == len(deltas)
        for delta, answer in zip(deltas, answers):
            oracle = InferenceEngine.from_network(batch_network)
            exact = oracle.query(delta)
            assert set(answer) == set(exact)
            for var in exact:
                np.testing.assert_allclose(
                    answer[var], exact[var], rtol=RTOL, atol=ATOL,
                    err_msg=f"{executor_name}: delta={delta} var={var}",
                )

    def test_propagate_batch_shapes_and_exactness(self, batch_network):
        engine = InferenceEngine.from_network(batch_network)
        deltas = [{}, {0: 1}, {5: 0}]
        state = engine.propagate_batch(deltas)
        assert state.batch == 3
        assert state.likelihood().shape == (3,)
        assert state.marginal(2).shape[0] == 3
        for i, delta in enumerate(deltas):
            oracle = InferenceEngine.from_network(batch_network)
            exact = oracle.query(delta, vars=[2])
            np.testing.assert_allclose(
                state.marginal(2)[i], exact[2], rtol=RTOL, atol=ATOL
            )

    def test_process_tier_falls_back_per_case(self, batch_network):
        # An executor that refuses batched states still serves the batch
        # API: the engine runs each case separately and stacks results.
        engine = InferenceEngine.from_network(batch_network)
        executor = ProcessSharedMemoryExecutor(num_workers=2)
        deltas = [{}, {0: 1}]
        answers = engine.query_batch(deltas, executor=executor)
        for delta, answer in zip(deltas, answers):
            oracle = InferenceEngine.from_network(batch_network)
            exact = oracle.query(delta)
            for var in exact:
                np.testing.assert_allclose(
                    answer[var], exact[var], rtol=RTOL, atol=ATOL
                )

    def test_single_case_machinery_untouched_by_batch(self, batch_network):
        engine = InferenceEngine.from_network(batch_network)
        engine.set_evidence({0: 1})
        engine.propagate()
        before = engine.marginal(3).copy()
        engine.query_batch([{}, {1: 0}, {4: 1}])
        assert engine._state.batch is None
        np.testing.assert_allclose(engine.marginal(3), before, atol=0)

    def test_empty_batch(self, batch_network):
        engine = InferenceEngine.from_network(batch_network)
        assert engine.query_batch([]) == []
        with pytest.raises(ValueError):
            engine.propagate_batch([])


# --------------------------------------------------------------------- #
# Satellite fix: per-case cache keying
# --------------------------------------------------------------------- #


class TestBatchCacheKeying:
    def test_single_query_hits_cache_after_batch_warmup(self, batch_network):
        engine = InferenceEngine.from_network(batch_network)
        deltas = [{0: 1}, {1: 0, 3: 1}, {}]
        warm = engine.query_batch(deltas)
        hits, misses = engine.cache.hits, engine.cache.misses
        # The same findings as batch case 0, now as a plain single query:
        # every marginal must come out of the cache (no new misses).
        single = engine.query({0: 1})
        assert engine.cache.misses == misses
        assert engine.cache.hits > hits
        for var, values in single.items():
            np.testing.assert_allclose(
                values, warm[0][var], rtol=0, atol=0
            )

    def test_batch_skips_fully_cached_cases(self, batch_network):
        engine = InferenceEngine.from_network(batch_network)
        first = engine.query_batch([{2: 1}])
        hits = engine.cache.hits
        # Same case again plus one new one: the repeated case is answered
        # entirely from cache and only the new case propagates — and both
        # answers are still exact.
        again = engine.query_batch([{2: 1}, {6: 0}])
        assert engine.cache.hits > hits
        for var in first[0]:
            np.testing.assert_allclose(again[0][var], first[0][var], atol=0)
        oracle = InferenceEngine.from_network(batch_network)
        exact = oracle.query({6: 0})
        for var in exact:
            np.testing.assert_allclose(
                again[1][var], exact[var], rtol=RTOL, atol=ATOL
            )

    def test_likelihood_cached_per_case(self, batch_network):
        from repro.inference.evidence import Evidence

        engine = InferenceEngine.from_network(batch_network)
        engine.query_batch([{0: 1}, {}])
        oracle = InferenceEngine.from_network(batch_network)
        oracle.set_evidence({0: 1})
        oracle.propagate()
        sig = Evidence({0: 1}).signature()
        cached = engine.cache.get_likelihood(sig)
        assert cached is not None
        np.testing.assert_allclose(cached, oracle.likelihood(), rtol=RTOL)

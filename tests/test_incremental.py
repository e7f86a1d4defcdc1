"""Incremental evidence propagation and the evidence-keyed query cache.

Covers the stale-evidence correctness fix and the incremental machinery:

* ``Evidence.version`` / ``signature()`` / ``evidence_delta`` semantics.
* The confirmed stale-marginal regression: mutating ``engine.evidence``
  directly after ``propagate()`` must never serve the old posterior.
* Restricted task-graph construction (``collect_edges`` /
  ``distribute_edges``) and the dirty-set helpers.
* Incremental-vs-full numerical equivalence (<= 1e-12) across every
  executor, including hard<->soft transitions and soft overwrites.
* The weakening-delta fallback: retraction over zeroed separators must
  refuse the incremental plan and fall back to full propagation.
* :class:`~repro.inference.cache.QueryCache` LRU behavior and the
  ``engine.query()`` delta API.
"""

import numpy as np
import pytest

from repro.bn.generation import chain_network, random_network
from repro.inference.cache import QueryCache
from repro.inference.engine import InferenceEngine
from repro.inference.evidence import Evidence, evidence_delta
from repro.inference.incremental import (
    distribute_edges_for,
    plan_incremental,
)
from repro.inference.variable_elimination import ve_query
from repro.jt.generation import synthetic_tree
from repro.sched import CollaborativeExecutor, WorkStealingExecutor
from repro.sched.resilient import ResilientExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.clique_graph import dirty_ancestor_closure, dirty_cliques
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT, DISTRIBUTE


# --------------------------------------------------------------------- #
# Evidence versioning, signatures, deltas
# --------------------------------------------------------------------- #


class TestEvidenceVersion:
    def test_every_mutation_bumps_version(self):
        ev = Evidence()
        v0 = ev.version
        ev.observe(0, 1)
        assert ev.version == v0 + 1
        ev.observe_soft(1, [0.5, 0.5])
        assert ev.version == v0 + 2
        ev.retract(0)
        assert ev.version == v0 + 3
        # Even a no-op retract bumps (cheap, and guarantees staleness
        # detection never misses a mutation).
        ev.retract(42)
        assert ev.version == v0 + 4

    def test_constructor_assignments_count_as_mutations(self):
        assert Evidence({0: 1, 2: 0}).version == 2

    def test_signature_is_order_independent(self):
        a = Evidence()
        a.observe(3, 1)
        a.observe(1, 0)
        a.observe_soft(2, [0.25, 0.75])
        b = Evidence()
        b.observe_soft(2, [0.25, 0.75])
        b.observe(1, 0)
        b.observe(3, 1)
        assert a.signature() == b.signature()

    def test_signature_distinguishes_hard_from_soft(self):
        hard = Evidence()
        hard.observe(0, 1)
        soft = Evidence()
        soft.observe_soft(0, [0.0, 1.0])
        assert hard.signature() != soft.signature()

    def test_signature_changes_with_weights(self):
        a = Evidence()
        a.observe_soft(0, [0.5, 0.5])
        b = Evidence()
        b.observe_soft(0, [0.4, 0.6])
        assert a.signature() != b.signature()


class TestEvidenceDelta:
    def test_identical_snapshots_have_empty_delta(self):
        changed, weakening = evidence_delta(
            {0: 1}, {2: np.array([0.5, 0.5])},
            {0: 1}, {2: np.array([0.5, 0.5])},
        )
        assert changed == set()
        assert not weakening

    def test_fresh_addition_is_monotone(self):
        changed, weakening = evidence_delta({0: 1, 3: 0}, {}, {0: 1}, {})
        assert changed == {3}
        assert not weakening

    def test_retraction_is_weakening(self):
        changed, weakening = evidence_delta({}, {}, {0: 1}, {})
        assert changed == {0}
        assert weakening

    def test_hard_overwrite_is_weakening(self):
        changed, weakening = evidence_delta({0: 0}, {}, {0: 1}, {})
        assert changed == {0}
        assert weakening

    def test_hard_to_soft_and_back_are_weakening(self):
        changed, weakening = evidence_delta(
            {}, {0: np.array([0.5, 0.5])}, {0: 1}, {}
        )
        assert changed == {0} and weakening
        changed, weakening = evidence_delta(
            {0: 1}, {}, {}, {0: np.array([0.5, 0.5])}
        )
        assert changed == {0} and weakening

    def test_soft_overwrite_is_a_weakening_delta(self):
        changed, weakening = evidence_delta(
            {}, {0: np.array([0.3, 0.7])}, {}, {0: np.array([0.5, 0.5])}
        )
        assert changed == {0}
        assert weakening


# --------------------------------------------------------------------- #
# The confirmed stale-evidence regression
# --------------------------------------------------------------------- #


class TestStaleEvidenceRegression:
    def test_direct_retract_on_evidence_object(self):
        # The exact reproduction from the issue: random_network(12, seed=3),
        # observe(0, 1) -> propagate -> engine.evidence.retract(0).  The
        # marginal of variable 1 must return to the prior, not stay at the
        # stale conditioned value.
        bn = random_network(12, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.observe(0, 1)
        engine.propagate()
        conditioned = engine.marginal(1).copy()
        engine.evidence.retract(0)
        restored = engine.marginal(1)
        prior = bn.marginal_bruteforce(1)
        np.testing.assert_allclose(restored, prior, atol=1e-12)
        assert not np.allclose(restored, conditioned)

    def test_direct_observe_on_evidence_object(self):
        bn = random_network(12, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.evidence.observe(0, 1)
        np.testing.assert_allclose(
            engine.marginal(1), bn.marginal_bruteforce(1, {0: 1}), atol=1e-12
        )

    def test_direct_observe_soft_on_evidence_object(self):
        bn = random_network(12, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        baseline = engine.marginal(1).copy()
        engine.evidence.observe_soft(0, [0.9, 0.1])
        assert not np.allclose(engine.marginal(1), baseline)

    def test_engine_retract_passthrough(self):
        bn = random_network(12, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.observe(0, 1).propagate()
        assert engine.retract(0) is engine
        assert 0 not in engine.evidence
        np.testing.assert_allclose(
            engine.marginal(1), bn.marginal_bruteforce(1), atol=1e-12
        )

    def test_likelihood_and_clique_marginal_track_evidence(self):
        bn = random_network(10, seed=5)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        assert np.isclose(engine.likelihood(), 1.0, atol=1e-9)
        engine.evidence.observe(0, 1)
        lik = engine.likelihood()
        assert lik < 1.0
        table = engine.clique_marginal(engine.jt.root)
        assert np.isclose(table.total(), 1.0)

    def test_marginal_before_any_propagate_still_raises(self):
        bn = random_network(6, seed=9)
        engine = InferenceEngine.from_network(bn)
        with pytest.raises(RuntimeError, match="propagate"):
            engine.marginal(0)


# --------------------------------------------------------------------- #
# Dirty sets and restricted task graphs
# --------------------------------------------------------------------- #


def _tree(num_cliques=16, seed=7, width=3):
    tree = synthetic_tree(
        num_cliques, clique_width=width, states=2, avg_children=2, seed=seed
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree


class TestDirtySets:
    def test_dirty_cliques_cover_every_host(self):
        tree = _tree()
        var = tree.cliques[5].variables[0]
        dirty = dirty_cliques(tree, [var])
        assert dirty
        for i in dirty:
            assert var in tree.cliques[i].variables
        for i in range(tree.num_cliques):
            if i not in dirty:
                assert var not in tree.cliques[i].variables

    def test_closure_reaches_root_and_is_ancestor_closed(self):
        tree = _tree()
        leaf = tree.leaves()[0]
        closure = dirty_ancestor_closure(tree, {leaf})
        assert closure == set(tree.path_to_root(leaf))
        assert tree.root in closure
        for c in closure:
            p = tree.parent[c]
            assert p is None or p in closure

    def test_empty_dirty_set_has_empty_closure(self):
        tree = _tree()
        assert dirty_ancestor_closure(tree, set()) == set()


class TestRestrictedTaskGraph:
    def test_defaults_build_the_full_graph(self):
        tree = _tree()
        full = build_task_graph(tree)
        assert full.num_tasks == 8 * (tree.num_cliques - 1)

    def test_restricted_collect_only_emits_requested_edges(self):
        tree = _tree()
        leaf = tree.leaves()[0]
        closure = dirty_ancestor_closure(tree, {leaf})
        edges = {
            (tree.parent[c], c) for c in closure if tree.parent[c] is not None
        }
        graph = build_task_graph(tree, collect_edges=edges)
        graph.validate()
        collect_edges_seen = {
            t.edge for t in graph.tasks if t.phase == COLLECT
        }
        assert collect_edges_seen == edges
        # Distribute stays full.
        distribute_edges_seen = {
            t.edge for t in graph.tasks if t.phase == DISTRIBUTE
        }
        assert len(distribute_edges_seen) == tree.num_cliques - 1
        assert graph.num_tasks == 4 * len(edges) + 4 * (tree.num_cliques - 1)
        assert graph.num_tasks < build_task_graph(tree).num_tasks

    def test_empty_restrictions_build_an_empty_graph(self):
        tree = _tree()
        graph = build_task_graph(
            tree, collect_edges=(), distribute_edges=()
        )
        assert graph.num_tasks == 0

    def test_distribute_only_graph_is_valid(self):
        tree = _tree()
        child = tree.leaves()[0]
        edges = distribute_edges_for(
            tree, stale=set(range(tree.num_cliques)) - {tree.root},
            targets={child},
        )
        graph = build_task_graph(
            tree, collect_edges=(), distribute_edges=edges
        )
        graph.validate()
        assert graph.num_tasks == 4 * len(edges)
        assert all(t.phase == DISTRIBUTE for t in graph.tasks)

    def test_distribute_edges_for_is_root_closed(self):
        tree = _tree()
        stale = set(range(tree.num_cliques)) - {tree.root}
        for target in tree.leaves():
            edges = distribute_edges_for(tree, stale, {target})
            for p, c in edges:
                gp = tree.parent[p]
                assert gp is None or (gp, p) in edges

    def test_distribute_edges_skip_fresh_cliques(self):
        tree = _tree()
        assert distribute_edges_for(tree, stale=set(), targets=None) == set()


# --------------------------------------------------------------------- #
# Incremental-vs-full equivalence
# --------------------------------------------------------------------- #


def _assert_engines_agree(incremental, full, num_vars):
    for v in range(num_vars):
        np.testing.assert_allclose(
            incremental._state.marginal(v),
            full._state.marginal(v),
            atol=1e-12,
        )
    assert np.isclose(
        incremental._state.likelihood(), full._state.likelihood(), rtol=1e-12
    )


DELTA_SEQUENCE = [
    ("observe", 2, 1),
    ("observe", 7, 0),
    ("observe_soft", 4, [0.2, 0.8]),
    ("retract", 2, None),
    ("observe", 7, 1),          # hard overwrite
    ("observe_soft", 7, [0.6, 0.4]),  # hard -> soft transition
    ("observe", 4, 0),          # soft -> hard transition
    ("observe_soft", 4, [0.3, 0.7]),  # back to soft
    ("retract", 7, None),
]


def _apply(engine, op):
    kind, var, value = op
    if kind == "observe":
        engine.observe(var, value)
    elif kind == "observe_soft":
        engine.observe_soft(var, value)
    else:
        engine.retract(var)


def _run_sequence(executor_factory, num_vars=14, seed=21):
    """Drive an incremental engine through DELTA_SEQUENCE on one executor,
    checking against a freshly-propagated full engine at every step."""
    bn = random_network(num_vars, seed=seed)
    engine = InferenceEngine.from_network(bn)
    engine.propagate(executor_factory())
    saw_incremental = False
    for op in DELTA_SEQUENCE:
        _apply(engine, op)
        engine.propagate(executor_factory())
        full = InferenceEngine.from_network(bn)
        full.set_evidence(engine.evidence)
        full.propagate(incremental=False)
        _assert_engines_agree(engine, full, num_vars)
        if engine.last_stats.incremental:
            saw_incremental = True
            assert engine.last_stats.tasks_skipped > 0
    assert saw_incremental


class TestIncrementalMatchesFull:
    def test_serial(self):
        _run_sequence(SerialExecutor)

    def test_collaborative(self):
        _run_sequence(
            lambda: CollaborativeExecutor(
                num_threads=2, partition_threshold=4096
            )
        )

    def test_workstealing(self):
        _run_sequence(
            lambda: WorkStealingExecutor(
                num_threads=2, partition_threshold=4096
            )
        )

    def test_resilient(self):
        _run_sequence(lambda: ResilientExecutor(SerialExecutor()))

    @pytest.mark.slow
    def test_process(self):
        from repro.sched.process import ProcessSharedMemoryExecutor

        bn = random_network(12, seed=33)
        engine = InferenceEngine.from_network(bn)
        executor = ProcessSharedMemoryExecutor(num_workers=2)
        engine.propagate(executor)
        engine.observe(3, 1)
        engine.propagate(executor)
        assert engine.last_stats.incremental
        full = InferenceEngine.from_network(bn)
        full.set_evidence(engine.evidence)
        full.propagate(incremental=False)
        _assert_engines_agree(engine, full, 12)

    def test_incremental_runs_fewer_tasks(self):
        bn = random_network(20, seed=11)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.observe(0, 1)
        engine.propagate()
        assert engine.last_stats.incremental
        assert engine.last_stats.tasks_executed < engine.task_graph.num_tasks
        assert engine.last_stats.tasks_skipped == (
            engine.task_graph.num_tasks - engine.last_stats.tasks_executed
        )

    def test_incremental_false_always_runs_full(self):
        bn = random_network(10, seed=12)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.observe(0, 1)
        engine.propagate(incremental=False)
        assert not engine.last_stats.incremental
        assert engine.last_stats.tasks_executed == engine.task_graph.num_tasks

    def test_incremental_true_with_unchanged_evidence_reuses_state(self):
        bn = random_network(10, seed=13)
        engine = InferenceEngine.from_network(bn)
        first = engine.propagate()
        again = engine.propagate(incremental=True)
        assert again is first

    def test_auto_with_unchanged_evidence_keeps_full_rerun_semantics(self):
        bn = random_network(10, seed=14)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.propagate()
        assert not engine.last_stats.incremental
        assert engine.last_stats.tasks_executed == engine.task_graph.num_tasks

    def test_trace_meta_labels_incremental_runs(self):
        bn = random_network(12, seed=15)
        engine = InferenceEngine.from_network(bn)
        engine.propagate(trace=True)
        assert engine.last_trace.meta["mode"] == "full"
        engine.observe(1, 0)
        engine.propagate(trace=True)
        meta = engine.last_trace.meta
        assert meta["mode"] == "incremental"
        assert meta["dirty_cliques"] >= 1
        assert meta["tasks_skipped"] == engine.last_stats.tasks_skipped


# --------------------------------------------------------------------- #
# Weakening fallback (zero-reopening hazard)
# --------------------------------------------------------------------- #


class TestWeakeningFallback:
    def _engine_with_carried_zeroed_separator(self):
        """An engine where a weakening delta leaves a zeroed separator
        *carried* (its child outside the rebuild set).

        Chain 0 -> 1 -> ... -> 7: hard evidence on variable 1 (which lives
        in the separator between cliques {0,1} and {1,2}) zeroes that
        separator after propagation.  A later retraction of variable 7 —
        hosted at the far end of the chain — dirties only the far-end
        cliques, so the zeroed separator would be reused as a divide
        denominator and the planner must refuse.
        """
        bn = chain_network(8, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.observe(1, 0)
        engine.observe(7, 1)
        engine.propagate()
        from repro.tasks.clique_graph import (
            dirty_ancestor_closure,
            dirty_cliques,
        )

        rebuild = dirty_ancestor_closure(
            engine.jt, dirty_cliques(engine.jt, {7})
        )
        carried_zeros = any(
            np.any(table.values == 0.0)
            for (parent, child), table in engine._state.separators.items()
            if child not in rebuild
        )
        # The scenario must actually exercise the hazard path; if the
        # rooting ever changes such that it does not, fail loudly here.
        assert carried_zeros
        return bn, engine

    def test_plan_refuses_weakening_over_zeroed_separators(self):
        bn, engine = self._engine_with_carried_zeroed_separator()
        engine.evidence.retract(7)
        plan = plan_incremental(
            engine.jt,
            engine._state,
            engine.evidence.as_dict(),
            engine.evidence.soft_as_dict(),
        )
        assert plan is None

    def test_engine_falls_back_to_full_and_stays_correct(self):
        bn, engine = self._engine_with_carried_zeroed_separator()
        engine.retract(7)
        engine.propagate()
        assert not engine.last_stats.incremental
        for v in range(8):
            np.testing.assert_allclose(
                engine.marginal(v),
                bn.marginal_bruteforce(v, {1: 0}),
                atol=1e-12,
            )

    def test_query_path_also_falls_back(self):
        bn, engine = self._engine_with_carried_zeroed_separator()
        engine.evidence.retract(7)
        # marginal() heals through _sync, which must detect the unsound
        # plan and run a full repropagation.
        np.testing.assert_allclose(
            engine.marginal(6), bn.marginal_bruteforce(6, {1: 0}), atol=1e-12
        )

    def test_targeted_fallback_distributes_only_to_the_targets(self):
        """Reuse is unsound, but the query asks for one variable: the
        fresh state is collected in full and distributed along the
        root-to-host path only; everything else stays stale until a
        later call needs it."""
        bn, engine = self._engine_with_carried_zeroed_separator()
        engine.retract(7)
        got = engine.query(vars=[6])
        assert not engine.last_stats.incremental
        np.testing.assert_allclose(
            got[6], ve_query(bn, [6], {1: 0}).values, atol=1e-9
        )
        on_path = set(engine.jt.path_to_root(engine.jt.host(6)[0]))
        assert engine._stale
        assert engine._stale == set(range(engine.jt.num_cliques)) - on_path
        assert engine.last_stats.tasks_executed < engine.task_graph.num_tasks

        everything = engine.marginals_all()
        assert not engine._stale
        fresh = InferenceEngine.from_network(bn)
        fresh.set_evidence({1: 0})
        fresh.propagate(incremental=False)
        for v, values in fresh.marginals_all().items():
            np.testing.assert_allclose(everything[v], values, atol=1e-12)

    def test_untargeted_fallback_stays_a_full_run(self):
        bn, engine = self._engine_with_carried_zeroed_separator()
        engine.retract(7)
        engine.propagate()
        assert engine.last_stats.tasks_executed == engine.task_graph.num_tasks
        assert not engine._stale

    def test_retracting_the_separator_variable_itself_is_sound(self):
        # Zeros caused by the retracted variable live in separators whose
        # child cliques are dirtied by that same retraction, so they are
        # reset rather than carried: the plan stays incremental.
        bn = chain_network(8, seed=3)
        engine = InferenceEngine.from_network(bn)
        engine.observe(1, 0)
        engine.propagate()
        engine.evidence.retract(1)
        plan = plan_incremental(
            engine.jt,
            engine._state,
            engine.evidence.as_dict(),
            engine.evidence.soft_as_dict(),
        )
        if plan is not None:  # rooting-dependent; correctness either way
            engine.propagate()
            assert engine.last_stats.incremental
        for v in range(8):
            np.testing.assert_allclose(
                engine.marginal(v), bn.marginal_bruteforce(v), atol=1e-12
            )

    def test_monotone_delta_over_zeros_stays_incremental(self):
        bn, engine = self._engine_with_carried_zeroed_separator()
        engine.observe(6, 1)
        engine.propagate()
        assert engine.last_stats.incremental
        for v in range(8):
            np.testing.assert_allclose(
                engine.marginal(v),
                bn.marginal_bruteforce(v, engine.evidence.as_dict()),
                atol=1e-12,
            )


# --------------------------------------------------------------------- #
# QueryCache
# --------------------------------------------------------------------- #


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache(capacity=4)
        sig = (((0, 1),), ())
        assert cache.get_marginal(sig, 5) is None
        cache.put_marginal(sig, 5, np.array([0.25, 0.75]))
        np.testing.assert_array_equal(
            cache.get_marginal(sig, 5), [0.25, 0.75]
        )
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_lru_eviction_by_signature(self):
        cache = QueryCache(capacity=2)
        for i in range(3):
            cache.put_marginal(((("sig", i),), ()), 0, np.array([1.0, 0.0]))
        assert len(cache) == 2
        assert cache.get_marginal(((("sig", 0),), ()), 0) is None

    def test_likelihood_entries(self):
        cache = QueryCache()
        sig = ((), ())
        assert cache.get_likelihood(sig) is None
        cache.put_likelihood(sig, 0.125)
        assert cache.get_likelihood(sig) == 0.125

    def test_stored_arrays_are_immutable_copies(self):
        cache = QueryCache()
        values = np.array([0.5, 0.5])
        cache.put_marginal(((), ()), 0, values)
        values[0] = 99.0
        stored = cache.get_marginal(((), ()), 0)
        np.testing.assert_array_equal(stored, [0.5, 0.5])
        with pytest.raises(ValueError):
            stored[0] = 1.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)


class TestEngineQuery:
    def test_first_query_autopropagates(self):
        bn = random_network(10, seed=17)
        engine = InferenceEngine.from_network(bn)
        result = engine.query({0: 1}, vars=[3])
        np.testing.assert_allclose(
            result[3], bn.marginal_bruteforce(3, {0: 1}), atol=1e-12
        )

    def test_repeated_query_hits_cache_without_running_tasks(self):
        bn = random_network(10, seed=18)
        engine = InferenceEngine.from_network(bn)
        engine.query({0: 1}, vars=[3, 5])
        stats_before = engine.last_stats
        hits_before = engine.cache.hits
        result = engine.query(vars=[3, 5])
        assert engine.cache.hits >= hits_before + 2
        assert engine.last_stats is stats_before  # no propagation ran
        np.testing.assert_allclose(
            result[3], bn.marginal_bruteforce(3, {0: 1}), atol=1e-12
        )

    def test_query_delta_kinds(self):
        bn = random_network(10, seed=19)
        engine = InferenceEngine.from_network(bn)
        engine.query({0: 1})
        engine.query({0: None})  # retract
        assert 0 not in engine.evidence
        result = engine.query({2: [0.3, 0.7]}, vars=[4])  # soft
        assert engine.evidence.has_soft
        assert 4 in result

    def test_query_returns_all_variables_by_default(self):
        bn = random_network(8, seed=20)
        engine = InferenceEngine.from_network(bn)
        result = engine.query()
        assert sorted(result) == list(range(8))
        for v, values in result.items():
            np.testing.assert_allclose(
                values, bn.marginal_bruteforce(v), atol=1e-12
            )

    def test_alternating_evidence_sets_hit_cache(self):
        # Near-duplicate traffic: two evidence sets queried alternately
        # must be served from the cache after the first round.
        bn = random_network(10, seed=22)
        engine = InferenceEngine.from_network(bn)
        engine.query({0: 1}, vars=[5])
        engine.query({0: 0}, vars=[5])
        hits_before = engine.cache.hits
        a = engine.query({0: 1}, vars=[5])[5]
        b = engine.query({0: 0}, vars=[5])[5]
        assert engine.cache.hits == hits_before + 2
        np.testing.assert_allclose(
            a, bn.marginal_bruteforce(5, {0: 1}), atol=1e-12
        )
        np.testing.assert_allclose(
            b, bn.marginal_bruteforce(5, {0: 0}), atol=1e-12
        )

    def test_marginal_uses_cache(self):
        bn = random_network(10, seed=23)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.marginal(4)
        hits_before = engine.cache.hits
        engine.marginal(4)
        assert engine.cache.hits == hits_before + 1

    def test_targeted_query_leaves_other_cliques_lazily_stale(self):
        bn = random_network(16, seed=24)
        engine = InferenceEngine.from_network(bn)
        engine.propagate()
        engine.observe(0, 1)
        engine.query(vars=[0])
        # Later queries for other variables must still be exact.
        for v in range(16):
            np.testing.assert_allclose(
                engine.marginal(v),
                bn.marginal_bruteforce(v, {0: 1}),
                atol=1e-12,
            )

    def test_targeted_query_reads_the_clique_it_refreshed(self):
        # Variable 6 of the chain sits in two cliques of equal size,
        # (5, 6) and (6, 7).  A targeted query refreshes one of them and
        # leaves the other stale: the refreshed clique and the clique the
        # answer is read from must be the same lookup (jt.host).
        from repro.potential.primitives import marginalize

        bn = chain_network(8, seed=31)
        engine = InferenceEngine.from_network(bn)
        jt = engine.jt
        var = 6
        hosts = [c.index for c in jt.cliques if var in c.variables]
        assert len(hosts) == 2 and jt.root not in hosts
        assert len({jt.cliques[h].table_size for h in hosts}) == 1
        engine.propagate()
        engine.observe(0, 1)
        answer = engine.query(vars=[var])[var]
        expected = ve_query(bn, [var], {0: 1}).values
        np.testing.assert_allclose(answer, expected, rtol=1e-9, atol=1e-12)
        read, _axis = jt.host(var)
        (other,) = set(hosts) - {read}
        assert read not in engine._stale and other in engine._stale
        stale = marginalize(
            engine._state.potentials[other], (var,)
        ).normalize().values
        assert not np.allclose(stale, expected, rtol=1e-9, atol=1e-12)
        # marginal() goes through the same lookup.
        engine.observe(1, 0)
        np.testing.assert_allclose(
            engine.marginal(var), ve_query(bn, [var], {0: 1, 1: 0}).values,
            rtol=1e-9, atol=1e-12,
        )

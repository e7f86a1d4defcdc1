"""Streaming DBN filtering (repro.streaming + repro.serve.streaming).

The contract every test enforces: a FilteringSession's posterior after
each applied tick equals the offline fully-unrolled-network oracle (and,
for HMMs, the classic forward algorithm) to 1e-9; refused ticks leave
the session exactly as it was; the StreamingService never mixes streams
and refuses explicitly (typed) when a queue is full, a deadline passed
or a stream is closed.
"""

from __future__ import annotations

import importlib.util
import pathlib
import threading
import time

import numpy as np
import pytest

from repro.bn.dbn import DynamicBayesianNetwork, make_hmm
from repro.inference.engine import InferenceEngine
from repro.potential.table import PotentialTable
from repro.sched.serial import SerialExecutor
from repro.serve import (
    ServiceClosed,
    StreamClosed,
    StreamingService,
    StreamOverflow,
)
from repro.streaming import FilteringSession, TickDeadline, TickFailed
from repro.streaming.session import _chain_rule_cpds


# --------------------------------------------------------------------- #
# Models and oracles
# --------------------------------------------------------------------- #


def _toy_hmm():
    return make_hmm(
        num_states=2,
        num_observations=2,
        initial=np.array([0.6, 0.4]),
        transition=np.array([[0.7, 0.3], [0.2, 0.8]]),
        emission=np.array([[0.9, 0.1], [0.3, 0.7]]),
    )


def _multivar_dbn(seed=7):
    """k=3 template whose forward interface is {0, 1} (cards 2, 3, 2).

    Exercises everything the HMM cannot: a multi-variable interface
    joint (the boundary pin + chain-rule ghosts), a cross-chain temporal
    edge 0@t -> 1@t+1, and a card-3 variable.
    """
    rng = np.random.default_rng(seed)

    def norm(a, axis):
        return a / a.sum(axis=axis, keepdims=True)

    dbn = DynamicBayesianNetwork([2, 3, 2])
    dbn.add_intra_edge(0, 2)
    dbn.add_intra_edge(1, 2)
    dbn.add_inter_edge(0, 0)
    dbn.add_inter_edge(0, 1)
    dbn.add_inter_edge(1, 1)
    emit = norm(rng.random((2, 3, 2)), 2)
    dbn.set_prior_cpt(0, PotentialTable([0], [2], norm(rng.random(2), 0)))
    dbn.set_prior_cpt(1, PotentialTable([1], [3], norm(rng.random(3), 0)))
    dbn.set_prior_cpt(2, PotentialTable([0, 1, 2], [2, 3, 2], emit))
    dbn.set_transition_cpt(
        0, PotentialTable([3, 0], [2, 2], norm(rng.random((2, 2)), 1))
    )
    dbn.set_transition_cpt(
        1,
        PotentialTable([3, 4, 1], [2, 3, 3], norm(rng.random((2, 3, 3)), 2)),
    )
    dbn.set_transition_cpt(2, PotentialTable([0, 1, 2], [2, 3, 2], emit))
    return dbn


def unrolled_posteriors(dbn, ticks, vars, t=None):
    """The offline oracle: one-shot unrolled network over all ticks."""
    T = max(len(ticks), 1)
    engine = InferenceEngine.from_network(dbn.unroll(T))
    for ti, delta in enumerate(ticks):
        for v, finding in delta.items():
            wid = dbn.variable_at(int(v), ti)
            if isinstance(finding, (int, np.integer)):
                engine.observe(wid, int(finding))
            else:
                engine.observe_soft(wid, finding)
    engine.propagate(incremental=False)
    if t is None:
        t = T - 1
    return {v: engine.marginal(dbn.variable_at(int(v), t)) for v in vars}


def _forward_algorithm(initial, transition, emission, observations):
    """Classic HMM forward pass; ``None`` marks an unobserved tick."""
    alpha = initial.copy()
    if observations and observations[0] is not None:
        alpha = alpha * emission[:, observations[0]]
    for obs in observations[1:]:
        alpha = alpha @ transition
        if obs is not None:
            alpha = alpha * emission[:, obs]
    return alpha / alpha.sum()


# --------------------------------------------------------------------- #
# Test executors
# --------------------------------------------------------------------- #


class FlakyExecutor:
    """Fails the next ``failures`` run() calls, then delegates serial."""

    def __init__(self, failures=0):
        self.failures = failures
        self.inner = SerialExecutor()

    def run(self, graph, state, **kw):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("injected executor fault")
        return self.inner.run(graph, state, **kw)


class GatedExecutor:
    """Blocks run() while the gate is closed (worker-wedging harness)."""

    def __init__(self):
        self.inner = SerialExecutor()
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    def run(self, graph, state, **kw):
        self.entered.set()
        assert self.gate.wait(60.0)
        return self.inner.run(graph, state, **kw)


# --------------------------------------------------------------------- #
# Chain-rule prior factorization
# --------------------------------------------------------------------- #


class TestChainRuleCpds:
    def test_product_reproduces_joint(self):
        rng = np.random.default_rng(3)
        cards = [2, 3, 2]
        values = rng.random((2, 3, 2))
        values /= values.sum()
        joint = PotentialTable([0, 1, 2], cards, values)
        cpds = _chain_rule_cpds(joint, cards)
        product = cpds[0][:, None, None] * cpds[1][:, :, None] * cpds[2]
        np.testing.assert_allclose(product, values, atol=1e-12)

    def test_zero_context_filled_uniform(self):
        values = np.array([[0.5, 0.5], [0.0, 0.0]])  # P(x0=1) = 0
        joint = PotentialTable([0, 1], [2, 2], values / values.sum())
        cpds = _chain_rule_cpds(joint, [2, 2])
        np.testing.assert_allclose(cpds[1][1], [0.5, 0.5])
        product = cpds[0][:, None] * cpds[1]
        np.testing.assert_allclose(product.sum(), 1.0)
        np.testing.assert_allclose(product[1], 0.0)


# --------------------------------------------------------------------- #
# FilteringSession exactness
# --------------------------------------------------------------------- #


class TestFilteringExactness:
    def test_hmm_matches_forward_algorithm_and_oracle(self):
        dbn = _toy_hmm()
        session = FilteringSession(dbn, window=4, retire=2)
        observations = [0, 1, 1, None, 0, 1, 0, 0, None, 1, 0, 1]
        applied = []
        for obs in observations:
            delta = {} if obs is None else {1: obs}
            result = session.tick(delta)
            applied.append(delta)
            filtered = session.posterior(0)
            forward = _forward_algorithm(
                np.array([0.6, 0.4]),
                np.array([[0.7, 0.3], [0.2, 0.8]]),
                np.array([[0.9, 0.1], [0.3, 0.7]]),
                [d.get(1) for d in applied],
            )
            np.testing.assert_allclose(filtered, forward, atol=1e-9)
            oracle = unrolled_posteriors(dbn, applied, [0])
            np.testing.assert_allclose(filtered, oracle[0], atol=1e-9)
            assert result.t == len(applied) - 1
        assert session.rolls == 4  # 12 ticks, window 4, retire 2

    def test_hmm_soft_evidence_matches_oracle(self):
        dbn = _toy_hmm()
        session = FilteringSession(dbn, window=3, retire=1)
        soft = [
            {1: [0.8, 0.2]},
            {1: [0.1, 0.9]},
            {0: [0.5, 0.5], 1: [0.3, 0.7]},
            {},
            {1: [0.9, 0.1]},
            {1: 1},  # hard and soft ticks interleave
            {1: [0.2, 0.8]},
        ]
        applied = []
        for delta in soft:
            session.tick(delta)
            applied.append(delta)
            got = session.posteriors([0, 1])
            want = unrolled_posteriors(dbn, applied, [0, 1])
            for v in (0, 1):
                np.testing.assert_allclose(got[v], want[v], atol=1e-9)
        assert session.rolls >= 1

    def test_multivariable_interface_matches_oracle(self):
        dbn = _multivar_dbn()
        assert dbn.interface() == [0, 1]
        session = FilteringSession(dbn, window=3, retire=2)
        ticks = [
            {2: 1},
            {2: 0, 1: 2},
            {},
            {2: 1, 0: 0},
            {2: [0.6, 0.4]},
            {2: 0},
            {1: 1, 2: 1},
        ]
        applied = []
        for delta in ticks:
            session.tick(delta)
            applied.append(delta)
            got = session.posteriors([0, 1, 2])
            want = unrolled_posteriors(dbn, applied, [0, 1, 2])
            for v in range(3):
                np.testing.assert_allclose(got[v], want[v], atol=1e-9)
        assert session.rolls >= 2

    def test_in_window_smoothing_matches_oracle(self):
        dbn = _toy_hmm()
        session = FilteringSession(dbn, window=4, retire=2)
        applied = []
        for obs in [0, 1, 0, 0, 1, 1]:
            session.tick({1: obs})
            applied.append({1: obs})
        for t in range(session.earliest, session.t):
            got = session.posterior(0, t)
            want = unrolled_posteriors(dbn, applied, [0], t=t)
            np.testing.assert_allclose(got, want[0], atol=1e-9)

    def test_window_retirement_invariance(self):
        """A roll is evidence-neutral: retained posteriors are unchanged."""
        dbn = _toy_hmm()
        session = FilteringSession(dbn, window=4, retire=2)
        for obs in [0, 1, 1, 0]:
            session.tick({1: obs})
        assert session.rolls == 0
        retained = range(session.base + session.retire, session.t)
        before = {
            t: {v: session.posterior(v, t) for v in (0, 1)} for t in retained
        }
        session.tick({})  # unobserved tick: forces the roll, adds nothing
        assert session.rolls == 1
        for t in retained:
            assert t >= session.earliest
            for v in (0, 1):
                np.testing.assert_allclose(
                    session.posterior(v, t), before[t][v], atol=1e-9
                )

    def test_incremental_matches_full_and_skips_work(self):
        dbn = _multivar_dbn(seed=11)
        fast = FilteringSession(dbn, window=4, retire=2, incremental=True)
        slow = FilteringSession(dbn, window=4, retire=2, incremental=False)
        skipped = 0
        for delta in [{2: 1}, {2: 0}, {1: 1}, {}, {2: 1}, {0: 1, 2: 0}]:
            result = fast.tick(dict(delta))
            slow.tick(dict(delta))
            skipped += result.tasks_skipped
            for v in range(3):
                np.testing.assert_allclose(
                    fast.posterior(v), slow.posterior(v), atol=1e-9
                )
        assert skipped > 0

    def test_window_geometry_validation(self):
        dbn = _toy_hmm()
        with pytest.raises(ValueError):
            FilteringSession(dbn, window=1)
        with pytest.raises(ValueError):
            FilteringSession(dbn, window=4, retire=0)
        with pytest.raises(ValueError):
            FilteringSession(dbn, window=4, retire=5)
        session = FilteringSession(dbn, window=4)
        assert session.retire == 2
        with pytest.raises(ValueError):
            session.posterior(0, t=4)  # beyond the window


# --------------------------------------------------------------------- #
# The rolled-window template
# --------------------------------------------------------------------- #


def _chain_dbn(k, interface, seed=5):
    """k-variable 2-TBN: intra-slice chain, ``u@t -> u@t+1`` carry-overs
    for ``u < interface`` (plus ``0 -> 1`` when ``interface >= 2``).

    Returns the template and its CPTs as ``(scope, values)`` pairs — the
    input of the benchmark suite's dense forward filter.
    """
    rng = np.random.default_rng(seed)
    cards = [2 + (v % 2) for v in range(k)]
    dbn = DynamicBayesianNetwork(cards)
    for v in range(1, k):
        dbn.add_intra_edge(v - 1, v)
    inter = {v: [v] if v < interface else [] for v in range(k)}
    for u in range(interface):
        dbn.add_inter_edge(u, u)
    if interface >= 2:
        dbn.add_inter_edge(0, 1)
        inter[1].append(0)
    prior, transition = [], []
    for v in range(k):
        intra = [v - 1] if v else []
        for pairs, scope, setter in (
            (prior, intra + [v], dbn.set_prior_cpt),
            (
                transition,
                [p + k for p in inter[v]] + intra + [v],
                dbn.set_transition_cpt,
            ),
        ):
            shape = tuple(cards[u % k] for u in scope)
            values = rng.random(shape) + 0.05
            values /= values.sum(axis=-1, keepdims=True)
            pairs.append((scope, values))
            setter(v, PotentialTable(scope, shape, values))
    return dbn, prior, transition


def _dense_filter(prior, transition, cards):
    """The benchmark suite's forward filter on the flattened joint state
    (shares no code with the junction-tree path)."""
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "benchmarks" / "suite" / "oracle.py"
    )
    spec = importlib.util.spec_from_file_location("suite_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle.DenseFilter(cards, prior, transition)


def _ticks(k, soft, seed=9):
    """Endless ticks observing the last two slice variables."""
    rng = np.random.default_rng(seed)
    cards = [2 + (v % 2) for v in range(k)]
    while True:
        if rng.random() < 0.15:
            yield {}
            continue
        delta = {}
        for v in (k - 2, k - 1):
            if soft and rng.random() < 0.5:
                delta[v] = list(rng.random(cards[v]) + 0.1)
            else:
                delta[v] = int(rng.integers(cards[v]))
        yield delta


def _same_tree(got, want):
    assert [c.variables for c in got.cliques] == [
        c.variables for c in want.cliques
    ]
    assert [c.cardinalities for c in got.cliques] == [
        c.cardinalities for c in want.cliques
    ]
    assert got.parent == want.parent and got.root == want.root
    for i in range(want.num_cliques):
        assert np.array_equal(
            got.potentials[i].values, want.potentials[i].values
        ), f"clique {i} prior differs from a from-scratch build"


class TestWindowTemplate:
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("retire", [1, 4])
    @pytest.mark.parametrize("interface", [0, 1, 3])
    def test_rolled_windows_equal_a_from_scratch_build(
        self, interface, retire, soft
    ):
        k = 5 if interface == 3 else 3
        dbn, _, _ = _chain_dbn(k, interface)
        session = FilteringSession(dbn, window=retire + 2, retire=retire)
        ticks = _ticks(k, soft)
        while session.rolls < 10:
            if not session.tick(next(ticks)).rolled:
                continue
            want = InferenceEngine.from_network(
                session._build_window_network()
            ).jt
            _same_tree(session.engine.jt, want)
        assert session._template is not None

    def test_two_tree_builds_per_session(self, monkeypatch):
        import repro.inference.engine as engine_module
        import repro.streaming.session as session_module
        import repro.tasks.layout as layout_module

        calls = {"jt": 0, "reroot": 0, "layout": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            session_module, "junction_tree_from_network",
            counting("jt", session_module.junction_tree_from_network),
        )
        monkeypatch.setattr(
            engine_module, "reroot_optimally",
            counting("reroot", engine_module.reroot_optimally),
        )
        monkeypatch.setattr(
            layout_module, "TableLayout",
            counting("layout", layout_module.TableLayout),
        )
        dbn, _, _ = _chain_dbn(5, 3)
        session = FilteringSession(dbn, window=4, retire=1)
        ticks = _ticks(5, soft=False)
        while session.rolls < 20:
            session.tick(next(ticks))
        # The first window, then the template; every other roll re-seats.
        assert calls == {"jt": 2, "reroot": 2, "layout": 2}

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_a_roll_leaves_the_previous_engine_and_state_untouched(
        self, soft
    ):
        dbn, _, _ = _chain_dbn(5, 3)
        session = FilteringSession(dbn, window=3, retire=1)
        ticks = _ticks(5, soft)
        checked = 0
        while checked < 4:
            if session.t - session.base < session.window:
                session.tick(next(ticks))
                continue
            engine = session.engine
            state = engine._state
            buffer = state.buffer.copy()
            version = engine.evidence.version
            signature = engine.evidence.signature()
            priors = {
                i: table.values.copy()
                for i, table in engine.jt.potentials.items()
            }
            assert session.tick(next(ticks)).rolled
            assert session.engine is not engine
            assert engine._state is state
            assert np.array_equal(state.buffer, buffer)
            assert engine.evidence.version == version
            assert engine.evidence.signature() == signature
            for i, values in priors.items():
                assert np.array_equal(engine.jt.potentials[i].values, values)
            checked += 1

    def test_restore_compiles_the_template_on_demand(self):
        k = 5
        dbn, prior, transition = _chain_dbn(k, 3)
        source = FilteringSession(dbn, window=4, retire=2)
        dense = _dense_filter(prior, transition, dbn.slice_cards)
        ticks = _ticks(k, soft=False)
        for _ in range(9):
            delta = next(ticks)
            source.tick(delta)
            dense.tick(delta)
        assert source.rolls >= 2
        restored = FilteringSession(dbn, window=4, retire=2)
        assert restored._template is None
        restored.restore_state(source.snapshot_state())
        assert restored._template is not None
        for _ in range(8):  # the restored stream keeps rolling exactly
            want = dense.alpha
            got = restored.posteriors()
            for v in range(k):
                marginal = want.sum(
                    axis=tuple(a for a in range(k) if a != v)
                )
                np.testing.assert_allclose(got[v], marginal, atol=1e-9)
            delta = next(ticks)
            restored.tick(delta)
            dense.tick(delta)

    def test_restore_refuses_a_snapshot_without_its_prior(self):
        dbn, _, _ = _chain_dbn(5, 3)
        session = FilteringSession(dbn, window=3, retire=1)
        for delta in [{3: 0}, {4: 1}, {}, {3: 1}]:
            session.tick(delta)
        doc = dict(session.snapshot_state(), ghost=None)
        with pytest.raises(ValueError, match="ghost prior"):
            FilteringSession(dbn, window=3, retire=1).restore_state(doc)


# --------------------------------------------------------------------- #
# Tick transactionality
# --------------------------------------------------------------------- #


class TestTickTransactionality:
    def test_expired_deadline_is_refused_without_side_effects(self):
        dbn = _toy_hmm()
        session = FilteringSession(dbn, window=4, retire=2)
        session.tick({1: 0})
        before = session.posterior(0)
        with pytest.raises(TickDeadline):
            session.tick({1: 1}, deadline=time.monotonic() - 1.0)
        assert session.t == 1
        np.testing.assert_allclose(session.posterior(0), before, atol=0)
        # The stream keeps filtering exactly for the ticks that applied.
        session.tick({1: 1})
        want = unrolled_posteriors(dbn, [{1: 0}, {1: 1}], [0])
        np.testing.assert_allclose(session.posterior(0), want[0], atol=1e-9)

    def test_executor_fault_rolls_back_and_recovers(self):
        dbn = _toy_hmm()
        executor = FlakyExecutor(failures=0)
        session = FilteringSession(dbn, window=4, retire=2, executor=executor)
        session.tick({1: 0})
        executor.failures = 1
        with pytest.raises(TickFailed):
            session.tick({1: 1})
        assert session.t == 1  # the failed tick did not advance time
        want = unrolled_posteriors(dbn, [{1: 0}], [0])
        np.testing.assert_allclose(session.posterior(0), want[0], atol=1e-9)
        session.tick({1: 1})  # retry applies cleanly
        want = unrolled_posteriors(dbn, [{1: 0}, {1: 1}], [0])
        np.testing.assert_allclose(session.posterior(0), want[0], atol=1e-9)

    def test_repeated_faults_leave_session_dirty_then_recover(self):
        """A fault during the recovery rebuild must not strand a stale
        engine: the session stays marked dirty and the next tick retries
        the resync before propagating."""
        dbn = _toy_hmm()
        executor = FlakyExecutor(failures=0)
        session = FilteringSession(dbn, window=4, retire=2, executor=executor)
        session.tick({1: 0})
        executor.failures = 2  # the tick AND the recovery rebuild fail
        with pytest.raises(TickFailed):
            session.tick({1: 1})
        assert session.engine is None  # dirty, not silently stale
        assert session.t == 1
        session.tick({1: 1})  # entry resync retries, then applies
        want = unrolled_posteriors(dbn, [{1: 0}, {1: 1}], [0])
        np.testing.assert_allclose(session.posterior(0), want[0], atol=1e-9)

    def test_fault_during_roll_rebuild_recovers_exactly(self):
        dbn = _toy_hmm()
        executor = FlakyExecutor(failures=0)
        session = FilteringSession(dbn, window=3, retire=1, executor=executor)
        applied = []
        for obs in [0, 1, 1]:  # fills the window; next tick must roll
            session.tick({1: obs})
            applied.append({1: obs})
        executor.failures = 2  # the roll rebuild AND its resync fail
        with pytest.raises(TickFailed):
            session.tick({1: 0})
        assert session.t == 3  # refused tick never advanced time
        session.tick({1: 0})  # resync + apply
        applied.append({1: 0})
        want = unrolled_posteriors(dbn, applied, [0])
        np.testing.assert_allclose(session.posterior(0), want[0], atol=1e-9)

        # The same again on the third roll, rebuilt from the window
        # template the first roll compiled.
        session.tick({1: 1})
        applied.append({1: 1})
        assert session.rolls == 2 and session._template is not None
        executor.failures = 2
        with pytest.raises(TickFailed):
            session.tick({1: 0})
        assert session.engine is None  # dirty, not silently stale
        assert session.t == 5
        session.tick({1: 0})
        applied.append({1: 0})
        want = unrolled_posteriors(dbn, applied, [0])
        np.testing.assert_allclose(session.posterior(0), want[0], atol=1e-9)

    def test_unknown_slice_variable_rejected(self):
        session = FilteringSession(_toy_hmm(), window=2)
        with pytest.raises(ValueError):
            session.tick({2: 0})
        assert session.t == 0


# --------------------------------------------------------------------- #
# Template validation (the DBN satellite)
# --------------------------------------------------------------------- #


class TestTemplateValidation:
    def test_duplicate_intra_edge_rejected(self):
        dbn = DynamicBayesianNetwork([2, 2])
        dbn.add_intra_edge(0, 1)
        with pytest.raises(ValueError, match="duplicate intra"):
            dbn.add_intra_edge(0, 1)

    def test_intra_cycle_rejected(self):
        dbn = DynamicBayesianNetwork([2, 2, 2])
        dbn.add_intra_edge(0, 1)
        dbn.add_intra_edge(1, 2)
        with pytest.raises(ValueError, match="cycle"):
            dbn.add_intra_edge(2, 0)
        with pytest.raises(ValueError):
            dbn.add_intra_edge(0, 0)

    def test_duplicate_inter_edge_rejected(self):
        dbn = DynamicBayesianNetwork([2, 2])
        dbn.add_inter_edge(0, 0)  # temporal self-arcs are fine once
        with pytest.raises(ValueError, match="duplicate inter"):
            dbn.add_inter_edge(0, 0)

    def test_prior_scope_outside_slice_rejected(self):
        dbn = DynamicBayesianNetwork([2, 2])
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            dbn.set_prior_cpt(
                0, PotentialTable([2, 0], [2, 2], np.full((2, 2), 0.5))
            )

    def test_transition_scope_outside_template_rejected(self):
        dbn = DynamicBayesianNetwork([2, 2])
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            dbn.set_transition_cpt(
                0, PotentialTable([4, 0], [2, 2], np.full((2, 2), 0.5))
            )

    def test_scope_must_include_the_variable(self):
        dbn = DynamicBayesianNetwork([2, 2])
        with pytest.raises(ValueError, match="does not include"):
            dbn.set_prior_cpt(0, PotentialTable([1], [2], [0.5, 0.5]))

    def test_cardinality_disagreement_rejected(self):
        dbn = DynamicBayesianNetwork([2, 3])
        with pytest.raises(ValueError, match="cardinality"):
            dbn.set_prior_cpt(1, PotentialTable([1], [2], [0.5, 0.5]))
        # Previous-slice ids must match slice_cards too (3 % 2 -> var 1).
        dbn2 = DynamicBayesianNetwork([2, 3])
        with pytest.raises(ValueError, match="cardinality"):
            dbn2.set_transition_cpt(
                1, PotentialTable([3, 1], [2, 3], np.full((2, 3), 1 / 3))
            )

    def test_interface_is_sorted_inter_sources(self):
        dbn = DynamicBayesianNetwork([2, 2, 2])
        dbn.add_inter_edge(2, 0)
        dbn.add_inter_edge(0, 1)
        dbn.add_inter_edge(2, 2)
        assert dbn.interface() == [0, 2]
        assert DynamicBayesianNetwork([2, 2]).interface() == []


# --------------------------------------------------------------------- #
# StreamingService
# --------------------------------------------------------------------- #


class TestStreamingService:
    def test_concurrent_streams_exact_and_isolated(self):
        dbn = _toy_hmm()
        with StreamingService(dbn, window=3, retire=1, workers=2) as service:
            plans = {
                "alpha": [{1: 0}, {1: 1}, {1: 1}, {}, {1: 0}, {1: 1}],
                "beta": [{1: 1}, {1: 0}, {}, {1: 0}, {1: 0}, {1: 1}],
            }
            handles = {
                name: service.subscribe(name=name, query_vars=[0])
                for name in plans
            }
            futures = {name: [] for name in plans}
            for i in range(len(plans["alpha"])):
                for name, ticks in plans.items():
                    futures[name].append(
                        service.push_tick(handles[name], ticks[i])
                    )
            responses = {
                name: [f.result(60.0) for f in fs]
                for name, fs in futures.items()
            }
            report = service.drain()
        # Every streamed posterior matches that stream's offline oracle:
        # exact filtering AND zero cross-stream contamination.
        for name, ticks in plans.items():
            for i, response in enumerate(responses[name]):
                assert response.ok and response.t == i
                assert response.stream == name
                want = unrolled_posteriors(dbn, ticks[: i + 1], [0])
                np.testing.assert_allclose(
                    response.marginals[0], want[0], atol=1e-9
                )
        assert report.streams == 2
        assert report.ticks_ok == 12
        assert report.served_ok == 12
        assert report.window_rolls >= 2
        assert set(report.per_stream) == {"alpha", "beta"}
        assert report.per_stream["alpha"]["ok"] == 6

    def test_overflow_refusal_is_immediate_and_typed(self):
        dbn = _toy_hmm()
        executor = GatedExecutor()
        service = StreamingService(
            dbn,
            window=3,
            workers=1,
            max_pending=2,
            executor_factory=lambda: executor,
        )
        handle = service.subscribe(name="s")
        executor.gate.clear()
        executor.entered.clear()
        first = service.push_tick(handle, {1: 0})
        assert executor.entered.wait(30.0)  # worker wedged on tick 0
        queued = [service.push_tick(handle, {1: 1}) for _ in range(2)]
        refused = [service.push_tick(handle, {1: 1}) for _ in range(3)]
        for future in refused:  # resolved immediately, queue untouched
            response = future.result(0.5)
            assert response.status == "shed"
            assert response.kind == "stream-overflow"
            assert response.marginals == {}
            with pytest.raises(StreamOverflow):
                response.raise_for_status()
        executor.gate.set()
        applied = [{1: 0}, {1: 1}, {1: 1}]
        assert all(f.result(60.0).ok for f in [first] + queued)
        report = service.drain()
        assert report.ticks_ok == 3
        assert report.ticks_overflowed == 3
        assert report.shed == 3
        assert report.per_stream["s"]["overflowed"] == 3
        # Overflowed evidence was never applied: the session equals the
        # oracle over exactly the admitted ticks.
        want = unrolled_posteriors(dbn, applied, [0])
        np.testing.assert_allclose(
            handle.session.posterior(0), want[0], atol=1e-9
        )

    def test_closed_stream_refuses_new_ticks(self):
        dbn = _toy_hmm()
        with StreamingService(dbn, window=2, workers=1) as service:
            handle = service.subscribe(name="s")
            assert service.push_tick(handle, {1: 0}).result(60.0).ok
            service.close_stream(handle)
            response = service.push_tick(handle, {1: 1}).result(0.5)
            assert response.status == "shed"
            assert response.kind == "stream-closed"
            with pytest.raises(StreamClosed):
                response.raise_for_status()

    def test_queued_deadline_refused_without_application(self):
        dbn = _toy_hmm()
        executor = GatedExecutor()
        service = StreamingService(
            dbn,
            window=3,
            workers=1,
            executor_factory=lambda: executor,
        )
        handle = service.subscribe(name="s")
        executor.gate.clear()
        executor.entered.clear()
        first = service.push_tick(handle, {1: 0})
        assert executor.entered.wait(30.0)
        stale = service.push_tick(handle, {1: 1}, deadline=0.02)
        time.sleep(0.1)  # the queued tick's deadline expires while wedged
        executor.gate.set()
        assert first.result(60.0).ok
        response = stale.result(60.0)
        assert response.status == "deadline"
        report = service.drain()
        assert report.ticks_deadline == 1
        assert report.deadline_missed == 1
        want = unrolled_posteriors(dbn, [{1: 0}], [0])
        np.testing.assert_allclose(
            handle.session.posterior(0), want[0], atol=1e-9
        )

    def test_faulty_stream_refuses_and_recovers(self):
        dbn = _toy_hmm()
        executor = FlakyExecutor(failures=0)
        service = StreamingService(
            dbn, window=3, workers=1, executor_factory=lambda: executor
        )
        handle = service.subscribe(name="s")
        assert service.push_tick(handle, {1: 0}).result(60.0).ok
        executor.failures = 1
        failed = service.push_tick(handle, {1: 1}).result(60.0)
        assert failed.status == "failed"
        assert failed.error and "injected executor fault" in failed.error
        ok = service.push_tick(handle, {1: 1}).result(60.0)
        assert ok.ok and ok.t == 1  # failed tick never advanced time
        report = service.drain()
        assert report.ticks_failed == 1
        want = unrolled_posteriors(dbn, [{1: 0}, {1: 1}], [0])
        np.testing.assert_allclose(ok.marginals[0], want[0], atol=1e-9)

    def test_updates_feed_ends_after_close(self):
        dbn = _toy_hmm()
        with StreamingService(dbn, window=2, workers=1) as service:
            handle = service.subscribe(name="s", query_vars=[0])
            futures = [
                service.push_tick(handle, {1: i % 2}) for i in range(3)
            ]
            for future in futures:
                future.result(60.0)
            service.close_stream(handle)
            got = list(service.updates(handle, timeout=30.0))
        assert [r.t for r in got] == [0, 1, 2]
        assert all(r.ok for r in got)
        with pytest.raises(TimeoutError):
            fresh = StreamingService(dbn, window=2, workers=1)
            try:
                h2 = fresh.subscribe(name="quiet")
                next(iter(fresh.updates(h2, timeout=0.05)))
            finally:
                fresh.drain()

    def test_drain_is_idempotent_and_closes_admission(self):
        dbn = _toy_hmm()
        service = StreamingService(dbn, window=2, workers=1)
        handle = service.subscribe(name="s")
        service.push_tick(handle, {1: 0}).result(60.0)
        report = service.drain()
        assert service.drain() is report
        with pytest.raises(ServiceClosed):
            service.push_tick(handle, {1: 1})
        with pytest.raises(ServiceClosed):
            service.subscribe(name="late")
        text = report.format()
        assert "streams" in text and "s" in text
        payload = report.to_dict()
        assert payload["streams"] == 1
        assert payload["ticks_ok"] == 1
        assert payload["per_stream"]["s"]["ok"] == 1

    def test_duplicate_stream_name_rejected(self):
        with StreamingService(_toy_hmm(), window=2, workers=1) as service:
            service.subscribe(name="s")
            with pytest.raises(ValueError):
                service.subscribe(name="s")
            auto = service.subscribe()
            assert auto.name.startswith("stream-")

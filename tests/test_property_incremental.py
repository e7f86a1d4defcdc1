"""Property-based tests: incremental propagation equals full propagation.

For random evidence-delta sequences — hard observations, retractions,
overwrites, soft findings, hard<->soft transitions — an engine that
repropagates incrementally after every delta must agree with a freshly
built engine running full propagation, to 1e-12, on every executor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.sched import CollaborativeExecutor, WorkStealingExecutor
from repro.sched.resilient import ResilientExecutor
from repro.sched.serial import SerialExecutor

NUM_VARS = 10


@st.composite
def delta_sequences(draw, num_vars=NUM_VARS, max_len=6):
    """A sequence of evidence mutations, biased toward overlap so that
    overwrites, transitions and retractions of live findings occur."""
    length = draw(st.integers(min_value=1, max_value=max_len))
    ops = []
    for _ in range(length):
        var = draw(st.integers(min_value=0, max_value=num_vars - 1))
        kind = draw(st.sampled_from(["observe", "retract", "soft"]))
        if kind == "observe":
            ops.append(("observe", var, draw(st.integers(0, 1))))
        elif kind == "soft":
            weights = [
                draw(st.floats(min_value=0.05, max_value=1.0)),
                draw(st.floats(min_value=0.05, max_value=1.0)),
            ]
            ops.append(("soft", var, weights))
        else:
            ops.append(("retract", var, None))
    return ops


def _apply(engine, op):
    kind, var, value = op
    if kind == "observe":
        engine.observe(var, value)
    elif kind == "soft":
        engine.observe_soft(var, value)
    else:
        engine.retract(var)


def _check_sequence(bn, ops, executor_factory):
    engine = InferenceEngine.from_network(bn)
    engine.propagate(executor_factory())
    for op in ops:
        _apply(engine, op)
        engine.propagate(executor_factory())
        oracle = InferenceEngine.from_network(bn)
        oracle.set_evidence(engine.evidence)
        oracle.propagate(incremental=False)
        for v in range(NUM_VARS):
            np.testing.assert_allclose(
                engine._state.marginal(v),
                oracle._state.marginal(v),
                atol=1e-12,
            )
        np.testing.assert_allclose(
            engine._state.likelihood(),
            oracle._state.likelihood(),
            rtol=1e-12,
            atol=1e-300,
        )


@given(seed=st.integers(min_value=0, max_value=40), ops=delta_sequences())
@settings(max_examples=40, deadline=None)
def test_incremental_matches_full_serial(seed, ops):
    _check_sequence(random_network(NUM_VARS, seed=seed), ops, SerialExecutor)


@given(seed=st.integers(min_value=0, max_value=15), ops=delta_sequences(max_len=4))
@settings(max_examples=12, deadline=None)
def test_incremental_matches_full_collaborative(seed, ops):
    _check_sequence(
        random_network(NUM_VARS, seed=seed),
        ops,
        lambda: CollaborativeExecutor(num_threads=2, partition_threshold=4096),
    )


@given(seed=st.integers(min_value=0, max_value=15), ops=delta_sequences(max_len=4))
@settings(max_examples=12, deadline=None)
def test_incremental_matches_full_workstealing(seed, ops):
    _check_sequence(
        random_network(NUM_VARS, seed=seed),
        ops,
        lambda: WorkStealingExecutor(num_threads=2, partition_threshold=4096),
    )


@given(seed=st.integers(min_value=0, max_value=15), ops=delta_sequences(max_len=4))
@settings(max_examples=12, deadline=None)
def test_incremental_matches_full_resilient(seed, ops):
    _check_sequence(
        random_network(NUM_VARS, seed=seed),
        ops,
        lambda: ResilientExecutor(SerialExecutor()),
    )


@pytest.mark.slow
def test_incremental_matches_full_process_fixed_sequences():
    """Process executor: fixed delta sequences (pool startup is expensive,
    so this is not Hypothesis-driven; one executor is reused throughout)."""
    from repro.sched.process import ProcessSharedMemoryExecutor

    bn = random_network(NUM_VARS, seed=5)
    executor = ProcessSharedMemoryExecutor(num_workers=2)
    engine = InferenceEngine.from_network(bn)
    engine.propagate(executor)
    sequence = [
        ("observe", 2, 1),
        ("soft", 4, [0.3, 0.7]),
        ("observe", 4, 0),
        ("retract", 2, None),
    ]
    for op in sequence:
        _apply(engine, op)
        engine.propagate(executor)
        oracle = InferenceEngine.from_network(bn)
        oracle.set_evidence(engine.evidence)
        oracle.propagate(incremental=False)
        for v in range(NUM_VARS):
            np.testing.assert_allclose(
                engine._state.marginal(v),
                oracle._state.marginal(v),
                atol=1e-12,
            )

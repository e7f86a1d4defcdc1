"""Released state buffers are reused, and only ever when nothing can read them.

A single-case state takes its buffer (views already bound) from its
layout's free list and hands it back when it becomes unreachable.  Each
case here holds something that can still read a buffer — a table or an
array of a dropped state, a fork, an incremental source, a resilience
snapshot, a caller's adopted vector — and checks that the next 20
propagations on the same engine leave its bytes alone and never put its
buffer on the list.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from repro.inference.engine import InferenceEngine
from repro.jt.generation import synthetic_tree
from repro.sched import resilient
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.resilient import ResilientExecutor
from repro.sched.serial import SerialExecutor
from repro.serve import EngineSessionPool
from repro.tasks.layout import FREE_BUFFERS, table_layout
from repro.tasks.state import PropagationState
from repro.tasks.task import COLLECT


def _tree(seed=3, num_cliques=20):
    tree = synthetic_tree(
        num_cliques, clique_width=4, states=2, avg_children=2, seed=seed
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree


def _variables(tree):
    return sorted({v for c in tree.cliques for v in c.variables})


def _propagations(engine, count=20, seed=0):
    """``count`` propagations under moving findings: full runs, one-finding
    increments and targeted queries, so the constructor, ``incremental``
    and the stale-state paths all take buffers from the list."""
    rng = np.random.default_rng(seed)
    variables = _variables(engine.jt)
    for i in range(count):
        chosen = rng.choice(variables, size=2, replace=False)
        if i % 3 == 0:
            engine.set_evidence({int(v): int(rng.integers(2)) for v in chosen})
            engine.propagate(incremental=False)
        elif i % 3 == 1:
            engine.observe(int(chosen[0]), int(rng.integers(2)))
            engine.propagate()
        else:
            engine.query({int(chosen[0]): int(rng.integers(2))},
                         vars=[int(chosen[1])])
        yield engine._state


def _assert_untouched(engine, held, count=20):
    """``held`` (an array, or a table read through its ``values``) keeps
    its bytes through ``count`` propagations and never aliases the list
    or the engine's live state."""

    def read():
        return held if isinstance(held, np.ndarray) else held.values

    before = read().copy()
    layout = table_layout(engine.jt)
    for live in _propagations(engine, count):
        assert not any(
            np.shares_memory(v.buffer, read()) for v in layout.free
        )
        assert not np.shares_memory(live.buffer, read())
        assert np.array_equal(read(), before)


def _calibrated(tree=None):
    engine = InferenceEngine(tree or _tree())
    engine.set_evidence({0: 1})
    engine.propagate()
    return engine


class TestReuse:
    def test_a_propagation_loop_cycles_through_two_buffers(self):
        engine = _calibrated()
        seen = {id(state.buffer) for state in _propagations(engine, 30)}
        assert len(seen) <= 2
        assert len(table_layout(engine.jt).free) >= 1

    def test_the_list_never_exceeds_its_bound(self):
        tree = _tree()
        free = table_layout(tree).free
        states = [PropagationState(tree) for _ in range(2 * FREE_BUFFERS + 1)]
        assert len(free) == 0
        del states
        assert len(free) == FREE_BUFFERS

    def test_a_cleared_list_is_not_refilled_by_older_states(self):
        tree = _tree()
        free = table_layout(tree).free
        older = [PropagationState(tree) for _ in range(2)]
        del older[0]
        assert len(free) == 1
        free.clear()
        assert len(free) == 0
        del older  # taken before the clear: dropped, not kept
        assert len(free) == 0
        newer = PropagationState(tree)
        del newer  # taken after it: kept
        assert len(free) == 1

    def test_a_reused_buffer_answers_like_a_fresh_one(self):
        engine = _calibrated()
        fresh = InferenceEngine(engine.jt, reroot=False)
        for state in _propagations(engine):
            fresh.set_evidence(engine.evidence)
            fresh.propagate(incremental=False)
            for var in _variables(engine.jt)[:6]:
                assert np.allclose(
                    engine.marginal(var), fresh.marginal(var),
                    rtol=1e-9, atol=1e-12,
                )


class TestNothingReadableIsReused:
    @pytest.mark.parametrize("what", ["potential", "separator", "message"])
    def test_a_table_or_array_held_after_its_state_is_dropped(self, what):
        engine = _calibrated()
        state = engine._state
        if what == "potential":
            held = state.potentials[engine.jt.root]  # the table itself
        elif what == "separator":
            held = next(iter(state.separators.values())).values
        else:
            key = next(k for k in state._inter if k[0] == COLLECT)
            held = state._inter[key].values
        del state
        engine.set_evidence({1: 0})
        engine.propagate(incremental=False)  # the old state is dropped
        _assert_untouched(engine, held)

    @pytest.mark.parametrize("stale", [False, True])
    def test_a_fork(self, stale):
        engine = _calibrated()
        if stale:
            engine.query({2: 1}, vars=[_variables(engine.jt)[-1]])
            assert engine._stale
        twin = engine.fork()
        twin.marginals_all()  # a stale fork tops its own copy up
        state = twin._state
        answers = {v: state.marginal(v) for v in _variables(engine.jt)}
        _assert_untouched(engine, state.buffer)
        for var, answer in answers.items():
            assert np.array_equal(state.marginal(var), answer)

    def test_an_incremental_source(self):
        engine = _calibrated()
        source = engine._state
        engine.observe(_variables(engine.jt)[-1], 0)
        engine.propagate()
        assert engine.last_stats.incremental
        assert not np.shares_memory(engine._state.buffer, source.buffer)
        _assert_untouched(engine, source.buffer)

    def test_a_resilience_snapshot(self, monkeypatch):
        snapshots = []
        real = resilient.np

        class Recording:
            def __getattr__(self, name):
                return getattr(real, name)

            def copyto(self, dst, src):
                snapshots.append(src)
                real.copyto(dst, src)

        class Dies:
            def run(self, graph, state, **kw):
                state.buffer[:] = np.nan
                raise RuntimeError("tier died")

        monkeypatch.setattr(resilient, "np", Recording())
        engine = _calibrated()
        engine.set_evidence({1: 1})
        engine.propagate(
            executor=ResilientExecutor(Dies(), fallbacks=[SerialExecutor()]),
            incremental=False,
        )
        assert engine.last_stats.degradations
        (snapshot,) = snapshots
        monkeypatch.setattr(resilient, "np", real)
        _assert_untouched(engine, snapshot)

    def test_an_adopted_buffer(self):
        engine = _calibrated()
        layout = table_layout(engine.jt)
        kept = engine._state.buffer.copy()
        adopted = PropagationState.over(engine.jt, kept, {0: 1})
        SerialExecutor().run(engine.task_graph, adopted)
        del adopted
        _assert_untouched(engine, kept)
        # Dropped by its caller too, an adopted vector goes to the
        # garbage collector, never to the list.
        dropped = engine._state.buffer.copy()
        gone = weakref.ref(dropped)
        adopted = PropagationState.over(engine.jt, dropped, {0: 1})
        del adopted, dropped
        assert gone() is None
        # The process executor adopts its shared-memory arena the same way.
        engine.set_evidence({2: 0})
        engine.propagate(
            executor=ProcessSharedMemoryExecutor(
                num_workers=2, inline_threshold=0
            ),
            incremental=False,
        )
        for _ in _propagations(engine, 3):
            pass
        assert all(v.buffer.flags.owndata for v in layout.free)

    # Two sessions on two threads, then four (more threads than a 2-core
    # host has cores), with thread switches forced every few microseconds.
    @pytest.mark.parametrize("sessions", [2, 4])
    def test_pool_sessions_on_their_own_threads(self, sessions):
        pool = EngineSessionPool.from_junction_tree(
            _tree(seed=5), sessions=sessions
        )
        variables = pool.variables
        ready = threading.Barrier(sessions)
        clashes, errors = [], []

        def serve(seed):
            rng = np.random.default_rng(seed)
            try:
                with pool.session() as engine:
                    others = [e for e in pool.engines if e is not engine]
                    ready.wait(timeout=30)
                    for _ in range(60):
                        var, target = rng.choice(variables, 2, replace=False)
                        finding = None if rng.random() < 0.3 else int(
                            rng.integers(2)
                        )
                        engine.query({int(var): finding}, vars=[int(target)])
                        mine = engine._state.buffer
                        for other in others:
                            if np.shares_memory(mine, other._state.buffer):
                                clashes.append(seed)
            except Exception as exc:  # surfaced below, in the test thread
                errors.append(exc)

        threads = [
            threading.Thread(target=serve, args=(s,)) for s in range(sessions)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not clashes
        assert len(table_layout(pool.engines[0].jt).free) <= FREE_BUFFERS

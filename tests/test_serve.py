"""Tests for the concurrent inference service layer (repro.serve).

Covers the satellite fixes (QueryCache thread-safety, engine
re-entrancy, executor deadlines) and the service itself: admission
control, coalescing, deadlines, stale serving, the circuit breaker, and
graceful drain.  The contract every test enforces somewhere: a response
is exact (vs a fresh serial oracle) or an explicit refusal.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.cache import QueryCache
from repro.inference.engine import InferenceEngine
from repro.jt.build import junction_tree_from_network
from repro.registry import ModelRegistry, RegistryService
from repro.sched import CollaborativeExecutor, WorkStealingExecutor
from repro.sched.faults import TaskExecutionError
from repro.sched.resilient import ResilientExecutor
from repro.sched.serial import SerialExecutor
from repro.serve import (
    CircuitBreaker,
    DeadlineExceeded,
    EngineSessionPool,
    InferenceService,
    Overloaded,
    QueryRequest,
    ServiceClosed,
)
from repro.tasks.state import PropagationState


@pytest.fixture(scope="module")
def serve_network():
    return random_network(
        18, cardinality=2, max_parents=3, edge_probability=0.7, seed=21
    )


@pytest.fixture(scope="module")
def serve_tree(serve_network):
    return junction_tree_from_network(serve_network)


@pytest.fixture
def oracle(serve_network):
    return InferenceEngine.from_network(serve_network)


def exact_marginals(oracle, request):
    oracle.set_evidence(request.evidence())
    oracle.propagate(incremental=False)
    variables = request.vars
    if variables is None:
        return oracle.marginals_all()
    return {int(v): oracle.marginal(int(v)) for v in variables}


# --------------------------------------------------------------------- #
# Satellite: QueryCache thread-safety
# --------------------------------------------------------------------- #


class TestQueryCacheConcurrency:
    def test_concurrent_put_get_no_corruption(self):
        cache = QueryCache(capacity=16)
        errors = []

        def hammer(tid):
            try:
                for i in range(400):
                    sig = (("h", ((tid + i) % 24, 1)), ("s",))
                    cache.put_marginal(sig, i % 5, np.array([0.5, 0.5]))
                    got = cache.get_marginal(sig, i % 5)
                    if got is not None:
                        assert got.shape == (2,)
                    cache.put_likelihood(sig, 0.25)
                    cache.get_likelihood(sig)
                    if i % 97 == 0:
                        cache.clear()
                    len(cache)
                    cache.hit_rate()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 16  # LRU capacity respected under the storm

    def test_returned_arrays_are_write_protected(self):
        cache = QueryCache(capacity=4)
        sig = (("h", (0, 1)), ("s",))
        cache.put_marginal(sig, 0, np.array([0.3, 0.7]))
        out = cache.get_marginal(sig, 0)
        with pytest.raises(ValueError):
            out[0] = 99.0  # cached entries are immutable to all clients
        assert cache.get_marginal(sig, 0)[0] == pytest.approx(0.3)


# --------------------------------------------------------------------- #
# Satellite: engine re-entrancy
# --------------------------------------------------------------------- #


class TestEngineReentrancy:
    def test_concurrent_queries_one_engine_exact(self, serve_network):
        engine = InferenceEngine.from_network(serve_network)
        oracle = InferenceEngine.from_network(serve_network)
        deltas = [{v: v % 2} for v in range(8)]
        results = {}
        errors = []

        def worker(idx):
            try:
                # Full evidence replacement per call keeps each thread's
                # conditioning self-contained despite the shared engine.
                engine.set_evidence(deltas[idx])
                engine.propagate(incremental=False)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(deltas))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Whatever evidence won the race, the state must be consistent
        # with it (no interleaved half-propagation).
        final = engine.evidence.as_dict()
        oracle.set_evidence(final)
        oracle.propagate(incremental=False)
        for var in (10, 15):
            np.testing.assert_allclose(
                engine.marginal(var), oracle.marginal(var), atol=1e-9
            )


# --------------------------------------------------------------------- #
# Satellite: executor deadlines
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "executor_factory",
    [
        SerialExecutor,
        lambda: CollaborativeExecutor(num_threads=2),
        lambda: WorkStealingExecutor(num_threads=2),
    ],
    ids=["serial", "collaborative", "workstealing"],
)
class TestExecutorDeadlines:
    def test_expired_deadline_raises(self, serve_tree, executor_factory):
        engine = InferenceEngine(serve_tree)
        executor = executor_factory()
        with pytest.raises(TaskExecutionError) as info:
            engine.propagate(
                executor, deadline=time.monotonic() - 1.0
            )
        assert info.value.phase == "deadline"

    def test_generous_deadline_is_exact(
        self, serve_tree, executor_factory, oracle
    ):
        engine = InferenceEngine(serve_tree)
        engine.set_evidence({0: 1})
        engine.propagate(
            executor_factory(), deadline=time.monotonic() + 60.0
        )
        oracle.set_evidence({0: 1})
        oracle.propagate(incremental=False)
        np.testing.assert_allclose(
            engine.marginal(9), oracle.marginal(9), atol=1e-9
        )

    def test_engine_recovers_after_deadline_miss(
        self, serve_tree, executor_factory, oracle
    ):
        engine = InferenceEngine(serve_tree)
        engine.set_evidence({1: 0})
        with pytest.raises(TaskExecutionError):
            engine.propagate(
                executor_factory(), deadline=time.monotonic() - 1.0
            )
        # The miss must not poison the engine: the next call answers.
        engine.propagate(executor_factory())
        oracle.set_evidence({1: 0})
        oracle.propagate(incremental=False)
        np.testing.assert_allclose(
            engine.marginal(7), oracle.marginal(7), atol=1e-9
        )


def test_resilient_deadline_does_not_cascade(serve_tree):
    """A slower tier cannot beat a clock the fast tier missed: re-raise."""
    engine = InferenceEngine(serve_tree)
    wrapped = ResilientExecutor(
        CollaborativeExecutor(num_threads=2),
        fallbacks=[SerialExecutor()],
    )
    with pytest.raises(TaskExecutionError) as info:
        engine.propagate(wrapped, deadline=time.monotonic() - 1.0)
    assert info.value.phase == "deadline"


def test_resilient_forwards_deadline_to_surviving_tier(serve_tree):
    class Broken:
        def run(self, graph, state, **kw):
            raise RuntimeError("always down")

    engine = InferenceEngine(serve_tree)
    wrapped = ResilientExecutor(Broken(), fallbacks=[SerialExecutor()])
    state = engine.propagate(wrapped, deadline=time.monotonic() + 60.0)
    assert isinstance(state, PropagationState)
    assert engine.last_stats.completed_executor == "SerialExecutor"


# --------------------------------------------------------------------- #
# CircuitBreaker unit
# --------------------------------------------------------------------- #


class TestCircuitBreaker:
    def make(self, **kw):
        self.now = [0.0]
        kw.setdefault("clock", lambda: self.now[0])
        return CircuitBreaker(**kw)

    def test_opens_after_threshold(self):
        br = self.make(failure_threshold=3, reset_timeout=10.0)
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.opens == 1

    def test_success_resets_failure_streak(self):
        br = self.make(failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # streak broken, not cumulative

    def test_half_open_probe_success_closes(self):
        br = self.make(failure_threshold=1, reset_timeout=5.0)
        br.record_failure()
        assert not br.allow()
        self.now[0] = 5.0
        assert br.allow()  # the probe slot
        assert br.state == "half-open"
        assert not br.allow()  # only one probe
        br.record_success()
        assert br.state == "closed"
        assert br.allow()

    def test_half_open_probe_failure_reopens(self):
        br = self.make(failure_threshold=1, reset_timeout=5.0)
        br.record_failure()
        self.now[0] = 5.0
        assert br.allow()
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.opens == 2

    def test_release_probe_unblocks_next_probe(self):
        br = self.make(failure_threshold=1, reset_timeout=1.0)
        br.record_failure()
        self.now[0] = 1.0
        assert br.allow()
        assert not br.allow()
        br.release_probe()  # abandoned attempt hands the slot back
        assert br.allow()

    def test_transitions_recorded(self):
        br = self.make(failure_threshold=1, reset_timeout=1.0)
        br.record_failure("boom")
        self.now[0] = 1.0
        br.allow()
        br.record_success()
        states = [(t.from_state, t.to_state) for t in br.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert "boom" in br.transitions[0].reason


# --------------------------------------------------------------------- #
# EngineSessionPool
# --------------------------------------------------------------------- #


class TestEngineSessionPool:
    def test_sessions_share_tree_and_cache(self, serve_tree):
        pool = EngineSessionPool.from_junction_tree(serve_tree, sessions=3)
        assert pool.num_sessions == 3
        assert all(e.jt is pool.engines[0].jt for e in pool.engines)
        assert all(e.cache is pool.cache for e in pool.engines)

    def test_checkout_blocks_until_checkin(self, serve_tree):
        pool = EngineSessionPool.from_junction_tree(serve_tree, sessions=1)
        with pool.session() as engine:
            assert engine is pool.engines[0]
            with pytest.raises(Exception):
                with pool.session(timeout=0.05):
                    pass  # pragma: no cover
        with pool.session(timeout=1.0) as engine:
            assert engine is pool.engines[0]

    def test_warm_sessions_answer_immediately(self, serve_tree, oracle):
        pool = EngineSessionPool.from_junction_tree(serve_tree, sessions=2)
        oracle.set_evidence({})
        oracle.propagate(incremental=False)
        with pool.session() as engine:
            np.testing.assert_allclose(
                engine.marginal(3), oracle.marginal(3), atol=1e-9
            )


# --------------------------------------------------------------------- #
# InferenceService
# --------------------------------------------------------------------- #


def make_service(serve_tree, **kw):
    pool = EngineSessionPool.from_junction_tree(
        serve_tree, sessions=kw.pop("sessions", 2)
    )
    kw.setdefault("fallback", CollaborativeExecutor(num_threads=2))
    kw.setdefault("max_queue", 32)
    return InferenceService(pool, **kw)


class TestServiceCorrectness:
    @pytest.mark.parametrize(
        "fallback_factory",
        [
            SerialExecutor,
            lambda: CollaborativeExecutor(num_threads=2),
            lambda: WorkStealingExecutor(num_threads=2),
        ],
        ids=["serial", "collaborative", "workstealing"],
    )
    def test_concurrent_clients_exact_on_every_tier(
        self, serve_tree, oracle, fallback_factory
    ):
        service = make_service(serve_tree, fallback=fallback_factory())
        requests = [
            QueryRequest(delta={v: v % 2}, vars=[10, 15], deadline=30.0)
            for v in range(6)
        ]
        futures = [service.submit(r) for r in requests]
        for request, future in zip(requests, futures):
            response = future.result(60.0)
            assert response.status == "ok", response.error
            exact = exact_marginals(oracle, request)
            for var, values in response.marginals.items():
                np.testing.assert_allclose(values, exact[var], atol=1e-9)
        report = service.drain()
        assert report.failed == 0

    def test_all_vars_request(self, serve_tree, oracle):
        service = make_service(serve_tree)
        response = service.query(delta={2: 1}, vars=None, deadline=30.0)
        service.drain()
        assert response.status == "ok"
        exact = exact_marginals(
            oracle, QueryRequest(delta={2: 1}, vars=None)
        )
        assert set(response.marginals) == set(exact)
        for var, values in response.marginals.items():
            np.testing.assert_allclose(values, exact[var], atol=1e-9)

    def test_soft_evidence_request(self, serve_tree, oracle):
        service = make_service(serve_tree)
        request = QueryRequest(
            delta={4: [0.8, 0.2], 9: 1}, vars=[12], deadline=30.0
        )
        response = service.submit(request).result(60.0)
        service.drain()
        assert response.status == "ok"
        exact = exact_marginals(oracle, request)
        np.testing.assert_allclose(
            response.marginals[12], exact[12], atol=1e-9
        )


class TestServiceCoalescing:
    def test_identical_requests_coalesce(self, serve_tree, oracle):
        service = make_service(serve_tree, workers=1, sessions=1)
        request = QueryRequest(delta={3: 1}, vars=[11], deadline=30.0)
        futures = [service.submit(request) for _ in range(12)]
        responses = [f.result(60.0) for f in futures]
        report = service.drain()
        assert all(r.status == "ok" for r in responses)
        assert report.coalesced > 0
        exact = exact_marginals(oracle, request)
        for r in responses:
            np.testing.assert_allclose(
                r.marginals[11], exact[11], atol=1e-9
            )

    def test_coalesced_union_of_vars(self, serve_tree, oracle):
        service = make_service(serve_tree, workers=1, sessions=1)
        reqs = [
            QueryRequest(delta={3: 1}, vars=[v], deadline=30.0)
            for v in (8, 11, 14)
        ]
        futures = [service.submit(r) for r in reqs]
        for request, future in zip(reqs, futures):
            response = future.result(60.0)
            assert response.status == "ok"
            assert set(response.marginals) == set(request.vars)
            exact = exact_marginals(oracle, request)
            for var in request.vars:
                np.testing.assert_allclose(
                    response.marginals[var], exact[var], atol=1e-9
                )
        service.drain()

    def test_repeat_signature_served_from_cache(self, serve_tree):
        service = make_service(serve_tree)
        first = service.query(delta={5: 0}, vars=[10], deadline=30.0)
        second = service.query(delta={5: 0}, vars=[10], deadline=30.0)
        report = service.drain()
        assert first.status == second.status == "ok"
        np.testing.assert_allclose(
            first.marginals[10], second.marginals[10], atol=0
        )
        assert report.tier_counts.get("cache", 0) >= 1


class TestServiceAdmission:
    def test_overload_sheds_explicitly(self, serve_tree):
        service = make_service(serve_tree, max_queue=1, workers=1,
                               sessions=1)
        futures = [
            service.submit(
                QueryRequest(delta={v % 18: 0}, vars=[2], deadline=30.0)
            )
            for v in range(40)
        ]
        responses = [f.result(60.0) for f in futures]
        report = service.drain()
        statuses = {r.status for r in responses}
        assert report.shed > 0
        assert statuses <= {"ok", "shed"}
        shed = [r for r in responses if r.status == "shed"]
        assert all(r.marginals == {} and r.error for r in shed)
        with pytest.raises(Overloaded):
            shed[0].raise_for_status()

    @staticmethod
    def _overloaded_service(serve_tree, prime_delta):
        """A service wedged at full queue, store primed under prime_delta.

        Returns ``(service, release)``: the worker is blocked inside a
        gated executor and the admission queue holds one more flight, so
        every subsequent submit deterministically takes the overload
        path.  ``release()`` unblocks the worker (call before drain).
        """

        class GatedSerial(SerialExecutor):
            def __init__(self):
                super().__init__()
                self.gate = threading.Event()
                self.gate.set()
                self.entered = threading.Event()

            def run(self, graph, state, **kw):
                self.entered.set()
                assert self.gate.wait(60.0)
                return super().run(graph, state, **kw)

        executor = GatedSerial()
        service = make_service(
            serve_tree, max_queue=1, workers=1, sessions=1,
            fallback=executor,
        )
        # Prime the last-known store with an exact answer for var 2
        # under the priming conditioning (the gate is open).
        primed = service.query(delta=prime_delta, vars=[2], deadline=30.0)
        assert primed.status == "ok"
        # Close the gate, wedge the worker on one flight, then fill the
        # queue with a second — admission is now deterministically full.
        executor.gate.clear()
        executor.entered.clear()
        service.submit(QueryRequest(delta={5: 1}, vars=[2], deadline=30.0))
        assert executor.entered.wait(30.0)
        service.submit(QueryRequest(delta={6: 1}, vars=[2], deadline=30.0))
        return service, executor.gate.set

    def test_overload_serves_stale_when_allowed(self, serve_tree, oracle):
        service, release = self._overloaded_service(
            serve_tree, prime_delta={0: 1}
        )
        # Same conditioning as the primed store entry: the stale answer
        # is a dated answer to the *same* question, so it may be served.
        future = service.submit(
            QueryRequest(
                delta={0: 1}, vars=[2], deadline=30.0, max_staleness=60.0
            )
        )
        response = future.result(60.0)
        release()
        report = service.drain()
        assert response.status == "stale"
        assert response.stale_age is not None
        assert response.stale_age <= 60.0
        assert report.served_stale == 1
        assert report.stale_signature_miss == 0
        exact = exact_marginals(
            oracle, QueryRequest(delta={0: 1}, vars=[2])
        )
        np.testing.assert_allclose(
            response.marginals[2], exact[2], atol=1e-9
        )

    def test_overload_never_serves_other_conditionings_stale(
        self, serve_tree, oracle
    ):
        # Regression: the stale store is keyed by variable, and
        # _resolve_overload used to discard the stored evidence
        # signature — an overloaded request conditioning on {3: 1} was
        # handed the marginals computed under {0: 1}.  The fixed
        # contract sheds on signature mismatch, always.
        service, release = self._overloaded_service(
            serve_tree, prime_delta={0: 1}
        )
        future = service.submit(
            QueryRequest(
                delta={3: 1}, vars=[2], deadline=30.0, max_staleness=60.0
            )
        )
        response = future.result(60.0)
        release()
        report = service.drain()
        # Never another conditioning's marginals: refuse explicitly.
        assert response.status == "shed"
        assert response.marginals == {}
        assert report.served_stale == 0
        assert report.stale_signature_miss == 1
        assert report.to_dict()["stale_signature_miss"] == 1
        with pytest.raises(Overloaded):
            response.raise_for_status()
        # The primed answer really is different evidence: the two
        # conditionings give different posteriors for var 2.
        primed = exact_marginals(oracle, QueryRequest(delta={0: 1}, vars=[2]))
        other = exact_marginals(oracle, QueryRequest(delta={3: 1}, vars=[2]))
        assert float(np.abs(primed[2] - other[2]).max()) > 1e-12

    def test_expired_staleness_is_shed(self, serve_tree):
        service = make_service(serve_tree, max_queue=1, workers=1,
                               sessions=1)
        assert service.query(vars=[2], deadline=30.0).status == "ok"
        time.sleep(0.05)
        futures = [
            service.submit(
                QueryRequest(
                    delta={v % 18: 0}, vars=[2], deadline=30.0,
                    max_staleness=1e-4,  # far younger than anything stored
                )
            )
            for v in range(30)
        ]
        responses = [f.result(60.0) for f in futures]
        service.drain()
        assert {r.status for r in responses} <= {"ok", "shed"}


class TestServiceDeadlines:
    def test_unmeetable_deadline_is_explicit(self, serve_tree):
        service = make_service(serve_tree)
        response = service.query(delta={0: 1}, vars=[5], deadline=1e-6)
        service.drain()
        assert response.status == "deadline"
        assert response.marginals == {}
        with pytest.raises(DeadlineExceeded):
            response.raise_for_status()

    def test_deadline_miss_count_in_report(self, serve_tree):
        service = make_service(serve_tree)
        for _ in range(3):
            service.query(delta={1: 0}, vars=[5], deadline=1e-6)
        report = service.drain()
        assert report.deadline_missed == 3


class TestServiceBreaker:
    class FailingPrimary:
        def __init__(self, fail_first: int):
            self.fail_first = fail_first
            self.calls = 0
            self._serial = SerialExecutor()

        def run(self, graph, state, tracer=None, deadline=None):
            self.calls += 1
            if self.calls <= self.fail_first:
                raise RuntimeError("pool down")
            return self._serial.run(graph, state, deadline=deadline)

    def test_failures_open_breaker_and_fallback_is_exact(
        self, serve_tree, oracle
    ):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        service = make_service(
            serve_tree,
            primary=self.FailingPrimary(fail_first=10 ** 9),
            breaker=breaker,
            workers=1,
            sessions=1,
        )
        requests = [
            QueryRequest(delta={v: 1}, vars=[10], deadline=30.0)
            for v in range(5)
        ]
        for request in requests:
            response = service.submit(request).result(60.0)
            assert response.status == "ok", response.error
            exact = exact_marginals(oracle, request)
            np.testing.assert_allclose(
                response.marginals[10], exact[10], atol=1e-9
            )
        report = service.drain()
        assert breaker.state == "open"
        assert report.breaker_short_circuits > 0
        assert any(t.to_state == "open" for t in report.breaker_transitions)

    def test_half_open_probe_recovers(self, serve_tree):
        clockbox = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: clockbox[0]
        )
        primary = self.FailingPrimary(fail_first=1)
        service = make_service(
            serve_tree, primary=primary, breaker=breaker, workers=1,
            sessions=1,
        )
        assert service.query(delta={0: 1}, vars=[4],
                             deadline=30.0).status == "ok"
        assert breaker.state == "open"
        clockbox[0] = 5.0  # open window elapses on the injected clock
        assert service.query(delta={1: 1}, vars=[4],
                             deadline=30.0).status == "ok"
        report = service.drain()
        assert breaker.state == "closed"
        assert primary.calls == 2  # the probe actually reached the primary
        assert [t.to_state for t in report.breaker_transitions] == [
            "open", "half-open", "closed",
        ]

    def test_unhealthy_primary_result_falls_back_exactly(
        self, serve_tree, oracle
    ):
        class Corruptor:
            """Completes the run, then poisons a table: the service's
            health guard must catch it before any marginal escapes."""

            def run(self, graph, state, tracer=None, deadline=None):
                stats = SerialExecutor().run(graph, state, deadline=deadline)
                next(iter(state.potentials.values())).values[...] = np.nan
                return stats

        service = make_service(
            serve_tree, primary=Corruptor(), workers=1, sessions=1,
        )
        request = QueryRequest(delta={6: 1}, vars=[13], deadline=30.0)
        response = service.submit(request).result(60.0)
        service.drain()
        assert response.status == "ok"
        exact = exact_marginals(oracle, request)
        np.testing.assert_allclose(
            response.marginals[13], exact[13], atol=1e-9
        )


class TestServiceDrain:
    def test_drain_finishes_inflight_and_rejects_new(self, serve_tree):
        service = make_service(serve_tree, workers=2)
        futures = [
            service.submit(
                QueryRequest(delta={v: 0}, vars=[3], deadline=30.0)
            )
            for v in range(8)
        ]
        report = service.drain()
        # Every admitted request resolved (exact or refused), none lost.
        assert all(f.done() for f in futures)
        assert report.submitted == 8
        assert (
            report.served_ok + report.shed + report.deadline_missed
            + report.failed == 8
        )
        with pytest.raises(ServiceClosed):
            service.submit(QueryRequest(vars=[0]))

    def test_drain_is_idempotent(self, serve_tree):
        service = make_service(serve_tree)
        first = service.drain()
        assert service.drain() is first

    def test_no_leaked_threads(self, serve_tree):
        before = {t.name for t in threading.enumerate()}
        service = make_service(serve_tree, workers=3)
        for v in range(4):
            service.query(delta={v: 1}, vars=[2], deadline=30.0)
        service.drain()
        after = {
            t.name
            for t in threading.enumerate()
            if t.is_alive() and t.name not in before
        }
        assert after == set()

    def test_context_manager_drains(self, serve_tree):
        with make_service(serve_tree) as service:
            assert service.query(vars=[1], deadline=30.0).status == "ok"
        assert service._report is not None

    def test_report_latency_percentiles(self, serve_tree):
        service = make_service(serve_tree)
        for v in range(5):
            service.query(delta={v: 0}, vars=[6], deadline=30.0)
        report = service.drain()
        assert set(report.latency) == {"p50", "p90", "p99"}
        assert 0 < report.latency["p50"] <= report.latency["p99"]
        # The serve spans back the percentiles: they must be in the trace.
        serve_spans = [
            s for s in report.trace.spans if s.cat == "serve"
        ]
        assert len(serve_spans) == report.submitted
        assert report.format()  # renders without raising


# --------------------------------------------------------------------- #
# Queued flights behind a wedged worker
# --------------------------------------------------------------------- #


class _GateExecutor(SerialExecutor):
    """SerialExecutor whose first run blocks until released.

    With ``workers=1`` this pins the single worker on one flight while a
    test fills the queue, making the serving order deterministic.
    """

    def __init__(self):
        super().__init__()
        self.started = threading.Event()  # first run reached the gate
        self.release = threading.Event()
        self._blocked = False

    def run(self, graph, state, **kw):
        if not self._blocked:
            self._blocked = True
            self.started.set()
            assert self.release.wait(timeout=30.0)
        return super().run(graph, state, **kw)


def _gated_service(serve_tree, **kw):
    """A one-worker, one-session service wedged on its first flight."""
    gate = _GateExecutor()
    service = make_service(
        serve_tree, sessions=1, workers=1, fallback=gate, **kw
    )
    blocker = service.submit(
        # Non-empty delta: an empty one is a propagation no-op on the
        # pre-warmed session and would never reach the gate.
        QueryRequest(delta={17: 1}, vars=[1], deadline=30.0)
    )
    assert gate.started.wait(timeout=30.0)
    return service, gate, blocker


class TestQueuedFlights:
    def test_priority_order_preserved(self, serve_tree):
        service, gate, blocker = _gated_service(serve_tree)
        served = []
        futures = {}
        for prio in (2, 0, 1):
            futures[prio] = service.submit(
                QueryRequest(
                    delta={prio: 0}, vars=[5], deadline=30.0, priority=prio
                )
            )
            futures[prio].add_done_callback(
                lambda _response, p=prio: served.append(p)
            )
        gate.release.set()
        assert blocker.result(timeout=30).status == "ok"
        for future in futures.values():
            assert future.result(timeout=30).status == "ok"
        assert served == [0, 1, 2]
        service.drain()

    def test_expired_member_refused_others_exact(self, serve_tree, oracle):
        service, gate, blocker = _gated_service(serve_tree)
        doomed = service.submit(
            QueryRequest(delta={2: 1}, vars=[4], deadline=0.05)
        )
        live_request = QueryRequest(delta={3: 0}, vars=[4], deadline=30.0)
        live = service.submit(live_request)
        time.sleep(0.2)  # let the short deadline lapse while queued
        gate.release.set()
        assert blocker.result(timeout=30).status == "ok"
        assert doomed.result(timeout=30).status == "deadline"
        response = live.result(timeout=30)
        assert response.status == "ok"
        exact = exact_marginals(oracle, live_request)
        np.testing.assert_allclose(
            response.marginals[4], exact[4], rtol=1e-9, atol=1e-12
        )
        report = service.drain()
        assert report.deadline_missed == 1


# --------------------------------------------------------------------- #
# Admission: a bad request value is refused before anything is queued
# --------------------------------------------------------------------- #


BAD_REQUEST_VALUES = pytest.mark.parametrize(
    "field,value",
    [
        ("priority", "high"),
        ("priority", True),
        ("priority", 1.5),
        ("deadline", float("nan")),
        ("deadline", float("inf")),
        ("deadline", -1.0),
        ("deadline", "soon"),
        ("max_staleness", float("nan")),
        ("max_staleness", -0.5),
    ],
)


def _no_request_lost(report):
    assert report.submitted == (
        report.served_ok + report.served_stale + report.shed
        + report.deadline_missed + report.failed
    )


class TestRequestValidation:
    @BAD_REQUEST_VALUES
    def test_inference_service_refuses_and_keeps_its_worker(
        self, serve_tree, field, value
    ):
        service, gate, blocker = _gated_service(serve_tree)
        # One valid flight queued ahead: a bad priority would otherwise
        # have to be compared with it inside the ready queue.
        ahead = service.submit(
            QueryRequest(delta={6: 1}, vars=[2], deadline=30.0)
        )
        fields = {"deadline": 30.0, field: value}
        with pytest.raises(ValueError):
            service.submit(QueryRequest(delta={4: 1}, vars=[3], **fields))
        gate.release.set()
        assert blocker.result(timeout=30).status == "ok"
        assert ahead.result(timeout=30).status == "ok"
        # The same evidence again finds no orphaned flight to join.
        follow_up = service.submit(
            QueryRequest(delta={4: 1}, vars=[3], deadline=2.0)
        )
        assert follow_up.result(timeout=10).status == "ok"
        assert service._workers[0].is_alive()
        report = service.drain()
        assert report.submitted == 3
        _no_request_lost(report)

    @BAD_REQUEST_VALUES
    def test_registry_service_refuses_and_keeps_serving(
        self, serve_network, field, value
    ):
        registry = ModelRegistry(sessions=1)
        registry.register("m", network=serve_network)
        service = RegistryService(registry)
        fields = {"deadline": 30.0, field: value}
        with pytest.raises(ValueError):
            service.submit(
                QueryRequest(
                    delta={4: 1}, vars=[3], model_id="m", tenant="t",
                    **fields,
                )
            )
        follow_up = service.submit(
            QueryRequest(
                delta={4: 1}, vars=[3], deadline=2.0, model_id="m",
                tenant="t",
            )
        )
        assert follow_up.result(timeout=10).status == "ok"
        report = service.drain()
        assert report.submitted == 1
        _no_request_lost(report)
        assert service.scheduler.snapshot()["t"]["inflight"] == 0


# --------------------------------------------------------------------- #
# Abandoned breaker probes
# --------------------------------------------------------------------- #


class TestAbandonedProbeRelease:
    def test_deadline_before_probe_attempt_releases_the_slot(
        self, serve_tree
    ):
        clockbox = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: clockbox[0]
        )
        service = make_service(
            serve_tree,
            primary=SerialExecutor(),
            breaker=breaker,
            workers=1,
            sessions=1,
        )
        breaker.record_failure("seeded failure")
        assert breaker.state == "open"
        clockbox[0] = 5.0  # the open window elapses: next allow() probes

        # Steal the pool's only session so the worker reserves its probe
        # slot in _tiers() and then blocks on session checkout until the
        # request's deadline has already passed.
        engine = service.pool._free.get(timeout=5.0)
        future = service.submit(
            QueryRequest(delta={0: 1}, vars=[1], deadline=0.3)
        )
        time.sleep(0.6)
        service.pool._free.put(engine)

        response = future.result(timeout=10.0)
        assert response.status == "deadline"
        assert breaker.state == "half-open"
        # The abandoned probe slot was handed back: probing is not
        # starved, the next caller can still attempt the primary.
        assert breaker._probes_in_flight == 0
        assert breaker.allow()
        breaker.release_probe()
        service.drain()


class TestProbeAccounting:
    def test_deadline_inside_the_probe_hands_the_slot_back(self, serve_tree):
        """A half-open probe whose flight hits its deadline inside the
        primary gave no verdict: its slot must come back, or the breaker
        stays half-open and every later flight skips the primary."""

        class DownThenDeadline:
            def __init__(self):
                self.calls = 0

            def run(self, graph, state, tracer=None, deadline=None):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("pool down")
                if self.calls == 2:
                    raise TaskExecutionError("timed out", phase="deadline")
                return SerialExecutor().run(graph, state, deadline=deadline)

        clockbox = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=0.05, clock=lambda: clockbox[0]
        )
        primary = DownThenDeadline()
        service = make_service(
            serve_tree, primary=primary, breaker=breaker, workers=1,
            sessions=1,
        )
        first = service.query(delta={0: 1}, vars=[4], deadline=30.0)
        assert first.status == "ok"
        assert breaker.state == "open"
        clockbox[0] = 1.0
        probe = service.query(delta={1: 1}, vars=[4], deadline=30.0)
        assert probe.status == "deadline"
        assert breaker._probes_in_flight == 0
        after = service.query(delta={2: 1}, vars=[4], deadline=30.0)
        service.drain()
        assert after.status == "ok"
        assert primary.calls == 3  # the next flight probed the primary
        assert breaker.state == "closed"


# --------------------------------------------------------------------- #
# Evidence with no posterior
# --------------------------------------------------------------------- #


@pytest.fixture
def asia_pool():
    from repro.models import asia

    bn, _ = asia()
    return EngineSessionPool.from_network(bn, sessions=1)


IMPOSSIBLE = {3: 1, 5: 0}  # asia: lung = yes but either = no, P(e) = 0


class TestImpossibleEvidence:
    def _assert_refused(self, response):
        assert response.status == "failed"
        assert response.marginals == {}
        assert "P(evidence) = 0.0 is not > 0" in response.error

    def test_single_flight_refuses_and_never_caches(self, asia_pool):
        service = InferenceService(
            asia_pool, fallback=SerialExecutor(), workers=1
        )
        for _ in range(2):  # a repeat is refused again, not cache-served
            self._assert_refused(
                service.query(delta=dict(IMPOSSIBLE), vars=[7], deadline=30.0)
            )
        signature = QueryRequest(delta=dict(IMPOSSIBLE)).signature()
        assert asia_pool.cache.get_marginal(signature, 7) is None
        # The session still serves possible evidence exactly.
        fine = service.query(delta={3: 1}, vars=[7], deadline=30.0)
        report = service.drain()
        assert fine.status == "ok"
        assert report.quarantined == 2
        assert "cache" not in report.tier_counts
        assert all(
            sig != signature for _v, _ts, sig in asia_pool.stale.values()
        )


def test_non_finite_soft_evidence_is_refused_at_the_request():
    for bad in (float("nan"), float("inf")):
        request = QueryRequest(delta={0: [bad, 1.0]}, vars=[3])
        with pytest.raises(ValueError, match="finite and non-negative"):
            request.evidence()

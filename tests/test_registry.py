"""Tests for the sharded multi-tenant model registry (repro.registry).

Covers the compile pipeline (deadline-aware, stage-timed), the fair
scheduler's quota/penalty math, the registry lifecycle (single-flight
compiles, LRU eviction to stubs under a global budget, checkpoint
rehydration) and the multi-tenant front door.  The contract carried over
from the serve layer: every response is exact versus that model's own
serial oracle, or an explicitly *typed* refusal.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro.bn.generation import random_network
from repro.inference.engine import InferenceEngine
from repro.registry import (
    CompileDeadlineExceeded,
    ModelEvicted,
    ModelNotFound,
    ModelRegistry,
    RegistryService,
    TenantQuotaExceeded,
    TenantScheduler,
    compile_model,
    rehydrate_model,
)
from repro.serve import (
    EngineSessionPool,
    QueryRequest,
    ServiceClosed,
)
from repro.tasks.layout import FREE_BUFFERS, table_layout

RTOL = 1e-9


def make_networks(count=3, size=10, seed=40):
    return {
        f"m{i}": random_network(
            size, cardinality=2, max_parents=2, edge_probability=0.7,
            seed=seed + i,
        )
        for i in range(count)
    }


def make_registry(networks, **kw):
    kw.setdefault("sessions", 2)
    kw.setdefault("cache_size", 32)
    registry = ModelRegistry(**kw)
    for model_id, network in networks.items():
        registry.register(model_id, network=network)
    return registry


def exact_marginals(network, request):
    oracle = InferenceEngine.from_network(network)
    oracle.set_evidence(request.evidence())
    oracle.propagate(incremental=False)
    variables = request.vars
    if variables is None:
        return oracle.marginals_all()
    return {int(v): oracle.marginal(int(v)) for v in variables}


def assert_exact(network, request, response):
    assert response.status == "ok", response.error
    expected = exact_marginals(network, request)
    assert set(response.marginals) == set(expected)
    for var, values in expected.items():
        np.testing.assert_allclose(
            response.marginals[var], values, rtol=RTOL, atol=0
        )


# --------------------------------------------------------------------- #
# Compiler
# --------------------------------------------------------------------- #


class TestCompiler:
    def test_compiled_model_answers_exactly(self):
        bn = make_networks(1)["m0"]
        compiled = compile_model("m0", bn, sessions=2)
        request = QueryRequest(delta={0: 1}, vars=[3, 5])
        with compiled.pool.session() as engine:
            engine.set_evidence(request.evidence())
            engine.propagate(incremental=False)
            marginals = {v: engine.marginal(v) for v in request.vars}
        expected = exact_marginals(bn, request)
        for var in request.vars:
            np.testing.assert_allclose(
                marginals[var], expected[var], rtol=RTOL, atol=0
            )
        compiled.pool.close()

    def test_stage_timings_recorded(self):
        bn = make_networks(1)["m0"]
        compiled = compile_model("m0", bn, sessions=2)
        names = [name for name, _ in compiled.stages]
        for expected in (
            "moralize",
            "triangulate",
            "spanning-tree",
            "absorb-cpts",
            "reroot",
            "calibrate-session-0",
            "calibrate-session-1",
            "checkpoint",
        ):
            assert expected in names
        assert all(duration >= 0 for _, duration in compiled.stages)
        assert compiled.cost_bytes > compiled.stub_cost_bytes > 0
        assert not compiled.rehydrated
        compiled.pool.close()

    def test_expired_deadline_refuses_between_stages(self):
        bn = make_networks(1)["m0"]
        with pytest.raises(CompileDeadlineExceeded):
            compile_model("m0", bn, deadline_at=time.monotonic() - 1.0)

    def test_rehydrate_matches_cold_compile(self):
        bn = make_networks(1)["m0"]
        cold = compile_model("m0", bn, sessions=2)
        warm = rehydrate_model(
            "m0", cold.junction_tree, cold.baseline, sessions=2
        )
        assert warm.rehydrated
        request = QueryRequest(delta={1: 0}, vars=[4])
        with warm.pool.session() as engine:
            engine.set_evidence(request.evidence())
            engine.propagate(incremental=False)
            got = engine.marginal(4)
        expected = exact_marginals(bn, request)[4]
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0)
        cold.pool.close()
        warm.pool.close()

    def test_rehydrate_requires_baseline(self):
        bn = make_networks(1)["m0"]
        cold = compile_model("m0", bn, sessions=1)
        with pytest.raises(ValueError):
            rehydrate_model("m0", cold.junction_tree, None)
        cold.pool.close()


# --------------------------------------------------------------------- #
# Fair scheduler
# --------------------------------------------------------------------- #


class TestTenantScheduler:
    def test_lone_tenant_gets_whole_capacity(self):
        sched = TenantScheduler(capacity=8, burst_factor=1.0)
        assert sched.fair_share("a") == pytest.approx(8.0)
        assert sched.quota("a") == 8

    def test_share_splits_between_active_tenants(self):
        sched = TenantScheduler(capacity=8, burst_factor=1.0)
        admitted, _, _ = sched.admit("a")
        assert admitted
        assert sched.fair_share("b") == pytest.approx(4.0)
        sched.release("a")
        assert sched.fair_share("b") == pytest.approx(8.0)

    def test_weighted_shares(self):
        sched = TenantScheduler(capacity=9, burst_factor=1.0)
        sched.set_weight("big", 2.0)
        sched.admit("big")
        sched.admit("small")
        assert sched.fair_share("big") == pytest.approx(6.0)
        assert sched.fair_share("small") == pytest.approx(3.0)

    def test_quota_refuses_past_burst(self):
        sched = TenantScheduler(capacity=4, burst_factor=1.0)
        for _ in range(4):
            admitted, _, _ = sched.admit("hog")
            assert admitted
        admitted, _, _ = sched.admit("hog")
        assert not admitted
        assert sched.snapshot()["hog"]["refused"] == 1

    def test_serial_tenant_never_refused(self):
        # Quota never drops below 1: a one-at-a-time tenant always admits
        # regardless of how many hogs are active.
        sched = TenantScheduler(capacity=2, burst_factor=1.0)
        for _ in range(2):
            sched.admit("hog")
        for _ in range(50):
            admitted, _, _ = sched.admit("steady")
            assert admitted
            sched.release("steady")

    def test_priority_bands_preserved(self):
        # A saturated tenant's base-0 request still sorts ahead of any
        # base-1 request: penalties reorder only within a band.
        sched = TenantScheduler(capacity=4, burst_factor=2.0, priority_levels=4)
        worst_base0 = 0
        for _ in range(8):
            admitted, effective, _ = sched.admit("hog", base_priority=0)
            if admitted:
                worst_base0 = max(worst_base0, effective)
        _, base1, _ = sched.admit("light", base_priority=1)
        assert worst_base0 < base1

    def test_penalty_grows_with_inflight(self):
        sched = TenantScheduler(capacity=4, burst_factor=4.0, priority_levels=4)
        effectives = []
        for _ in range(12):
            admitted, effective, _ = sched.admit("hog")
            if admitted:
                effectives.append(effective)
        assert effectives[0] == 0
        assert max(effectives) > 0
        assert sorted(effectives) == effectives

    def test_release_floor_and_validation(self):
        sched = TenantScheduler(capacity=4)
        sched.release("ghost")  # never admitted: clamps at zero
        assert sched.snapshot()["ghost"]["inflight"] == 0
        with pytest.raises(ValueError):
            sched.set_weight("a", 0.0)
        with pytest.raises(ValueError):
            TenantScheduler(capacity=0)
        with pytest.raises(ValueError):
            TenantScheduler(burst_factor=0.5)


# --------------------------------------------------------------------- #
# Registry lifecycle
# --------------------------------------------------------------------- #


class TestModelRegistry:
    def test_register_validation(self):
        registry = ModelRegistry()
        bn = make_networks(1)["m0"]
        with pytest.raises(ValueError):
            registry.register("m0")  # neither network nor loader
        registry.register("m0", network=bn)
        with pytest.raises(ValueError):
            registry.register("m0", network=bn)  # duplicate
        with pytest.raises(ModelNotFound):
            registry.acquire("unseen")
        registry.close()

    def test_hit_miss_accounting(self):
        registry = make_registry(make_networks(1))
        registry.acquire("m0")
        registry.acquire("m0")
        registry.acquire("m0")
        stats = registry.stats()
        assert stats["misses"] == 1 and stats["compiles"] == 1
        assert stats["hits"] == 2
        registry.close()

    def test_lazy_loader_called_once(self):
        calls = []
        bn = make_networks(1)["m0"]

        def loader():
            calls.append(1)
            return bn

        registry = ModelRegistry()
        registry.register("m0", loader=loader)
        assert calls == []  # registration is lazy
        registry.acquire("m0")
        registry.acquire("m0")
        assert len(calls) == 1
        registry.close()

    def test_single_flight_compile(self):
        # 8 concurrent misses on one cold model must trigger exactly one
        # compile; the followers wait and share the resident entry.
        bn = make_networks(1, size=14)["m0"]
        compiles = []
        lock = threading.Lock()

        def loader():
            with lock:
                compiles.append(1)
            time.sleep(0.05)  # widen the race window
            return bn

        registry = ModelRegistry()
        registry.register("m0", loader=loader)
        entries, errors = [], []

        def worker():
            try:
                entries.append(registry.acquire("m0"))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(compiles) == 1
        assert len({id(e) for e in entries}) == 1
        assert registry.stats()["misses"] == 1
        registry.close()

    def test_budget_evicts_lru_to_stub_and_rehydrates(self):
        networks = make_networks(2)
        probe = make_registry(networks)
        costs = {m: probe.acquire(m).cost_bytes for m in networks}
        probe.close()

        registry = make_registry(
            networks, memory_budget=sum(costs.values()) - 1
        )
        registry.acquire("m0")
        registry.acquire("m1")  # over budget: m0 (LRU) demoted to stub
        assert registry.resident_models() == ["m1"]
        assert registry.stats()["models"]["m0"]["state"] == "stub"
        assert registry.evictions == 1

        entry = registry.acquire("m0")  # miss -> rehydrate from stub
        assert registry.rehydrations == 1
        assert entry.pool is not None
        stats = registry.stats()["models"]["m0"]
        assert stats["rehydrate_seconds"] is not None
        registry.close()

    def test_rehydrated_model_is_exact(self):
        networks = make_networks(2)
        probe = make_registry(networks)
        costs = {m: probe.acquire(m).cost_bytes for m in networks}
        probe.close()

        registry = make_registry(
            networks, memory_budget=sum(costs.values()) - 1
        )
        service = RegistryService(registry)
        request = QueryRequest(delta={0: 1}, vars=[3], model_id="m0")
        service.submit(request).result()
        service.submit(
            QueryRequest(delta={}, model_id="m1")
        ).result()  # evicts m0
        response = service.submit(request).result()  # rehydrated answer
        assert registry.rehydrations == 1
        assert_exact(networks["m0"], request, response)
        service.drain()

    def test_stub_demoted_to_cold_under_pressure(self):
        networks = make_networks(2)
        probe = make_registry(networks)
        entry = probe.acquire("m0")
        cost_m1 = probe.acquire("m1").cost_bytes
        stub0 = entry.stub_cost_bytes
        probe.close()

        # Budget fits exactly one resident model and *no* stub.
        registry = make_registry(
            networks, memory_budget=cost_m1 + stub0 - 1
        )
        registry.acquire("m0")
        registry.acquire("m1")
        stats = registry.stats()["models"]["m0"]
        assert stats["state"] == "cold"
        registry.acquire("m0")  # full recompile, not rehydration
        assert registry.rehydrations == 0
        assert registry.compiles == 3
        registry.close()

    def test_oversized_model_still_serves(self):
        networks = make_networks(1)
        registry = make_registry(networks, memory_budget=1)
        entry = registry.acquire("m0")
        assert entry.state == "resident"
        assert registry.stats()["budget_overruns"] >= 1
        registry.close()

    def test_explicit_evict(self):
        registry = make_registry(make_networks(1))
        assert not registry.evict("m0")  # not resident yet
        registry.acquire("m0")
        assert registry.evict("m0")
        assert registry.stats()["models"]["m0"]["state"] == "stub"
        with pytest.raises(ModelNotFound):
            registry.evict("missing")
        registry.close()

    @staticmethod
    def _full_charge(pool, jt, baseline):
        """Tree priors, every session's state, the free list at its bound
        and the retained baseline checkpoint, summed table by table."""
        return (
            sum(t.nbytes for t in jt.potentials.values())
            + sum(e._state.nbytes for e in pool.engines)
            + FREE_BUFFERS * table_layout(jt).size * 8
            + len(baseline)
        )

    def test_charge_covers_released_buffers_and_eviction_drops_them(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        service = RegistryService(registry)
        for i in range(6):  # distinct findings: every one propagates
            service.submit(QueryRequest(
                delta={0: i % 2, 1: i // 2 % 2, 2: i // 4}, vars=[5],
                model_id="m0",
            )).result()
        entry = registry._entries["m0"]
        pool, jt = entry.pool, entry.junction_tree
        layout = table_layout(jt)
        assert len(layout.free) >= 1  # replaced states parked buffers
        # The charge covers the list at its bound, whatever the list held
        # when the charge was taken, plus the retained baseline.
        assert entry.cost_bytes == pool.resident_bytes() + len(entry.baseline)
        assert entry.cost_bytes == self._full_charge(pool, jt, entry.baseline)
        assert len(layout.free) <= FREE_BUFFERS
        late = pool.engines[0]  # outlives the pool, like a late flight
        registry.evict("m0")
        # The stub keeps the tree but is charged no state buffer: its
        # free list is empty, and a state of the closed pool that dies
        # afterwards (one that would hand its buffer back) does not
        # refill it.
        assert entry.junction_tree is jt
        assert len(layout.free) == 0
        assert late._state._free is layout.free
        del late
        gc.collect()
        assert len(layout.free) == 0
        # A rehydrated pool over the same tree reuses buffers again.
        for i in range(3):
            service.submit(QueryRequest(
                delta={3: i % 2, 4: i // 2}, vars=[6], model_id="m0",
            )).result()
        assert registry.rehydrations == 1
        assert len(layout.free) >= 1
        # The rehydrated pool is charged by the same formula.
        assert entry.cost_bytes == self._full_charge(
            entry.pool, jt, entry.baseline
        )
        service.drain()

    def test_compile_deadline_estimate_refuses_upfront(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        registry.acquire("m0")  # learn the compile estimate
        registry.evict("m0")
        registry._entries["m0"].rehydrate_estimate = 10.0
        with pytest.raises(CompileDeadlineExceeded):
            registry.acquire("m0", deadline_at=time.monotonic() + 0.001)
        # the model stayed a stub and a patient caller still gets it
        assert registry.stats()["models"]["m0"]["state"] == "stub"
        assert registry.acquire("m0").state == "resident"
        assert registry.compile_deadline_refusals == 1
        registry.close()

    def test_closed_registry_refuses(self):
        registry = make_registry(make_networks(1))
        report = registry.close()
        assert registry.close() is report  # idempotent
        with pytest.raises(ServiceClosed):
            registry.acquire("m0")
        with pytest.raises(ServiceClosed):
            registry.register("late", network=make_networks(1)["m0"])

    def test_close_aggregates_served_work(self):
        networks = make_networks(2)
        registry = make_registry(networks)
        service = RegistryService(registry)
        for model_id in ("m0", "m1", "m0"):
            service.submit(
                QueryRequest(delta={0: 1}, vars=[2], model_id=model_id)
            ).result()
        report = service.drain()
        assert report.submitted == 3
        assert report.served_ok == 3
        assert report.model_hits == 1 and report.model_misses == 2
        assert report.compiles == 2
        assert set(report.per_model) == {"m0", "m1"}
        assert report.per_model["m0"]["ok"] == 2
        assert report.latency  # recomputed over union of serve spans
        assert report.peak_resident_bytes > 0


# --------------------------------------------------------------------- #
# Front door (RegistryService)
# --------------------------------------------------------------------- #


class TestRegistryService:
    def test_multi_model_routing_is_exact(self):
        networks = make_networks(3)
        registry = make_registry(networks)
        service = RegistryService(registry)
        requests = [
            QueryRequest(delta={0: 1}, vars=[3], model_id="m0", tenant="a"),
            QueryRequest(delta={1: 0}, vars=[4], model_id="m1", tenant="b"),
            QueryRequest(delta={}, vars=[2, 5], model_id="m2", tenant="a"),
        ]
        futures = [service.submit(r) for r in requests]
        for request, future in zip(requests, futures):
            response = future.result(timeout=30)
            assert response.model_id == request.model_id
            assert response.tenant == request.tenant
            assert_exact(networks[request.model_id], request, response)
        service.drain()

    def test_unknown_model_typed_refusal(self):
        registry = make_registry(make_networks(1))
        service = RegistryService(registry)
        response = service.submit(
            QueryRequest(delta={}, model_id="ghost")
        ).result()
        assert response.status == "failed"
        assert response.kind == "model-not-found"
        with pytest.raises(ModelNotFound):
            response.raise_for_status()
        service.drain()

    def test_single_model_implicit_routing(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        service = RegistryService(registry)
        request = QueryRequest(delta={0: 1}, vars=[2])
        response = service.submit(request).result()
        assert response.model_id == "m0"
        assert_exact(networks["m0"], request, response)
        service.drain()

    def test_default_model_param(self):
        networks = make_networks(2)
        registry = make_registry(networks)
        service = RegistryService(registry, default_model="m1")
        response = service.submit(QueryRequest(delta={})).result()
        assert response.model_id == "m1"
        service.drain()

    def test_quota_refusal_is_typed_and_isolated(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        registry.acquire("m0")  # pre-compile so submits don't block
        scheduler = TenantScheduler(capacity=2, burst_factor=1.0)
        service = RegistryService(registry, scheduler=scheduler)
        # Saturate the hog's quota without letting futures resolve: hold
        # the admission charge by submitting faster than service drains.
        refused = None
        for _ in range(64):
            response_future = service.submit(
                QueryRequest(delta={0: 1}, model_id="m0", tenant="hog")
            )
            if not response_future.done():
                continue
            response = response_future.result(0)
            if response.kind == "quota":
                refused = response
                break
        if refused is None:
            # force it deterministically: charge the scheduler directly
            scheduler.admit("hog")
            scheduler.admit("hog")
            refused = service.submit(
                QueryRequest(delta={}, model_id="m0", tenant="hog")
            ).result()
        assert refused.status == "shed"
        assert refused.kind == "quota"
        with pytest.raises(TenantQuotaExceeded):
            refused.raise_for_status()
        # a different (serial) tenant is still served
        ok = service.submit(
            QueryRequest(delta={0: 1}, vars=[2], model_id="m0", tenant="calm")
        ).result()
        assert ok.status == "ok"
        report = service.drain()
        assert report.shed_by_quota >= 1
        assert report.per_tenant["hog"].get("shed", 0) >= 1

    def test_compile_deadline_response_is_typed(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        service = RegistryService(registry)
        response = service.submit(
            QueryRequest(delta={}, model_id="m0", deadline=1e-9)
        ).result()
        assert response.status == "deadline"
        assert response.kind == "compile-deadline"
        with pytest.raises(CompileDeadlineExceeded):
            response.raise_for_status()
        report = service.drain()
        assert report.compile_deadline_refusals == 1
        assert report.deadline_missed == 1

    def test_scheduler_charge_released_after_response(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        scheduler = TenantScheduler(capacity=4)
        service = RegistryService(registry, scheduler=scheduler)
        for _ in range(12):
            service.submit(
                QueryRequest(delta={0: 1}, model_id="m0", tenant="t")
            ).result()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if scheduler.snapshot()["t"]["inflight"] == 0:
                break
            time.sleep(0.01)
        assert scheduler.snapshot()["t"]["inflight"] == 0
        service.drain()

    def test_drain_is_idempotent_and_closes_admission(self):
        registry = make_registry(make_networks(1))
        service = RegistryService(registry)
        report = service.drain()
        assert service.drain() is report
        with pytest.raises(ServiceClosed):
            service.submit(QueryRequest(delta={}))

    def test_context_manager(self):
        networks = make_networks(1)
        with RegistryService(make_registry(networks)) as service:
            response = service.query(delta={0: 1}, vars=[2], model_id="m0")
            assert response.status == "ok"
        with pytest.raises(ServiceClosed):
            service.submit(QueryRequest(delta={}))


# --------------------------------------------------------------------- #
# Satellite: pool close()/release() race (evict during a live flight)
# --------------------------------------------------------------------- #


class TestPoolCloseRace:
    def test_close_is_idempotent(self):
        networks = make_networks(1)
        pool = EngineSessionPool.from_network(networks["m0"], sessions=2)
        pool.close()
        pool.close()  # second close is a no-op
        assert pool.closed
        assert pool.engines == []
        with pytest.raises(ServiceClosed):
            with pool.session():
                pass

    def test_release_after_close_does_not_leak(self):
        # An in-flight session released *after* close() must be discarded,
        # not requeued into the freelist of a dead pool.
        networks = make_networks(1)
        pool = EngineSessionPool.from_network(networks["m0"], sessions=2)
        entered = threading.Event()
        proceed = threading.Event()
        errors = []

        def flight():
            try:
                with pool.session() as engine:
                    entered.set()
                    proceed.wait(timeout=10)
                    engine.query({0: 1}, vars=[2])
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        t = threading.Thread(target=flight)
        t.start()
        assert entered.wait(timeout=10)
        pool.close()  # races the live flight
        proceed.set()
        t.join(timeout=10)
        assert not t.is_alive()
        assert not errors  # the flight itself finished cleanly
        assert pool.engines == []
        assert pool._free.empty()  # nothing requeued after close

    def test_close_wakes_a_waiting_checkout(self):
        networks = make_networks(1)
        pool = EngineSessionPool.from_network(networks["m0"], sessions=1)
        outcome = []

        def checkout():
            try:
                with pool.session():
                    outcome.append("checked out")
            except ServiceClosed:
                outcome.append("closed")

        with pool.session():  # the only session: the waiter blocks
            waiter = threading.Thread(target=checkout, daemon=True)
            waiter.start()
            give_up = time.monotonic() + 10
            while not pool._waiting:
                assert time.monotonic() < give_up, "checkout never waited"
                time.sleep(0.001)
            pool.close()
            waiter.join(timeout=2.0)
            assert not waiter.is_alive(), "close left a checkout waiting"
        assert outcome == ["closed"]

    def test_eviction_during_flight_keeps_response_exact(self):
        # End-to-end: a registry eviction drains the per-model service, so
        # a request in flight at eviction time still gets its exact answer.
        networks = make_networks(2)
        probe = make_registry(networks)
        costs = {m: probe.acquire(m).cost_bytes for m in networks}
        probe.close()

        registry = make_registry(
            networks, memory_budget=sum(costs.values()) - 1
        )
        service = RegistryService(registry)
        request = QueryRequest(delta={0: 1}, vars=[3], model_id="m0")
        futures = [service.submit(request) for _ in range(4)]
        # Compiling m1 forces m0's eviction; its service drains first.
        evicted = service.submit(QueryRequest(delta={}, model_id="m1"))
        for future in futures:
            response = future.result(timeout=30)
            assert_exact(networks["m0"], request, response)
        assert evicted.result(timeout=30).status == "ok"
        report = service.drain()
        assert report.evictions >= 1
        assert report.failed == 0


# --------------------------------------------------------------------- #
# One queue for every model
# --------------------------------------------------------------------- #


def wait_until_dequeued(service, timeout=10.0):
    """Block until the workers took every queued flight off the queue."""
    give_up = time.monotonic() + timeout
    while service._queued:
        assert time.monotonic() < give_up, "worker never dequeued"
        time.sleep(0.005)


def budget_for_one(networks, **kw):
    """A memory budget that holds one of ``networks``' models resident."""
    probe = make_registry(networks, **kw)
    costs = [probe.acquire(m).cost_bytes for m in networks]
    probe.close()
    return sum(costs) - 1


class TestSharedQueue:
    def test_eviction_right_after_acquire_is_answered_exactly(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        scheduler = TenantScheduler(capacity=4)
        service = RegistryService(registry, scheduler=scheduler)
        acquire = registry.acquire
        evicted = []

        def acquire_then_evict(model_id, **kw):
            entry = acquire(model_id, **kw)
            if not evicted:  # the admission's acquire loses the race
                evicted.append(registry.evict(model_id))
            return entry

        registry.acquire = acquire_then_evict
        request = QueryRequest(
            delta={0: 1}, vars=[3], model_id="m0", tenant="t"
        )
        response = service.submit(request).result(timeout=30)
        assert evicted == [True]
        assert_exact(networks["m0"], request, response)
        assert registry.rehydrations == 1  # the flight re-acquired once
        report = service.drain()
        assert report.served_ok == 1 and report.failed == 0
        assert scheduler.snapshot()["t"]["inflight"] == 0

    def test_an_eviction_after_every_acquire_sheds_the_flight(self):
        networks = make_networks(1)
        registry = make_registry(networks)
        scheduler = TenantScheduler(capacity=4)
        service = RegistryService(registry, scheduler=scheduler)
        acquire = registry.acquire

        def acquire_then_evict(model_id, **kw):
            entry = acquire(model_id, **kw)
            registry.evict(model_id)
            return entry

        registry.acquire = acquire_then_evict
        response = service.submit(
            QueryRequest(delta={0: 1}, vars=[3], model_id="m0", tenant="t")
        ).result(timeout=30)
        assert response.status == "shed"
        assert response.kind == "model-evicted"
        assert "evicted again" in response.error
        report = service.drain()
        assert report.shed == 1 and report.failed == 0
        assert scheduler.snapshot()["t"]["inflight"] == 0

    def test_eviction_waits_on_no_flight(self):
        networks = make_networks(2)
        registry = make_registry(
            networks,
            sessions=1,
            memory_budget=budget_for_one(networks, sessions=1),
        )
        service = RegistryService(registry)
        request = QueryRequest(delta={0: 1}, vars=[3], model_id="m0")
        pool = registry.acquire("m0").pool
        done = {}

        def evict_m0():
            registry.acquire("m1")  # over budget: m0 is evicted
            done["stats"] = registry.stats()

        with pool.session():  # m0's only session: its flight must wait
            queued = service.submit(request)
            thread = threading.Thread(target=evict_m0, daemon=True)
            thread.start()
            thread.join(timeout=2.0)
            stalled = thread.is_alive()
        thread.join(timeout=30)
        assert not stalled, "evicting m0 waited on m0's queued flight"
        assert done["stats"]["evictions"] >= 1
        assert_exact(networks["m0"], request, queued.result(timeout=30))
        report = service.drain()
        assert report.failed == 0

    def test_a_model_evicted_cold_is_shed_not_compiled_on_a_worker(self):
        networks = make_networks(2)
        # A budget below any one model: acquiring m1 demotes m0 to a stub
        # and then drops the stub, so m0 goes cold.
        registry = make_registry(networks, sessions=1, memory_budget=1)
        service = RegistryService(registry)
        build = registry._build
        builders = []

        def recording_build(*args):
            builders.append(threading.current_thread().name)
            return build(*args)

        registry._build = recording_build
        request = QueryRequest(delta={0: 1}, vars=[3], model_id="m0")
        pool = registry.acquire("m0").pool
        with pool.session():  # m0's only session: its flight must wait
            queued = service.submit(request)
            wait_until_dequeued(service)
            registry.acquire("m1")
            assert registry.stats()["models"]["m0"]["state"] == "cold"
        response = queued.result(timeout=30)
        assert response.status == "shed"
        assert response.kind == "model-evicted"
        with pytest.raises(ModelEvicted):
            response.raise_for_status()
        worker = f"{service.row_prefix}-worker"
        assert builders and not any(
            name.startswith(worker) for name in builders
        )
        assert registry.compiles == 2  # m0 and m1, both at the door
        # Resubmitting compiles m0 again, on the client thread.
        assert_exact(networks["m0"], request, service.submit(request).result(30))
        assert registry.compiles == 3
        report = service.drain()
        assert report.served + report.refused == report.submitted

    def test_models_never_share_flights_or_stale_answers(self):
        networks = make_networks(2)  # same variable ids and cardinalities
        registry = make_registry(networks, sessions=1)
        service = RegistryService(registry, max_queue=2)
        gate = registry.acquire("m0").pool
        registry.acquire("m1")
        same = {
            m: QueryRequest(delta={}, vars=[3, 5], model_id=m)
            for m in networks
        }
        assert len({r.signature() for r in same.values()}) == 1
        with gate.session():  # the only worker waits on m0's session
            blocker = service.submit(
                QueryRequest(delta={2: 0}, vars=[3], model_id="m0")
            )
            wait_until_dequeued(service)
            futures = {m: service.submit(r) for m, r in same.items()}
        assert blocker.result(timeout=30).status == "ok"
        for model_id, future in futures.items():
            response = future.result(timeout=30)
            assert not response.coalesced
            assert_exact(networks[model_id], same[model_id], response)

        # m0's stale store now holds var 3 under {1: 1}; m1's does not.
        primed = QueryRequest(delta={1: 1}, vars=[3], model_id="m0")
        response = service.submit(primed).result(timeout=30)
        assert response.executor != "cache"
        assert_exact(networks["m0"], primed, response)
        fillers = []
        with gate.session():
            fillers.append(service.submit(
                QueryRequest(delta={2: 1}, vars=[3], model_id="m0")
            ))
            wait_until_dequeued(service)
            for delta in ({4: 1}, {5: 1}):  # fill both queue slots
                fillers.append(service.submit(
                    QueryRequest(delta=delta, vars=[3], model_id="m0")
                ))
            overloaded = {
                m: service.submit(QueryRequest(
                    delta={1: 1}, vars=[3], model_id=m, max_staleness=60.0,
                )).result(0)
                for m in networks
            }
        assert overloaded["m0"].status == "stale"
        np.testing.assert_allclose(
            overloaded["m0"].marginals[3], response.marginals[3],
            rtol=RTOL, atol=0,
        )
        assert overloaded["m1"].status == "shed"
        assert overloaded["m1"].marginals == {}
        for future in fillers:
            assert future.result(timeout=30).status == "ok"
        report = service.drain()
        assert report.coalesced == 0
        assert report.served + report.refused == report.submitted
        assert not service._flights  # every served flight was let go

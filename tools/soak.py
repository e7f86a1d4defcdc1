#!/usr/bin/env python
"""Deterministic chaos soak for the concurrent inference service.

Replays a seeded multi-client request schedule against a live
:class:`repro.serve.InferenceService` under injected faults and asserts
the service's one non-negotiable invariant: **every response is either
exact (marginals match a fresh serial-oracle propagation to 1e-9) or an
explicit refusal** (shed / stale / deadline / failed) — never a silently
corrupted posterior.

Six phases:

* **Phase A — thread storm.**  Many client threads hammer a small
  admission queue with mixed deadlines, priorities and staleness
  tolerances: exercises overload shedding, request coalescing, stale
  serving and end-to-end deadline enforcement.  No faults are injected,
  so zero ``failed`` responses are tolerated.
* **Phase B — process chaos.**  A breaker-guarded process-executor
  primary suffers a seeded :class:`~repro.sched.faults.FaultPlan`
  (worker kill, task delay, table corruption) plus an induced outage
  window that must open the circuit breaker; after the outage the
  half-open probe must recover it.  The process tier does not recover
  on its own: each fault ends its run and the recovery ladder answers
  from the next tier.  Every exact answer served *during* the chaos is
  still checked against the oracle.
* **Phase C — burst chaos.**  One worker and a burst-submitting client
  swarm, so flights queue behind it (the queue's high water must reach
  two), under a fault plan that adds a *torn write* on top of
  kill/delay/NaN: the checksum layer must refuse the torn result, the
  recovery ladder must roll it back and recompute the flight on the next
  tier, and every answer must match the oracle — zero ``failed``
  responses are tolerated.
* **Phase E — streaming chaos.**  Concurrent
  :class:`repro.serve.StreamingService` filtering streams whose
  executors suffer seeded kills (including during recovery rebuilds and
  window rolls) while burst producers overflow the tiny per-stream tick
  queues.  Every ``ok`` tick's posterior must equal the offline
  unrolled-network oracle over *that stream's* applied ticks — exact
  filtering under chaos and zero cross-stream contamination — refused
  ticks must never advance a stream's clock, and zero responses may be
  lost.
* **Phase D — multi-model chaos.**  Mixed-tenant bursts across four
  registered models routed through a
  :class:`repro.registry.RegistryService`, under a memory budget tight
  enough to force LRU evictions (and rehydrations) mid-storm.  Every
  ``ok`` answer must match *its own model's* oracle (no cross-model
  contamination), quota/compile-deadline refusals must be typed, and
  zero responses may be lost.
* **Phase F — process crash + journal recovery.**  A real child serving
  process (:mod:`repro.durability.harness`) is ``SIGKILL``'d
  mid-traffic, twice, against one durable root — with a deliberately
  torn journal tail injected between incarnations.  Every acked tick
  must survive into the recovered state, every acked posterior must
  match the offline unrolled oracle at 1e-9, no seq may be acked by two
  incarnations, every seq must be acked once or applied unacked by a
  later incarnation's recovery, and the torn tail must be truncated,
  never parsed.

Exit status 0 when every invariant holds, 1 otherwise.  The schedule is
fully determined by ``--seed``; timing-dependent *outcomes* (how many
requests shed vs served) vary run to run, the invariants do not.

Usage::

    PYTHONPATH=src python tools/soak.py --seed 0 --duration 10
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import InferenceEngine, random_network
from repro.jt.build import junction_tree_from_network
from repro.registry import ModelRegistry, RegistryService, TenantScheduler
from repro.sched import CollaborativeExecutor
from repro.sched.faults import FaultPlan
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.serial import SerialExecutor
from repro.serve import (
    CircuitBreaker,
    EngineSessionPool,
    InferenceService,
    QueryRequest,
    QueryResponse,
)

ATOL = 1e-9


class Oracle:
    """Fresh serial reference answers, memoized per evidence signature."""

    def __init__(self, bn):
        self.engine = InferenceEngine.from_network(bn)
        self._memo: Dict[Tuple, Dict[int, np.ndarray]] = {}

    def marginals(self, request: QueryRequest) -> Dict[int, np.ndarray]:
        evidence = request.evidence()
        sig = evidence.signature()
        if sig not in self._memo:
            self.engine.set_evidence(evidence)
            self.engine.propagate(SerialExecutor(), incremental=False)
            self._memo[sig] = self.engine.marginals_all()
        return self._memo[sig]


def verify_response(
    oracle: Oracle,
    request: QueryRequest,
    response: QueryResponse,
    failures: List[str],
) -> None:
    """Check one response against the exact-or-explicit contract."""
    if response.status == "ok":
        exact = oracle.marginals(request)
        for var, values in response.marginals.items():
            if not np.all(np.isfinite(values)):
                failures.append(f"non-finite marginal for var {var}")
            elif not np.allclose(values, exact[var], atol=ATOL):
                failures.append(
                    f"SILENT CORRUPTION: var {var} served "
                    f"{values.tolist()} expected {exact[var].tolist()} "
                    f"(tier {response.executor})"
                )
    elif response.status == "stale":
        for var, values in response.marginals.items():
            if not np.all(np.isfinite(values)) or abs(values.sum() - 1) > 1e-6:
                failures.append(
                    f"stale marginal for var {var} is not a distribution"
                )
    elif response.status == "failed":
        failures.append(f"unexpected failure response: {response.error}")
    # shed / deadline are always-legal explicit refusals.


def run_clients(
    service: InferenceService,
    schedules: List[List[QueryRequest]],
    pauses: List[List[float]],
) -> List[Tuple[QueryRequest, QueryResponse]]:
    """Fire each client's schedule from its own thread; gather responses."""
    results: List[Tuple[QueryRequest, QueryResponse]] = []
    results_lock = threading.Lock()

    def client(cid: int) -> None:
        # Burst-submit, then collect: each client keeps many requests in
        # flight at once, which is what actually pressures admission.
        futures = []
        for request, pause in zip(schedules[cid], pauses[cid]):
            futures.append((request, service.submit(request)))
            if pause:
                time.sleep(pause)
        for request, future in futures:
            response = future.result(120.0)
            with results_lock:
                results.append((request, response))

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"soak-client-{cid}")
        for cid in range(len(schedules))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def make_schedule(
    rng: random.Random,
    num_vars: int,
    requests: int,
    tight_deadlines: bool,
) -> Tuple[List[QueryRequest], List[float]]:
    """One client's deterministic request stream (+ inter-request pauses)."""
    schedule: List[QueryRequest] = []
    pauses: List[float] = []
    for _ in range(requests):
        delta = {
            rng.randrange(num_vars): rng.randrange(2)
            for _ in range(rng.randrange(4))
        }
        vars_ = sorted(rng.sample(range(num_vars), rng.randrange(1, 4)))
        roll = rng.random()
        deadline: Optional[float] = 30.0
        staleness: Optional[float] = None
        if tight_deadlines and roll < 0.15:
            deadline = 1e-5  # unmeetable: must yield an explicit refusal
        elif roll < 0.40:
            staleness = 60.0  # overload-tolerant
        schedule.append(
            QueryRequest(
                delta=delta,
                vars=vars_,
                deadline=deadline,
                priority=rng.randrange(3),
                max_staleness=staleness,
            )
        )
        pauses.append(rng.choice([0.0, 0.0, 0.001, 0.002]))
    return schedule, pauses


def live_resources():
    """What a phase must hand back: live threads, shared-memory segments."""
    threads = {t.name for t in threading.enumerate()}
    segments = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    return threads, segments


def leak_check(before, failures: List[str]) -> None:
    import multiprocessing

    threads_before, segments_before = before
    threads, segments = live_resources()
    lingering = sorted(threads - threads_before)
    if lingering:
        failures.append(f"leaked threads after drain: {lingering}")
    children = multiprocessing.active_children()
    if children:
        failures.append(f"leaked worker processes: {children}")
    # The process tier creates one arena per run and must unlink it however
    # the run ends (clean, killed worker, torn write).
    leaked = sorted(segments - segments_before)
    if leaked:
        failures.append(f"leaked shared-memory segments: {leaked}")


def phase_a(seed: int, duration: float, clients: int, failures: List[str]):
    print(f"== phase A: thread storm ({clients} clients) ==")
    rng = random.Random(seed)
    num_vars = 28
    bn = random_network(num_vars, max_parents=3, edge_probability=0.6,
                        seed=seed)
    oracle = Oracle(bn)
    pool = EngineSessionPool.from_junction_tree(
        junction_tree_from_network(bn), sessions=4
    )
    before = live_resources()
    service = InferenceService(
        pool,
        fallback=CollaborativeExecutor(num_threads=2),
        max_queue=8,
        workers=4,
    )
    per_client = max(8, int(duration * 4))
    schedules, pauses = [], []
    for cid in range(clients):
        sched, pause = make_schedule(
            random.Random(rng.randrange(1 << 30)),
            num_vars,
            per_client,
            tight_deadlines=True,
        )
        schedules.append(sched)
        pauses.append(pause)

    results = run_clients(service, schedules, pauses)
    report = service.drain()
    for request, response in results:
        verify_response(oracle, request, response, failures)
    leak_check(before, failures)
    if report.served == 0:
        failures.append("phase A served nothing — storm setup is broken")
    if len(results) != clients * per_client:
        failures.append(
            f"lost responses: {len(results)} of {clients * per_client}"
        )
    print(report.format())
    return report


class _OutageWindow:
    """Primary-tier wrapper failing a contiguous window of run() calls.

    Simulates a persistently-broken worker pool without the cost of
    actually crashing one per request; the breaker cannot tell the
    difference (both are exceptions out of the primary tier).
    """

    def __init__(self, inner, fail_calls: int):
        self.inner = inner
        self.fail_calls = fail_calls
        self.calls = 0

    def run(self, graph, state, tracer=None, deadline=None):
        self.calls += 1
        if self.calls <= self.fail_calls:
            raise RuntimeError(
                f"induced primary outage (call {self.calls})"
            )
        return self.inner.run(graph, state, deadline=deadline)


def phase_b(seed: int, duration: float, failures: List[str]):
    print("== phase B: process chaos + circuit breaker ==")
    rng = random.Random(seed + 1)
    num_vars = 20
    bn = random_network(num_vars, max_parents=3, edge_probability=0.6,
                        seed=seed + 1)
    oracle = Oracle(bn)
    pool = EngineSessionPool.from_junction_tree(
        junction_tree_from_network(bn), sessions=2
    )
    before = live_resources()
    # Seeded one-shot faults inside the real process tier: a worker kill
    # and a corrupted output table each end the primary's run, and the
    # ladder must roll back and answer from the next tier (exactly, not
    # approximately); a delayed task only makes its run slow.
    plan = FaultPlan(
        kill_before_dispatch={2: 0},
        delay_task={0: 0.4},
        corrupt_task={1: "nan"},
    )
    primary = _OutageWindow(
        ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=plan,
        ),
        fail_calls=2,
    )
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.4)
    service = InferenceService(
        pool,
        primary=primary,
        fallback=CollaborativeExecutor(num_threads=2),
        breaker=breaker,
        max_queue=32,
        workers=2,
    )
    requests = max(6, int(duration))
    responses: List[Tuple[QueryRequest, QueryResponse]] = []
    for i in range(requests):
        delta = {rng.randrange(num_vars): rng.randrange(2)}
        vars_ = sorted(rng.sample(range(num_vars), 2))
        request = QueryRequest(delta=delta, vars=vars_, deadline=60.0)
        responses.append((request, service.submit(request).result(120.0)))

    # Recovery stage: the one-shot faults are spent, so once the open
    # window elapses a half-open probe must succeed and re-close the
    # breaker.  Each probe uses fresh evidence — a cache hit would skip
    # the ladder and never touch the primary.
    recovery_deadline = time.monotonic() + max(15.0, duration)
    probe_id = 0
    while breaker.state != "closed" and time.monotonic() < recovery_deadline:
        if breaker.state == "open":
            time.sleep(breaker.reset_timeout + 0.05)
        probe_id += 1
        request = QueryRequest(
            delta={probe_id % num_vars: (probe_id // num_vars) % 2,
                   (probe_id + 7) % num_vars: probe_id % 2},
            vars=[0],
            deadline=60.0,
        )
        responses.append((request, service.submit(request).result(120.0)))
    report = service.drain()

    for request, response in responses:
        verify_response(oracle, request, response, failures)
    leak_check(before, failures)
    if not plan._taken_kills:
        failures.append("the worker kill never fired — fault setup is broken")
    opens = sum(1 for t in breaker.transitions if t.to_state == "open")
    if opens == 0:
        failures.append("induced outage never opened the breaker")
    if breaker.state != "closed":
        failures.append(
            f"breaker did not recover after the outage ({breaker.state})"
        )
    if not any(
        tier != "cache" for tier in report.tier_counts
    ):
        failures.append("phase B never propagated — chaos setup is broken")
    print(report.format())
    return report


def phase_c(seed: int, duration: float, failures: List[str]):
    print("== phase C: burst chaos + torn write ==")
    rng = random.Random(seed + 2)
    num_vars = 18
    bn = random_network(num_vars, max_parents=3, edge_probability=0.6,
                        seed=seed + 2)
    oracle = Oracle(bn)
    pool = EngineSessionPool.from_junction_tree(
        junction_tree_from_network(bn), sessions=1
    )
    before = live_resources()
    # Kill/delay/NaN as in phase B, plus a torn write: the worker stamps
    # a correct checksum and then scribbles finite garbage — only the
    # crc verification can catch it, and the ladder must roll the torn
    # bytes back and recompute the flight rather than serve or refuse it.
    plan = FaultPlan(
        kill_before_dispatch={3: 0},
        delay_task={0: 0.2},
        corrupt_task={1: "nan"},
        torn_write={2: 4},
    )
    primary = ProcessSharedMemoryExecutor(
        num_workers=2,
        inline_threshold=0,
        fault_plan=plan,
    )
    service = InferenceService(
        pool,
        primary=primary,
        fallback=CollaborativeExecutor(num_threads=2),
        breaker=CircuitBreaker(failure_threshold=3, reset_timeout=0.3),
        max_queue=64,
        workers=1,
    )
    per_client = max(6, int(duration * 2))
    clients = 4
    schedules, pauses = [], []
    for cid in range(clients):
        sched, _ = make_schedule(
            random.Random(rng.randrange(1 << 30)),
            num_vars,
            per_client,
            tight_deadlines=False,
        )
        schedules.append(sched)
        # Pure burst: no pauses, so flights pile up behind the single
        # worker.
        pauses.append([0.0] * len(sched))

    results = run_clients(service, schedules, pauses)
    report = service.drain()
    for request, response in results:
        verify_response(oracle, request, response, failures)
    leak_check(before, failures)
    if report.queue_high_water < 2:
        failures.append(
            "phase C never queued a flight behind another — burst setup "
            "is broken"
        )
    if not plan._taken_torn:
        failures.append("the torn write never fired — fault setup is broken")
    if len(results) != clients * per_client:
        failures.append(
            f"lost responses: {len(results)} of {clients * per_client}"
        )
    print(report.format())
    return report


def phase_d(seed: int, duration: float, failures: List[str]):
    print("== phase D: multi-model chaos (registry) ==")
    rng = random.Random(seed + 3)
    num_vars = 16
    model_ids = ["m0", "m1", "m2", "m3"]
    networks = {
        mid: random_network(
            num_vars, max_parents=3, edge_probability=0.6, seed=seed + 3 + i
        )
        for i, mid in enumerate(model_ids)
    }
    oracles = {mid: Oracle(bn) for mid, bn in networks.items()}

    # Probe each model's true resident cost, then set a budget that can
    # hold roughly 60% of the fleet: the storm *must* evict.
    probe = ModelRegistry(sessions=2, cache_size=64)
    for mid, bn in networks.items():
        probe.register(mid, network=bn)
    costs = {mid: probe.acquire(mid).cost_bytes for mid in model_ids}
    probe.close()
    budget = int(sum(costs.values()) * 0.6)

    before = live_resources()
    registry = ModelRegistry(memory_budget=budget, sessions=2, cache_size=64)
    for mid, bn in networks.items():
        registry.register(mid, network=bn)
    # One bound over all four models: 16 queued flights per model.
    service = RegistryService(
        registry,
        scheduler=TenantScheduler(capacity=24, burst_factor=2.0),
        max_queue=16 * len(model_ids),
    )

    tenants = ["acme", "globex", "initech"]
    clients = 6
    per_client = max(8, int(duration * 2))
    schedules, pauses = [], []
    for cid in range(clients):
        crng = random.Random(rng.randrange(1 << 30))
        sched = []
        for _ in range(per_client):
            delta = {
                crng.randrange(num_vars): crng.randrange(2)
                for _ in range(crng.randrange(3))
            }
            vars_ = sorted(crng.sample(range(num_vars), crng.randrange(1, 3)))
            sched.append(
                QueryRequest(
                    delta=delta,
                    vars=vars_,
                    deadline=60.0,
                    priority=crng.randrange(3),
                    model_id=crng.choice(model_ids),
                    tenant=tenants[cid % len(tenants)],
                )
            )
        schedules.append(sched)
        pauses.append([crng.choice([0.0, 0.0, 0.001]) for _ in sched])

    # One queue and one set of workers serve every model: however many
    # models are resident, the live serve workers are the service's own.
    worker_prefix = f"{service.row_prefix}-worker"
    worker_counts = set()
    storm_over = threading.Event()

    def count_workers():
        while not storm_over.wait(0.005):
            worker_counts.add(sum(
                t.name.startswith(worker_prefix)
                for t in threading.enumerate()
            ))

    counter = threading.Thread(target=count_workers, name="soak-worker-count")
    counter.start()
    results = run_clients(service, schedules, pauses)
    storm_over.set()
    counter.join()
    report = service.drain()

    workers = len(service._workers)
    print(
        f"serve workers seen during the storm: {sorted(worker_counts)} "
        f"(the service runs {workers})"
    )
    if worker_counts != {workers}:
        failures.append(
            f"serve-worker threads during the storm numbered "
            f"{sorted(worker_counts)}, not the service's {workers}"
        )

    for request, response in results:
        mid = response.model_id or request.model_id
        if response.status in ("ok", "stale") and mid != request.model_id:
            failures.append(
                f"CROSS-MODEL ROUTING: asked {request.model_id}, "
                f"answered by {mid}"
            )
            continue
        verify_response(
            oracles[request.model_id], request, response, failures
        )
    leak_check(before, failures)
    expected = clients * per_client
    if len(results) != expected:
        failures.append(
            f"lost responses: {len(results)} of {expected}"
        )
    if report.evictions < 1:
        failures.append(
            f"budget {budget} never forced an eviction — "
            "pressure setup is broken"
        )
    if report.served == 0:
        failures.append("phase D served nothing — registry setup is broken")
    print(report.format())
    return report


class _StreamChaosExecutor:
    """Serial executor that fails seeded run() calls (streaming "kills").

    The first call (the session's build propagation) always succeeds so
    every stream subscribes; after that, each propagation fails with the
    seeded probability — including recovery rebuilds, so the session's
    dirty-resync retry path gets exercised too.
    """

    def __init__(self, seed: int, rate: float = 0.25):
        self.inner = SerialExecutor()
        self.rng = random.Random(seed)
        self.rate = rate
        self.calls = 0
        self.kills = 0

    def run(self, graph, state, **kw):
        self.calls += 1
        if self.calls > 1 and self.rng.random() < self.rate:
            self.kills += 1
            raise RuntimeError("soak-injected executor kill")
        return self.inner.run(graph, state, **kw)


def phase_e(seed: int, duration: float, failures: List[str]):
    print("== phase E: streaming chaos (kills + overflow) ==")
    from repro.bn.dbn import make_hmm
    from repro.serve import StreamingService

    rng = random.Random(seed + 4)
    np_rng = np.random.default_rng(seed + 4)

    def stochastic(shape, axis=-1):
        table = np_rng.random(shape) + 0.1
        return table / table.sum(axis=axis, keepdims=True)

    states, observations = 3, 4
    dbn = make_hmm(
        states,
        observations,
        initial=stochastic(states, axis=0),
        transition=stochastic((states, states)),
        emission=stochastic((states, observations)),
    )

    before = live_resources()
    injected: List[_StreamChaosExecutor] = []

    def chaos_executor():
        executor = _StreamChaosExecutor(rng.randrange(1 << 30))
        injected.append(executor)
        return executor

    # Tiny pending queues + burst producers: overflow refusals are part
    # of the plan, not an accident.
    service = StreamingService(
        dbn,
        window=4,
        retire=2,
        workers=3,
        max_pending=2,
        executor_factory=chaos_executor,
    )
    streams = 4
    ticks = max(12, int(duration * 3))
    handles = [
        service.subscribe(name=f"chaos-{i}", query_vars=[0])
        for i in range(streams)
    ]
    schedules = {
        handle.name: [
            {}
            if rng.random() < 0.1
            else {1: rng.randrange(observations)}
            for _ in range(ticks)
        ]
        for handle in handles
    }

    responses: Dict[str, List] = {handle.name: [] for handle in handles}
    lock = threading.Lock()

    def producer(handle) -> None:
        futures = []
        for i, delta in enumerate(schedules[handle.name]):
            futures.append(service.push_tick(handle, dict(delta)))
            if i % 3 == 2:
                time.sleep(0.002)  # let the queue breathe between bursts
        collected = [f.result(120.0) for f in futures]
        with lock:
            responses[handle.name] = collected

    producers = [
        threading.Thread(target=producer, args=(h,), name=f"soak-{h.name}")
        for h in handles
    ]
    for t in producers:
        t.start()
    for t in producers:
        t.join()
    report = service.drain()

    # Per-stream oracle replay: every ok tick's posterior must equal the
    # offline unrolled network over THAT stream's applied ticks — exact
    # filtering under chaos and zero cross-stream contamination (the
    # schedules differ, so a leaked posterior cannot match).
    for handle in handles:
        got = responses[handle.name]
        if len(got) != ticks:
            failures.append(
                f"lost responses on {handle.name}: {len(got)} of {ticks}"
            )
            continue
        applied = [
            schedules[handle.name][i]
            for i, response in enumerate(got)
            if response.ok
        ]
        ok_seen = 0
        for i, response in enumerate(got):
            if not response.ok:
                if response.status not in ("shed", "deadline", "failed"):
                    failures.append(
                        f"{handle.name}: unexpected status "
                        f"{response.status!r}"
                    )
                continue
            if response.t != ok_seen:
                failures.append(
                    f"{handle.name}: ok tick #{ok_seen} reported "
                    f"t={response.t} — refused ticks advanced time"
                )
            ok_seen += 1
            engine = InferenceEngine.from_network(dbn.unroll(ok_seen))
            for ti, delta in enumerate(applied[:ok_seen]):
                for v, state in delta.items():
                    engine.observe(dbn.variable_at(v, ti), int(state))
            engine.propagate(SerialExecutor(), incremental=False)
            exact = engine.marginal(dbn.variable_at(0, ok_seen - 1))
            if not np.allclose(response.marginals[0], exact, atol=ATOL):
                failures.append(
                    f"CROSS-STREAM CONTAMINATION or drift: "
                    f"{handle.name} tick t={response.t} served "
                    f"{response.marginals[0].tolist()} expected "
                    f"{exact.tolist()}"
                )
    leak_check(before, failures)
    kills = sum(e.kills for e in injected)
    if kills == 0:
        failures.append("phase E injected no executor kills — chaos "
                        "setup is broken")
    if report.ticks_failed == 0:
        failures.append("injected kills produced no failed ticks")
    if report.ticks_overflowed == 0:
        failures.append(
            "burst producers never overflowed a tick queue — "
            "backpressure not engaging"
        )
    if report.ticks_ok == 0:
        failures.append("phase E served nothing — chaos drowned the soak")
    print(f"(injected {kills} executor kills across "
          f"{len(injected)} streams)")
    print(report.format())
    return report


def phase_f(seed: int, duration: float, failures: List[str]):
    """SIGKILL a real child serving process mid-traffic; verify recovery.

    Two kill cycles plus a clean finish against one durable root:

    * every acked tick's posterior must equal the offline unrolled
      oracle at 1e-9 (exactness survives the crash),
    * every acked seq must be applied in the next recovered state (no
      acked tick lost — the write-ahead journal held),
    * no seq may be acked by two incarnations (no double-ack),
    * every seq of the schedule is acked, or — journaled before a kill
      but never acked — applied by a later incarnation's recovery
      (``recovered_seqs``), which by design never re-acks it,
    * a deliberately torn journal tail must be truncated, not trusted.
    """
    print("== phase F: process crash + journal recovery (SIGKILL) ==")
    import tempfile

    from repro.durability import harness

    ticks = max(12, int(duration * 2))
    root = tempfile.mkdtemp(prefix="soak-phase-f-")
    dbn = harness.build_demo_dbn(seed)
    schedule = harness.build_schedule(seed, ticks)

    all_acked: Dict[int, List[float]] = {}
    recovered_seqs: set = set()

    def check_recovery(recovered, cycle: str) -> None:
        """Run before ``record_acks`` of the cycle: ``all_acked`` holds
        the earlier incarnations' acks, all of which must be applied."""
        if recovered is None:
            failures.append(f"phase F {cycle}: child reported no recovery")
            return
        applied = set(recovered["applied_seqs"]) | set(
            range(
                int(recovered["final_t"]) - len(recovered["applied_seqs"])
            )
        )
        lost = set(all_acked) - applied
        if lost:
            failures.append(
                f"phase F {cycle}: acked seqs {sorted(lost)} missing from "
                f"the recovered state — acked ticks LOST"
            )
        recovered_seqs.update(int(s) for s in recovered["recovered_seqs"])

    def record_acks(acks, cycle: str) -> None:
        for ack in acks:
            seq = int(ack["seq"])
            if seq in all_acked:
                failures.append(
                    f"phase F {cycle}: seq {seq} acked twice across "
                    f"incarnations — double-ack"
                )
            all_acked[seq] = ack["m"]

    # Cycle 1: kill after ~1/3 of the schedule.
    proc = harness.spawn_child(root, seed, ticks)
    acks, recovered, done = harness.read_acks(proc, count=max(3, ticks // 3))
    acks += harness.kill_child(proc)
    if done or not acks:
        failures.append(
            f"phase F cycle 1: expected a mid-traffic kill, got "
            f"done={done} acks={len(acks)}"
        )
    failures.extend(harness.verify_acks(dbn, schedule, acks))
    record_acks(acks, "cycle 1")

    # Deliberately tear the journal tail: append half a record's worth
    # of garbage after the kill.  Recovery must cut it, not parse it.
    import glob

    segments = sorted(
        glob.glob(os.path.join(root, "streams", harness.STREAM_NAME, "*.wal"))
    )
    if segments:
        with open(segments[-1], "ab") as handle:
            handle.write(b"\xc4W\xff\xff")  # magic + torn length field
    else:
        failures.append("phase F: no journal segments on disk after kill")

    # Cycle 2: recover, kill again after a few more acks.
    proc = harness.spawn_child(root, seed, ticks)
    acks, recovered, done = harness.read_acks(proc, count=3)
    acks += harness.kill_child(proc)
    check_recovery(recovered, "cycle 2")
    if recovered is not None and recovered["torn_bytes"] <= 0:
        failures.append(
            "phase F cycle 2: injected torn tail was not truncated "
            f"(torn_bytes={recovered['torn_bytes']})"
        )
    failures.extend(harness.verify_acks(dbn, schedule, acks))
    record_acks(acks, "cycle 2")

    # Cycle 3: recover, run to completion.
    proc = harness.spawn_child(root, seed, ticks)
    acks, recovered, done = harness.read_acks(proc, timeout=120.0)
    proc.wait()
    if not done:
        failures.append("phase F cycle 3: child never finished cleanly")
    check_recovery(recovered, "cycle 3")
    failures.extend(harness.verify_acks(dbn, schedule, acks))
    record_acks(acks, "cycle 3")
    # The protocol: each seq acked once (double acks failed above), or
    # applied without an ack by a later incarnation's recovery.
    unacked = recovered_seqs - set(all_acked)
    missing = set(range(ticks)) - set(all_acked) - recovered_seqs
    if done and missing:
        failures.append(
            f"phase F: seqs {sorted(missing)} neither acked nor recovered "
            f"across all incarnations — schedule did not complete"
        )
    shutil.rmtree(root, ignore_errors=True)
    print(
        f"(killed 2 children; {len(all_acked)} acked + {len(unacked)} "
        f"recovered unacked of {ticks} ticks, every ack exact at 1e-9)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="approximate time budget in seconds; scales request counts",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--skip-process",
        action="store_true",
        help="skip phases B and C (no process pools; fast smoke for CI)",
    )
    parser.add_argument(
        "--phases",
        default=None,
        metavar="LETTERS",
        help="run only these phases, e.g. AE or E (default: all, "
        "minus B/C under --skip-process)",
    )
    args = parser.parse_args(argv)

    if args.phases is not None:
        selected = set(args.phases.upper())
        unknown = selected - set("ABCDEF")
        if unknown:
            parser.error(f"unknown phases: {''.join(sorted(unknown))}")
    else:
        selected = set("ABCDEF")
        if args.skip_process:
            selected -= set("BC")

    failures: List[str] = []
    started = time.monotonic()
    if "A" in selected:
        phase_a(args.seed, args.duration, args.clients, failures)
    if "B" in selected:
        phase_b(args.seed, args.duration, failures)
    if "C" in selected:
        phase_c(args.seed, args.duration, failures)
    # Phases D and E use no process pools, so they run even in smoke mode.
    if "D" in selected:
        phase_d(args.seed, args.duration, failures)
    if "E" in selected:
        phase_e(args.seed, args.duration, failures)
    if "F" in selected:
        phase_f(args.seed, args.duration, failures)
    elapsed = time.monotonic() - started

    print(f"== soak finished in {elapsed:.1f} s ==")
    if failures:
        print(f"FAILED: {len(failures)} invariant violation(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("OK: every response was exact or an explicit refusal; "
          "no leaked threads, processes or shared-memory segments")
    return 0


if __name__ == "__main__":
    sys.exit(main())

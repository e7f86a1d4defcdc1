"""The serving lifecycle contract, proven once on ``ServingCore``.

``InferenceService``, ``StreamingService`` and ``RegistryService`` all
run :class:`repro.serve.core.ServingCore`'s admission → workers →
resolve-exactly-once → drain → report loop, so the north-star contract
at this layer is stated against the core itself:

* a Hypothesis state machine drives a core whose ``serve`` is scripted
  (finish, raise, block) through submits, expired submits, queue floods,
  forced resolutions racing the worker, and drain, and checks that every
  admitted ticket resolves exactly once, that the report's status
  counters are exactly the responses clients saw, that nothing resolves
  after the report is built and that a drained core refuses;
* a barrier race shows ``finish`` counts, traces and publishes only the
  response that won the future;
* ``ServiceReport.merge`` is checked field by field, and end to end
  through ``RegistryService`` (a counter the hand-kept field list of the
  previous registry silently dropped).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bn.generation import random_network
from repro.registry import ModelRegistry, RegistryService
from repro.serve import QueryRequest, QueryResponse, ServiceClosed, ServiceReport
from repro.serve.core import ServingCore, Ticket

WAIT = 10.0


class ScriptedCore(ServingCore):
    """One ticket per unit; the ticket's payload scripts ``serve``."""

    def __init__(self, workers: int, max_queue: int = 4):
        self.max_queue = max_queue
        self.queued = 0  # guarded by the admission lock
        self.gates = {}  # blocking ticket -> the event its worker waits on
        self.resolutions = Counter()
        self.resolved_after_report = []
        self._seen_lock = threading.Lock()
        super().__init__(workers)

    def respond(self, ticket, status, **kw):
        return QueryResponse(status=status, **kw)

    def place(self, ticket):
        if self.queued >= self.max_queue:
            return self.respond(ticket, "shed", error="queue full")
        self.queued += 1
        self.enqueue(ticket)
        return None

    def serve(self, ticket):
        with self._admission:
            self.queued -= 1
        try:
            if ticket.expired(time.monotonic()):
                self.refuse([ticket], "deadline", "expired while queued")
                return
            if ticket.payload == "block":
                assert self.gates[id(ticket)].wait(WAIT), "gate never opened"
            if ticket.payload == "raise":
                raise RuntimeError("scripted failure")
            self.finish(ticket, self.respond(ticket, "ok"))
        except RuntimeError as exc:
            self.refuse([ticket], "failed", str(exc))

    def _resolved(self, ticket, response):
        with self._seen_lock:
            self.resolutions[id(ticket)] += 1
            if self._report is not None:
                self.resolved_after_report.append(ticket)

    def push(self, script, deadline=None):
        ticket = self.ticket(script, deadline, tenant="t")
        if script == "block":
            self.gates[id(ticket)] = threading.Event()
        self.admit(ticket)
        return ticket

    def open_gates(self):
        for gate in self.gates.values():
            gate.set()


class ServingLifecycle(RuleBasedStateMachine):
    WORKERS = 2

    def __init__(self):
        super().__init__()
        self.core = ScriptedCore(self.WORKERS)
        self.tickets = []
        self.report = None

    # -- while open ---------------------------------------------------- #

    @precondition(lambda self: self.report is None)
    @rule(script=st.sampled_from(["ok", "ok", "raise", "block"]))
    def submit(self, script):
        self.tickets.append(self.core.push(script))

    @precondition(lambda self: self.report is None)
    @rule()
    def submit_already_expired(self):
        self.tickets.append(self.core.push("ok", deadline=0.0))

    @precondition(lambda self: self.report is None)
    @rule()
    def fill_the_queue(self):
        burst = [
            self.core.push("block")
            for _ in range(self.core.max_queue + self.WORKERS + 1)
        ]
        self.tickets.extend(burst)
        # More blockers than queue slots plus workers: one must be shed,
        # and shed on the spot.
        assert any(
            t.future.done() and t.future.result(0).status == "shed"
            for t in burst
        )

    @precondition(lambda self: self.report is None and self.core.gates)
    @rule(data=st.data())
    def let_a_blocked_worker_finish(self, data):
        key = data.draw(st.sampled_from(sorted(self.core.gates)))
        self.core.gates[key].set()

    @precondition(lambda self: self.report is None and self.tickets)
    @rule(data=st.data())
    def force_resolve_from_outside_the_worker(self, data):
        ticket = data.draw(st.sampled_from(self.tickets))
        self.core.refuse([ticket], "deadline", "forced")
        assert ticket.future.done()

    # -- drain and after ------------------------------------------------ #

    # (Early drains come from teardown; a drain rule that could fire on
    # step one would spend most examples on an empty service.)
    @precondition(lambda self: self.report or len(self.tickets) >= 4)
    @rule()
    def drain(self):
        self.core.open_gates()
        report = self.core.drain(WAIT)
        assert self.report is None or report is self.report
        self.report = report

    @precondition(lambda self: self.report is not None)
    @rule()
    def submit_after_drain_is_refused(self):
        with pytest.raises(ServiceClosed):
            self.core.push("ok")

    @invariant()
    def contract_holds_once_drained(self):
        if self.report is None:
            return
        core, report = self.core, self.report
        assert not any(t.is_alive() for t in core._workers)
        # Every admitted ticket resolved, and exactly once.
        assert all(t.future.done() for t in self.tickets)
        assert all(core.resolutions[id(t)] == 1 for t in self.tickets)
        assert not core.resolved_after_report
        # The counters are the responses the clients saw.
        seen = Counter(t.future.result(0).status for t in self.tickets)
        assert report.submitted == len(self.tickets)
        assert report.served_ok == seen["ok"]
        assert report.shed == seen["shed"]
        assert report.deadline_missed == seen["deadline"]
        assert report.failed == seen["failed"]
        assert report.served + report.refused == report.submitted
        assert report.per_tenant == ({"t": dict(seen)} if seen else {})
        assert len(report.served_latencies) == seen["ok"]
        spans = [s for s in report.trace.spans if s.name.startswith("request:")]
        assert len(spans) == report.submitted

    def teardown(self):
        self.drain()
        self.contract_holds_once_drained()


ServingLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestServingLifecycle = ServingLifecycle.TestCase


def test_finish_counts_only_the_response_that_won():
    """Two threads finish one ticket at once; one status, one span."""
    rounds = 400
    core = ScriptedCore(workers=0)
    tickets = [Ticket("x", tenant="t", model_id="m") for _ in range(rounds)]
    barrier = threading.Barrier(2)
    wins = {"ok": [], "deadline": []}

    def contender(status, parity):
        for i, ticket in enumerate(tickets):
            barrier.wait(WAIT)
            if i % 2 == parity:
                time.sleep(0)  # take turns giving the other side a head start
            wins[status].append(
                core.finish(ticket, core.respond(ticket, status))
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=contender, args=(status, parity))
            for parity, status in enumerate(wins)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    report = core.drain(WAIT)
    assert all(a != b for a, b in zip(wins["ok"], wins["deadline"]))
    assert any(wins["ok"]) and any(wins["deadline"])  # it was a race
    seen = Counter(t.future.result(0).status for t in tickets)
    assert report.served_ok == seen["ok"] == sum(wins["ok"])
    assert report.deadline_missed == seen["deadline"] == sum(wins["deadline"])
    assert report.served + report.refused == rounds
    assert report.per_tenant == {"t": dict(seen)}
    assert report.per_model == {"m": dict(seen)}
    assert all(core.resolutions[id(t)] == 1 for t in tickets)
    assert len(report.served_latencies) == seen["ok"]
    spans = [s for s in report.trace.spans if s.name.startswith("request:")]
    assert len(spans) == rounds


def test_finish_retains_only_the_most_recent_latencies_and_spans(monkeypatch):
    """Per-response records are bounded; the counters are not."""
    keep = 8
    monkeypatch.setattr("repro.serve.core.RETAINED", keep)
    rounds = 2 * keep + 10
    core = ScriptedCore(workers=1)
    tickets = []
    for _ in range(rounds):
        tickets.append(core.push("finish"))
        assert tickets[-1].future.result(WAIT).ok  # one at a time: in order
    report = core.drain(WAIT)

    assert report.submitted == report.served_ok == rounds
    assert report.per_tenant == {"t": {"ok": rounds}}
    latencies = [t.future.result(0).latency for t in tickets]
    kept = report.served_latencies
    assert keep <= len(kept) < 2 * keep
    assert kept == latencies[-len(kept):]
    spans = [s for s in report.trace.spans if s.name.startswith("request:")]
    assert keep <= len(spans) < 2 * keep
    origin = core._tracer.origin_ns
    assert [s.start_ns + origin for s in spans] == [
        t.admitted_ns for t in tickets[-len(spans):]
    ]


# --------------------------------------------------------------------- #
# ServiceReport.merge / to_dict
# --------------------------------------------------------------------- #

TO_DICT_KEYS = {
    "breaker_short_circuits",
    "breaker_transitions", "coalesced", "compile_deadline_refusals",
    "compiles", "deadline_missed", "dropped_unacked", "evictions", "failed",
    "latency", "memory_budget", "model_hits", "model_misses",
    "peak_resident_bytes", "per_model", "per_stream", "per_tenant",
    "quarantined", "queue_high_water", "recoveries", "rehydrations",
    "replayed_ticks", "served_ok", "served_stale", "shed", "shed_by_quota",
    "shed_rate", "single_flights", "stale_signature_miss", "streams",
    "submitted", "ticks_deadline", "ticks_failed", "ticks_ok",
    "ticks_overflowed", "tier_counts", "wall_seconds", "window_rolls",
}

INT_FIELDS = [f.name for f in fields(ServiceReport) if f.type == "int"]
MAX_FIELDS = {"queue_high_water", "peak_resident_bytes"}


def test_merge_covers_every_int_field():
    assert len(INT_FIELDS) >= 29 and "stale_signature_miss" in INT_FIELDS
    ours = ServiceReport(**{n: i + 1 for i, n in enumerate(INT_FIELDS)})
    theirs = ServiceReport(
        **{n: 1000 * (i + 1) for i, n in enumerate(INT_FIELDS)}
    )
    assert ours.merge(theirs) is ours
    for i, name in enumerate(INT_FIELDS):
        mine, other = i + 1, 1000 * (i + 1)
        expected = max(mine, other) if name in MAX_FIELDS else mine + other
        assert getattr(ours, name) == expected, name


def test_merge_rules_for_the_other_fields():
    ours = ServiceReport(
        per_tenant={"a": {"ok": 1}},
        tier_counts={"cache": 2},
        breaker_transitions=["closed->open"],
        served_latencies=[0.3],
        wall_seconds=2.0,
        trace="ours",
    )
    theirs = ServiceReport(
        per_tenant={"a": {"ok": 2, "shed": 1}, "b": {"ok": 4}},
        tier_counts={"cache": 1, "SerialExecutor": 5},
        breaker_transitions=["open->half-open"],
        served_latencies=[0.1, 0.2],
        wall_seconds=1.0,
        memory_budget=4096,
        trace="theirs",
    )
    ours.merge(theirs)
    assert ours.per_tenant == {"a": {"ok": 3, "shed": 1}, "b": {"ok": 4}}
    assert theirs.per_tenant["a"] == {"ok": 2, "shed": 1}  # not aliased
    assert ours.tier_counts == {"cache": 3, "SerialExecutor": 5}
    assert ours.breaker_transitions == ["closed->open", "open->half-open"]
    assert ours.served_latencies == [0.3, 0.1, 0.2]
    assert ours.latency == {"p50": 0.2, "p90": 0.3, "p99": 0.3}
    assert ours.wall_seconds == 2.0
    assert ours.memory_budget == 4096  # unset on our side: theirs
    assert ours.trace == "ours"


def test_to_dict_keys_are_the_published_ones():
    payload = ServiceReport(breaker_transitions=["closed->open"]).to_dict()
    assert set(payload) == TO_DICT_KEYS
    assert payload["breaker_transitions"] == ["closed->open"]
    assert "trace" not in payload and "served_latencies" not in payload


def test_registry_report_keeps_stale_signature_misses():
    """Full queue + ``max_staleness`` + another conditioning, through the
    front door: the stale-signature miss must reach the drain report."""
    network = random_network(
        10, cardinality=2, max_parents=2, edge_probability=0.7, seed=40
    )
    registry = ModelRegistry(sessions=1)
    registry.register("m", network=network)
    front = RegistryService(registry, max_queue=1)
    # Prime the stale store for var 3 under the conditioning {0: 0}.
    assert front.query(delta={0: 0}, vars=[3], deadline=WAIT).status == "ok"
    entry = registry.acquire("m")
    fillers = []
    with entry.pool.session():  # the only session: the worker must wait
        # Distinct conditionings (no coalescing), so two pending fillers
        # mean one is held by the blocked worker and the other fills the
        # queue's single slot; the rest were shed.
        give_up = time.monotonic() + WAIT
        while sum(not f.done() for f in fillers) < 2:
            assert time.monotonic() < give_up
            n = len(fillers)
            delta = {var: n >> i & 1 for i, var in enumerate((1, 2, 4, 5, 7))}
            fillers.append(
                front.submit(QueryRequest(delta=delta, vars=[3], deadline=WAIT))
            )
            time.sleep(0.005)
        response = front.submit(
            QueryRequest(delta={6: 1}, vars=[3], max_staleness=60.0)
        ).result(0)
    assert response.status == "shed"  # not var 3 under {0: 0}'s posterior
    report = front.drain()
    assert all(f.done() for f in fillers)
    assert report.stale_signature_miss == 1
    assert "1 stale-signature misses" in report.format()
    assert report.served + report.refused == report.submitted

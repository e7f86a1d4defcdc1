"""The concurrent inference service: sessions, admission, the ladder, drain.

Three classes:

* :class:`EngineSessionPool` — N calibrated
  :class:`~repro.inference.engine.InferenceEngine` sessions over *one*
  junction tree (rerooted once, shared read-only), *one* thread-safe
  :class:`~repro.inference.cache.QueryCache` and one stale store,
  checked out LIFO so the warmest session (hottest incremental state)
  is reused first.
* :class:`FlightService` — the request service: a bounded priority
  queue of single-flight groups, each carrying its session pool, served
  down one :class:`~repro.sched.resilient.ResilientExecutor` ladder and
  always answered — exactly, stalely, or with an explicit refusal.
* :class:`InferenceService` — a flight service over one session pool.

The correctness contract the chaos soak (``tools/soak.py``) enforces:
any response with ``status == "ok"`` matches a fresh serial propagation
to 1e-9, no matter which tier served it or what faults were injected.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.inference.cache import QueryCache
from repro.inference.engine import InferenceEngine
from repro.sched.faults import TaskExecutionError
from repro.sched.resilient import ResilientExecutor
from repro.serve.breaker import CircuitBreaker
from repro.serve.core import Future, ServingCore, Ticket
from repro.serve.report import ServiceReport
from repro.serve.request import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_STALE,
    QueryRequest,
    QueryResponse,
    ServiceClosed,
)
from repro.tasks.layout import FREE_BUFFERS, table_layout


class EngineSessionPool:
    """A fixed pool of calibrated engine sessions over one junction tree.

    Build once (tree construction and Algorithm-1 rerooting run a single
    time), then hand sessions out to service workers: every session is an
    independent :class:`~repro.inference.engine.InferenceEngine` with its
    own propagation state, but all share the rerooted tree (read-only)
    and one thread-safe :class:`~repro.inference.cache.QueryCache`, so a
    marginal computed by any session answers repeats on every session.

    A released session re-enters rotation as it is: a failed flight
    never leaves it suspect, because the recovery ladder rolls a failed
    tier's writes back and the engine adopts a new state only after a
    run succeeded.

    ``stale`` maps each variable to its last-known exact marginal,
    ``(values, monotonic_ts, signature)``: the overload answer (guarded
    by the serving service's stale lock).
    """

    def __init__(self, engines: Sequence[InferenceEngine]):
        if not engines:
            raise ValueError("session pool needs at least one engine")
        self.engines = list(engines)
        self.cache = self.engines[0].cache
        variables = set()
        for clique in self.engines[0].jt.cliques:
            variables.update(clique.variables)
        self.variables: List[int] = sorted(variables)
        # LIFO: the most recently returned session has the freshest
        # incremental state and the warmest caches.
        self._free: "queue.LifoQueue[InferenceEngine]" = queue.LifoQueue()
        for engine in self.engines:
            self._free.put(engine)
        # Lifecycle: a closed pool hands out no sessions and discards
        # (rather than requeues) sessions released after the close —
        # needed by the registry's eviction path, which may close a pool
        # while a late flight is still resolving.
        self._lock = threading.Lock()
        self._closed = False
        self._waiting = 0  # checkouts blocked on the free queue
        self.stale: Dict[int, Tuple[np.ndarray, float, Tuple]] = {}

    def resident_bytes(self) -> int:
        """Approximate resident cost of this pool in bytes.

        Counts the shared tree's prior potentials once, each session's
        propagation-state tables (clique potentials, separators and
        message intermediates), and the released state buffers the tree's
        free list may keep (all :data:`~repro.tasks.layout.FREE_BUFFERS`
        of them: the registry charges this cost once, and the list fills
        later).  The registry adds its retained baseline checkpoint to
        get the per-model charge against its global memory budget.
        """
        jt = self.engines[0].jt
        total = sum(t.nbytes for t in jt.potentials.values())
        for engine in self.engines:
            state = getattr(engine, "_state", None)
            if state is not None:
                total += state.nbytes
        total += FREE_BUFFERS * table_layout(jt).size * 8  # float64
        return total

    @classmethod
    def from_junction_tree(
        cls,
        junction_tree,
        sessions: int = 2,
        cache_size: int = 512,
        warm: bool = True,
    ) -> "EngineSessionPool":
        """Build ``sessions`` engines sharing one rerooted tree and cache."""
        if sessions < 1:
            raise ValueError("sessions must be >= 1")
        first = InferenceEngine(
            junction_tree, reroot=True, cache_size=cache_size
        )
        engines = [first]
        for _ in range(sessions - 1):
            engines.append(
                InferenceEngine(first.jt, reroot=False, cache_size=cache_size)
            )
        shared = QueryCache(cache_size)
        for engine in engines:
            engine.cache = shared
        if warm:
            # Calibrate the no-evidence prior once per session, so the
            # first client request pays incremental cost, not a cold run.
            for engine in engines:
                engine.propagate()
        return cls(engines)

    @classmethod
    def from_network(
        cls,
        bn,
        sessions: int = 2,
        cache_size: int = 512,
        warm: bool = True,
    ) -> "EngineSessionPool":
        from repro.jt.build import junction_tree_from_network

        return cls.from_junction_tree(
            junction_tree_from_network(bn),
            sessions=sessions,
            cache_size=cache_size,
            warm=warm,
        )

    @property
    def num_sessions(self) -> int:
        return len(self.engines)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pool's sessions; idempotent and race-safe.

        Needed for *dynamic* pool ownership (the registry evicts cold
        models, closing their pools while a served flight may still be
        running on one of their sessions):

        * calling :meth:`close` twice is a no-op the second time;
        * a :meth:`session` release racing the close never requeues its
          engine — the release path re-checks ``closed`` and discards,
          so no session object outlives the pool's budget accounting;
        * checkout after close — or waiting for a session when the close
          comes: close wakes each waiter with a ``None`` sentinel —
          refuses with :class:`~repro.serve.request.ServiceClosed`
          instead of blocking forever on an empty queue.

        The free queue is dropped so the pool's table memory is
        reclaimable, and so are the cache, the stale store and the
        tree's free list of released state buffers, now and as the
        sessions' states die (a registry stub keeps the tree but is
        charged none of that memory); the ``engines`` list survives
        (emptied) only as a tombstone for accounting code.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            table_layout(self.engines[0].jt).free.clear()
            self.cache.clear()
            self.stale.clear()
            # Drain whatever is checked in right now, under the same
            # lock the release path requeues under: a racing release
            # either requeues before this drain (and is drained) or
            # observes _closed afterwards (and discards).  Either way no
            # session survives in the free queue.
            while True:
                try:
                    self._free.get_nowait()
                except queue.Empty:
                    break
            for _ in range(self._waiting):
                self._free.put(None)
        self.engines = []

    def _release(self, engine: InferenceEngine) -> None:
        """Return one session to rotation — or drop it if the pool closed."""
        with self._lock:
            # A closed pool must not resurrect the session into the
            # (drained) free queue.
            if not self._closed:
                self._free.put(engine)

    @contextmanager
    def session(self, timeout: Optional[float] = None):
        """Check a session out (blocking), return it on exit."""
        with self._lock:
            if self._closed:
                raise ServiceClosed("session pool is closed")
            self._waiting += 1
        try:
            engine = self._free.get(timeout=timeout)
        finally:
            with self._lock:
                self._waiting -= 1
        if engine is None:  # close() woke this checkout
            raise ServiceClosed("session pool is closed")
        try:
            yield engine
        finally:
            self._release(engine)


@dataclass
class _Flight:
    """A single-flight group: all requests for one model under one
    evidence signature, served from that model's ``pool`` (``None`` when
    the registry evicted the model before the flight was admitted).

    While ``open`` (queued) the flight is joinable — new submissions with
    the same ``key`` attach as members instead of enqueueing.  The
    serving worker closes the flight when it begins serving, so late
    joiners start a fresh flight rather than racing resolution.  The
    leader is ``members[0]``.
    """

    pool: Optional[EngineSessionPool]
    model_id: Optional[str]
    signature: Tuple
    evidence: object
    members: List[Ticket] = field(default_factory=list)
    open: bool = True

    @property
    def key(self) -> Tuple:
        return self.model_id, self.signature


class FlightService(ServingCore):
    """Single-flight query serving over flights that carry their pool.

    The admission / worker / resolve-once / drain lifecycle is
    :class:`~repro.serve.core.ServingCore`'s; this class supplies the
    request service's decisions: the unit of work is a single-flight
    group keyed by (model, evidence signature) and served from the
    session pool it carries, a full queue means stale-or-shed, and
    serving is one run down a recovery ladder whose first tier the
    breaker guards.  :class:`InferenceService` serves one pool through
    it, :class:`~repro.registry.RegistryService` every model of a
    registry; each supplies ``submit``.

    Parameters
    ----------
    workers:
        Service worker threads.
    primary:
        Optional breaker-guarded fast tier (typically a
        :class:`~repro.sched.process.ProcessSharedMemoryExecutor`).
    fallback:
        The ladder's tier after the primary (its first when the primary
        is absent or skipped by an open breaker); defaults to a fresh
        :class:`~repro.sched.core.CollaborativeExecutor` — pass
        a :class:`~repro.sched.serial.SerialExecutor` to keep the
        service single-tier.  A serial last resort always ends the
        ladder.  :meth:`drain` closes both executors.
    max_queue:
        Admission bound: requests beyond this many queued flights are
        shed (or served stale, when the request allows it).
    breaker:
        The :class:`~repro.serve.breaker.CircuitBreaker` guarding the
        primary tier; a default one is built when the primary is set.
    """

    def __init__(
        self,
        workers: int,
        primary=None,
        fallback=None,
        max_queue: int = 32,
        breaker: Optional[CircuitBreaker] = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.primary = primary
        if fallback is None:
            from repro.sched import CollaborativeExecutor

            fallback = CollaborativeExecutor(num_threads=2)
        self.fallback = fallback
        self.breaker = breaker or CircuitBreaker()
        self.max_queue = max_queue

        # Guarded by the core's admission lock: the joinable flights and
        # how many of them sit in the ready queue.
        self._flights: Dict[Tuple, _Flight] = {}
        self._queued = 0
        self._queue_high_water = 0
        self._tier_counts: Dict[str, int] = {}
        # Guards every served pool's stale store.
        self._stale_lock = threading.Lock()

        super().__init__(max(workers, 1))

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def query(
        self,
        delta=None,
        vars=None,
        deadline: Optional[float] = None,
        priority: int = 0,
        max_staleness: Optional[float] = None,
        timeout: Optional[float] = None,
        model_id: Optional[str] = None,
        tenant: str = "",
    ) -> QueryResponse:
        """Blocking convenience: submit and wait for the response."""
        future = self.submit(
            QueryRequest(
                delta=delta or {},
                vars=vars,
                deadline=deadline,
                priority=priority,
                max_staleness=max_staleness,
                model_id=model_id,
                tenant=tenant,
            )
        )
        return future.result(timeout)

    def _ticket(
        self, request: QueryRequest, model_id: Optional[str]
    ) -> Ticket:
        label = ""
        if model_id or request.tenant:
            # Model/tenant-attributed serve spans let a trace viewer
            # group request lifecycles by route.
            label = f"@{model_id or '-'}/{request.tenant or '-'}"
        return self.ticket(
            request,
            request.deadline,
            tenant=request.tenant or "",
            model_id=model_id,
            label=label,
        )

    def _admit_query(
        self, ticket: Ticket, pool: EngineSessionPool, priority: int
    ) -> Future:
        """Admit ``ticket`` to a flight over ``pool`` at ``priority``."""
        evidence = ticket.payload.evidence()
        flight = _Flight(pool, ticket.model_id, evidence.signature(), evidence)
        return self.admit(ticket, flight, priority)

    def respond(self, ticket: Ticket, status: str, **fields) -> QueryResponse:
        return QueryResponse(
            status=status,
            model_id=ticket.model_id,
            tenant=ticket.tenant,
            **fields,
        )

    def place(self, ticket: Ticket, flight: _Flight, priority: int):
        """Join the open flight with this key, or queue ``flight``."""
        joined = self._flights.get(flight.key)
        if joined is not None and joined.open:
            joined.members.append(ticket)
            self._bump("coalesced")
            return None
        if self._queued >= self.max_queue:
            return self._overload_answer(ticket, flight)
        flight.members.append(ticket)
        self._flights[flight.key] = flight
        self._queued += 1
        self._queue_high_water = max(self._queue_high_water, self._queued)
        self.enqueue(flight, priority)
        return None

    def _overload_answer(
        self, ticket: Ticket, flight: _Flight
    ) -> QueryResponse:
        """Full queue: a tolerated-stale answer or an explicit shed.

        A stale answer is a *dated* answer to the same question: it
        comes from the stale store of the flight's own pool (its model),
        every entry is stamped with the evidence signature it was
        computed under, and only entries whose signature equals this
        request's own conditioning may be served.  A young-enough entry
        under a different conditioning is a signature miss — counted in
        ``stale_signature_miss`` — and the request is shed instead of
        being handed another conditioning's marginals.
        """
        request = ticket.payload
        pool = flight.pool
        if request.max_staleness is not None and pool is not None:
            needed = (
                [int(v) for v in request.vars]
                if request.vars is not None
                else pool.variables
            )
            now = time.monotonic()
            marginals: Dict[int, np.ndarray] = {}
            worst_age = 0.0
            with self._stale_lock:
                for var in needed:
                    entry = pool.stale.get(var)
                    if entry is None:
                        marginals = {}
                        break
                    values, ts, sig = entry
                    if sig != flight.signature:
                        marginals = {}
                        self._bump("stale_signature_miss")
                        break
                    age = now - ts
                    if age > request.max_staleness:
                        marginals = {}
                        break
                    worst_age = max(worst_age, age)
                    marginals[var] = values
            if marginals:
                return self.respond(
                    ticket,
                    STATUS_STALE,
                    marginals=marginals,
                    executor="stale-store",
                    stale_age=worst_age,
                )
        return self.respond(
            ticket,
            STATUS_SHED,
            error=f"admission queue full ({self.max_queue} flights)",
        )

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #

    def serve(self, flight: _Flight) -> None:
        with self._admission:
            self._queued -= 1
        try:
            self._serve_flight(flight)
        except BaseException as exc:  # never strand a client
            self.refuse(
                self._close_flight(flight),
                STATUS_FAILED,
                f"{type(exc).__name__}: {exc}",
            )

    def _close_flight(self, flight: _Flight) -> List[Ticket]:
        """Stop accepting joiners; returns the final member snapshot."""
        with self._admission:
            flight.open = False
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
            return list(flight.members)

    # ------------------------------------------------------------------ #
    # Serving one flight
    # ------------------------------------------------------------------ #

    def _union_vars(self, members: Sequence[Ticket]) -> Optional[List[int]]:
        """Variables the members must be answered; None means all."""
        union: set = set()
        for member in members:
            if member.payload.vars is None:
                return None
            union.update(int(v) for v in member.payload.vars)
        return sorted(union)

    def _cached_answer(
        self, flight: _Flight, members: Sequence[Ticket]
    ) -> Optional[Dict[int, np.ndarray]]:
        """All requested marginals already cached → skip propagation."""
        pool = flight.pool
        needed = self._union_vars(members)
        if needed is None:
            needed = pool.variables
        results: Dict[int, np.ndarray] = {}
        for var in needed:
            values = pool.cache.get_marginal(flight.signature, var)
            if values is None:
                return None
            results[var] = values
        return results

    def _serve_flight(self, flight: _Flight) -> None:
        """Answer the flight: expired, from cache, or by propagating.

        Expired flights resolve as deadline-missed without costing a
        session; a flight whose every marginal is cached never propagates.
        """
        members = self._close_flight(flight)
        if all(m.expired(time.monotonic()) for m in members):
            self._miss_deadline(members)
            return
        cached = self._cached_answer(flight, members)
        if cached is not None:
            self._bump("single_flights")
            self._resolve_ok(members, cached, "cache")
            return
        self._propagate(flight, members)

    def _ladder(self) -> Tuple[Optional[object], ResilientExecutor]:
        """This flight's primary (None when absent or skipped by an open
        breaker) and its ladder: that primary, the fallback, serial."""
        primary = self.primary
        if primary is not None and not self.breaker.allow():
            self._bump("breaker_short_circuits")
            primary = None
        if primary is None:
            return None, ResilientExecutor(self.fallback)
        return primary, ResilientExecutor(primary, fallbacks=[self.fallback])

    def _judge(self, primary, degradations, completed: bool) -> None:
        """Feed the breaker one run's verdict on the primary: a failure
        for each degradation that started at it, else a success when the
        run completed, else — no verdict — its probe slot back."""
        if primary is None:
            return
        name = type(primary).__name__
        failures = [r.reason for r in degradations if r.from_executor == name]
        for reason in failures:
            self.breaker.record_failure(reason)
        if failures:
            return
        if completed:
            self.breaker.record_success()
        else:
            self.breaker.release_probe()

    def _propagate(self, flight: _Flight, members: List[Ticket]) -> None:
        """Answer ``members`` from one run down the recovery ladder.

        The ladder rolls the state back before every step down, so a
        failed tier never writes the session's cached state.  Members are
        always answered: exactly, by their deadline, or — when every tier
        failed (serial included: pathological evidence or a corrupted
        tree) — with an explicit failure, never a silent wrong answer.  A
        flight whose likelihood is not > 0 (impossible evidence, or a
        non-finite root) is quarantined: refused, nothing of it cached.
        """
        deadline_at = self._flight_deadline(members)
        with flight.pool.session() as engine:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                self._miss_deadline(members)
                return
            primary, ladder = self._ladder()
            before = engine.last_stats
            try:
                engine.set_evidence(flight.evidence)
                state = engine.propagate(
                    executor=ladder, incremental=True, deadline=deadline_at
                )
            except Exception as exc:
                self._judge(primary, getattr(exc, "degradations", ()), False)
                if (
                    isinstance(exc, TaskExecutionError)
                    and exc.phase == "deadline"
                ):
                    self._miss_deadline(members)
                else:
                    self.refuse(
                        members, STATUS_FAILED, f"{type(exc).__name__}: {exc}"
                    )
                return
            # A flight whose state was already calibrated runs no graph
            # and leaves last_stats alone: no verdict on the primary.
            stats = engine.last_stats
            ran = stats is not before
            self._judge(primary, stats.degradations if ran else (), ran)
            tier = (
                stats.completed_executor if ran
                else type(ladder.tiers[0]).__name__
            )
            likelihood = state.likelihood()
            if not likelihood > 0:
                self._bump("quarantined")
                self.refuse(
                    members,
                    STATUS_FAILED,
                    f"case quarantined: P(evidence) = {likelihood!r} is not "
                    "> 0, no posterior to serve",
                )
                return
            results = engine.query(vars=self._union_vars(members))
            self._record_stale(flight, results)
            self._bump("single_flights")
            self._resolve_ok(members, results, tier)

    @staticmethod
    def _flight_deadline(members: Sequence[Ticket]) -> Optional[float]:
        """The propagation budget: generous enough for every member.

        ``None`` (unbounded) if any member is unbounded, else the latest
        member deadline — members whose own deadline lapses first get an
        explicit DeadlineExceeded at resolution.
        """
        deadlines = [member.deadline_at for member in members]
        return None if None in deadlines else max(deadlines)

    def _record_stale(
        self, flight: _Flight, results: Dict[int, np.ndarray]
    ) -> None:
        ts = time.monotonic()
        with self._stale_lock:
            for var, values in results.items():
                flight.pool.stale[var] = (values, ts, flight.signature)

    def _resolve_ok(
        self,
        members: Sequence[Ticket],
        results: Dict[int, np.ndarray],
        tier: str,
    ) -> None:
        with self._stats_lock:
            self._tier_counts[tier] = self._tier_counts.get(tier, 0) + 1
        now = time.monotonic()
        for i, member in enumerate(members):
            if member.expired(now):
                self.refuse(
                    [member],
                    STATUS_DEADLINE,
                    "deadline passed before resolution",
                )
                continue
            wanted = member.payload.vars
            marginals = (
                dict(results)
                if wanted is None
                else {int(v): results[int(v)] for v in wanted}
            )
            self.finish(
                member,
                self.respond(
                    member,
                    STATUS_OK,
                    marginals=marginals,
                    executor=tier,
                    coalesced=i > 0,
                ),
            )

    def _miss_deadline(self, members: Sequence[Ticket]) -> None:
        self.refuse(members, STATUS_DEADLINE, "end-to-end deadline exceeded")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _stopped(self, timeout: Optional[float]) -> None:
        for executor in (self.primary, self.fallback):
            close = getattr(executor, "close", None)
            if callable(close):
                close()

    def _build_report(self) -> ServiceReport:
        report = super()._build_report()
        report.tier_counts = dict(self._tier_counts)
        report.breaker_transitions = list(self.breaker.transitions)
        report.queue_high_water = self._queue_high_water
        return report


class InferenceService(FlightService):
    """Thread-safe concurrent inference over one :class:`EngineSessionPool`.

    ``workers`` defaults to ``pool.num_sessions`` (more would only
    contend on session checkout); the other parameters are
    :class:`FlightService`'s.
    """

    def __init__(
        self,
        pool: EngineSessionPool,
        primary=None,
        fallback=None,
        workers: Optional[int] = None,
        max_queue: int = 32,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.pool = pool
        if workers is None:
            workers = pool.num_sessions
        super().__init__(workers, primary, fallback, max_queue, breaker)

    def submit(self, request: QueryRequest) -> Future:
        """Admit one request; returns a future resolving to its response.

        Raises :class:`~repro.serve.request.ServiceClosed` once
        :meth:`drain` has begun.  Never blocks on a full queue: the
        overload path resolves the future immediately (stale or shed).
        """
        ticket = self._ticket(request, request.model_id)
        return self._admit_query(ticket, self.pool, request.priority)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceService(sessions={self.pool.num_sessions}, "
            f"workers={len(self._workers)}, max_queue={self.max_queue}, "
            f"breaker={self.breaker.state})"
        )

"""The one serving loop every service in this package runs.

Admission → ready queue → worker threads → resolve each response exactly
once → sentinel drain → :class:`~repro.serve.report.ServiceReport`:
:class:`ServingCore` owns that lifecycle once, and
:class:`~repro.serve.service.FlightService` (under
:class:`~repro.serve.service.InferenceService` and
:class:`~repro.registry.RegistryService`) and
:class:`~repro.serve.streaming.StreamingService` subclass it to supply
only their decisions:

* :meth:`ServingCore.place` — what the unit of work is and what a full
  queue means (runs under the admission lock; enqueue a unit, or return
  the immediate response);
* :meth:`ServingCore.serve` — what a worker does with one dequeued unit;
* :meth:`ServingCore.respond` — which response type a refusal is;
* ``_resolved`` / ``_closing`` / ``_stopped`` / ``_build_report`` — what
  else happens when a ticket resolves, when the service closes, after
  its workers have exited, and which report sections it adds.

The core never asks which of them it is serving.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import latency_percentiles
from repro.obs.span import CAT_SERVE
from repro.obs.tracer import Tracer
from repro.serve.report import ServiceReport
from repro.serve.request import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_STALE,
    ServiceClosed,
)

# Sorts after every client priority, so drain sentinels are consumed only
# once the real queue is empty.
_SENTINEL_PRIORITY = 1 << 30

# ``finish`` keeps one latency and one span per response, and a service
# may run for its process's lifetime: each list holds only the most recent
# RETAINED to 2 * RETAINED entries (counters are never trimmed).
RETAINED = 1 << 16

# Which ServiceReport counter a resolved response lands in.
_STATUS_COUNTER = {
    STATUS_OK: "served_ok",
    STATUS_STALE: "served_stale",
    STATUS_SHED: "shed",
    STATUS_DEADLINE: "deadline_missed",
    STATUS_FAILED: "failed",
}


def _keep_recent(records: list) -> None:
    """Drop the oldest ``RETAINED`` entries once ``records`` holds twice that."""
    if len(records) >= 2 * RETAINED:
        del records[:RETAINED]


class Future:
    """Minimal thread-safe one-shot result cell (concurrent.futures-lite).

    ``concurrent.futures.Future`` would work, but this keeps the
    dependency surface to ``threading`` and makes the resolved-exactly-
    once invariant explicit: :meth:`resolve` says whether *this* call
    was the one that resolved it.
    """

    __slots__ = ("_event", "_response", "_lock", "_callbacks")

    def __init__(self):
        self._event = threading.Event()
        self._response = None
        # resolve() must be atomic: a ticket can meet a second
        # resolution (a worker's catch-all refuses every member of a
        # group it failed to finish, answered or not), and exactly one
        # may win.
        self._lock = threading.Lock()
        self._callbacks: List = []

    def resolve(self, response) -> bool:
        """Publish ``response``; False if an earlier call already did."""
        with self._lock:
            if self._response is not None:
                return False
            self._response = response
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for callback in callbacks:
            try:
                callback(response)
            except Exception:
                pass  # a broken observer must not strand the client
        return True

    def add_done_callback(self, callback) -> None:
        """Run ``callback(response)`` on resolution (immediately if done).

        Callbacks run on the resolving thread; exceptions are swallowed.
        """
        with self._lock:
            if self._response is None:
                self._callbacks.append(callback)
                return
            response = self._response
        try:
            callback(response)
        except Exception:
            pass

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError("response not ready")
        return self._response

    def done(self) -> bool:
        return self._event.is_set()


@dataclass
class Ticket:
    """One admitted piece of client work and the future answering it.

    ``tenant`` / ``model_id`` (when set) key the per-tenant / per-model
    status breakdowns; ``label`` is appended to the response span's name.
    """

    payload: object
    deadline_at: Optional[float] = None
    tenant: Optional[str] = None
    model_id: Optional[str] = None
    label: str = ""
    future: Future = field(default_factory=Future)
    admitted_ns: int = field(default_factory=time.perf_counter_ns)

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at


class WorkerExit(BaseException):
    """Raised by ``serve`` to retire the calling worker thread silently."""


class ServingCore:
    """Bounded admission, workers, resolve-exactly-once, drain, report."""

    # What a response span is called and filed under, and what worker
    # threads and their trace rows are named after.
    span_prefix = "request"
    span_cat = CAT_SERVE
    row_prefix = "serve"
    closed_message = "service is draining; no new requests"

    def __init__(self, workers: int):
        # Guards admission state: the closed flag, the ready queue's
        # sequence numbers, and whatever the subclass keys its units by.
        self._admission = threading.Lock()
        self._closed = False
        self._ready: "queue.PriorityQueue" = queue.PriorityQueue()
        self._seq = 0

        self._stats_lock = threading.Lock()
        self._counts: Counter = Counter()  # keyed by ServiceReport field
        self._per_tenant: Dict[str, Dict[str, int]] = {}
        self._per_model: Dict[str, Dict[str, int]] = {}
        self._served_latencies: List[float] = []

        self._tracer = Tracer()
        self._started_ns = time.perf_counter_ns()
        self._report: Optional[ServiceReport] = None
        self._lifecycle_lock = threading.Lock()

        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"{self.row_prefix}-worker-{slot}",
                daemon=True,
            )
            for slot in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # Decisions the subclass supplies
    # ------------------------------------------------------------------ #

    def place(self, ticket: Ticket, *context):
        """Queue ``ticket`` (admission lock held) or answer it on the spot.

        Join or create a unit of work and :meth:`enqueue` it, returning
        ``None`` — or return the response that resolves the ticket right
        now (a refusal, a stale answer).
        """
        raise NotImplementedError

    def serve(self, unit) -> None:
        """Serve one dequeued unit on the calling worker thread."""
        raise NotImplementedError

    def respond(self, ticket: Ticket, status: str, **fields):
        """Build this service's response type for ``ticket``."""
        raise NotImplementedError

    def _resolved(self, ticket: Ticket, response) -> None:
        """``response`` just resolved ``ticket`` (called exactly once)."""

    def _closing(self) -> None:
        """Admissions just closed (admission lock held, sentinels next)."""

    def _stopped(self, timeout: Optional[float]) -> None:
        """Every worker has exited; stop and release what else runs."""

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def _bump(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self._counts[key] += n

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed(self.closed_message)

    def ticket(self, payload, deadline: Optional[float], **labels) -> Ticket:
        """Stamp one piece of client work; refuses once draining began."""
        self._check_open()
        return Ticket(
            payload,
            time.monotonic() + deadline if deadline is not None else None,
            **labels,
        )

    def admit(self, ticket: Ticket, *context, response=None) -> Future:
        """Count ``ticket`` in and :meth:`place` it — or, given
        ``response``, answer it with that on the spot; returns its future.

        ``closed`` is re-checked under the admission lock: :meth:`drain`
        closes and enqueues its sentinels while holding it, so anything
        admitted here is processed before the workers exit — and an
        immediate answer is finished before the report can be built.
        """
        with self._admission:
            self._check_open()
            self._bump("submitted")
            if response is None:
                response = self.place(ticket, *context)
            if response is not None:
                self.finish(ticket, response)
        return ticket.future

    def enqueue(self, unit, priority: int = 0) -> None:
        """Hand ``unit`` to the workers (admission lock held)."""
        self._seq += 1
        self._ready.put((priority, self._seq, unit))

    # ------------------------------------------------------------------ #
    # Workers and resolution
    # ------------------------------------------------------------------ #

    def _worker_loop(self, slot: int) -> None:
        self._tracer.bind(slot)
        self._tracer.name_row(slot, f"{self.row_prefix}-{slot}")
        while True:
            unit = self._ready.get()[2]
            if unit is None:
                return
            try:
                self.serve(unit)
            except WorkerExit:
                return

    def finish(self, ticket: Ticket, response) -> bool:
        """Resolve ``ticket`` with ``response``; True if this call won.

        A ticket can meet more than one resolution (a worker's catch-all
        refuses a whole group, some members already answered); the
        future picks one winner, and only the winner's response is
        counted, traced and seen by the client.
        """
        end_ns = time.perf_counter_ns()
        response.latency = (end_ns - ticket.admitted_ns) * 1e-9
        if not ticket.future.resolve(response):
            return False
        status = response.status
        with self._stats_lock:
            self._counts[_STATUS_COUNTER[status]] += 1
            if ticket.tenant is not None:
                bucket = self._per_tenant.setdefault(ticket.tenant, {})
                bucket[status] = bucket.get(status, 0) + 1
            if ticket.model_id:
                bucket = self._per_model.setdefault(ticket.model_id, {})
                bucket[status] = bucket.get(status, 0) + 1
            if response.ok:
                self._served_latencies.append(response.latency)
                _keep_recent(self._served_latencies)
            # Client threads share the control row's buffer, so its trim
            # needs the lock too.
            spans = self._tracer.current()
            spans.span(
                f"{self.span_prefix}:{status}{ticket.label}",
                self.span_cat,
                ticket.admitted_ns,
                end_ns,
            )
            _keep_recent(spans.misc_records)
        self._resolved(ticket, response)
        return True

    def refuse(
        self, tickets: Iterable[Ticket], status: str, error: str, **fields
    ) -> None:
        """Resolve every still-open ticket with one typed refusal."""
        for ticket in tickets:
            self.finish(
                ticket, self.respond(ticket, status, error=error, **fields)
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def drain(self, timeout: Optional[float] = None) -> ServiceReport:
        """Stop admissions, finish queued work, report.

        Idempotent: later calls return the same report.  ``timeout``
        bounds the per-worker join (None waits indefinitely).
        """
        with self._lifecycle_lock:
            if self._report is not None:
                return self._report
            with self._admission:
                self._closed = True
                self._closing()
                for _ in self._workers:
                    self.enqueue(None, _SENTINEL_PRIORITY)
            for thread in self._workers:
                thread.join(timeout)
            self._stopped(timeout)
            self._report = self._build_report()
            return self._report

    def _build_report(self) -> ServiceReport:
        """The counters as a report; subclasses add their own sections."""
        trace = self._tracer.finalize(executor=type(self).__name__)
        with self._stats_lock:
            counts = dict(self._counts)
            per_tenant = {t: dict(c) for t, c in self._per_tenant.items()}
            per_model = {m: dict(c) for m, c in self._per_model.items()}
            served = list(self._served_latencies)
        return ServiceReport(
            **counts,
            per_tenant=per_tenant,
            per_model=per_model,
            served_latencies=served,
            latency=latency_percentiles(served),
            wall_seconds=(time.perf_counter_ns() - self._started_ns) * 1e-9,
            trace=trace,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.drain()

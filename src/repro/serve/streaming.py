"""Streaming DBN filtering as a service: subscribe, push ticks, read posteriors.

:class:`StreamingService` serves many concurrent
:class:`~repro.streaming.FilteringSession` streams through the same
operability machinery as :class:`~repro.serve.service.InferenceService`:
a bounded worker pool, explicit typed refusals, a span tracer
(``cat="stream"`` tick lifecycles) and an idempotent ``drain()``
returning a :class:`~repro.serve.report.ServiceReport` with streaming
sections.

The contract per tick mirrors the request service's: **exact or
explicit**.  An ``ok`` :class:`TickResponse` carries posteriors equal to
an offline unrolled-network propagation over every tick applied so far
(to 1e-9); everything else is a typed refusal whose evidence was *not*
applied — overflowed and refused ticks never corrupt the stream's
filter.  Backpressure is per stream: each stream owns a bounded pending
queue (``max_pending``), and a full queue refuses new ticks immediately
(``kind="stream-overflow"``) instead of blocking the producer or
starving other streams.  Ticks of one stream are processed strictly in
admission order by at most one worker at a time; different streams
progress in parallel.

With a ``durable_root``, the service is additionally **crash-durable**:
every admitted tick is journaled to a per-stream write-ahead log
(:class:`~repro.durability.journal.TickJournal`) *before* it executes,
every outcome is journaled after it resolves, and a freshly constructed
service on the same root replays the journals through
:class:`~repro.durability.recovery.RecoveryManager` before accepting
traffic — acked posteriors are exactly-once (replay reproduces them
bit-for-bit), unacked ticks are at-least-once internally.  The
sequence-number assignment and all journal writes happen on the one
worker serving the stream, so the journal order *is* the admission
order.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence

from repro.durability.journal import TickJournal, atomic_write_text
from repro.durability.recovery import RecoveryManager, RecoveryReport
from repro.obs.span import CAT_STREAM
from repro.sched.faults import InjectedCrash
from repro.serve.core import Future, ServingCore, Ticket, WorkerExit
from repro.serve.report import ServiceReport
from repro.serve.request import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    TickResponse,
)
from repro.streaming.session import (
    FilteringSession,
    TickDeadline,
    TickFailed,
)


class _Tick(NamedTuple):
    """A tick ticket's payload: which stream, what evidence."""

    handle: "StreamHandle"
    delta: Dict[int, object]


class StreamHandle:
    """One subscribed stream: its session, pending queue and update feed."""

    def __init__(
        self,
        name: str,
        session: FilteringSession,
        query_vars: Optional[Sequence[int]],
        max_pending: int,
        journal: Optional[TickJournal] = None,
    ):
        self.name = name
        self.session = session
        self.query_vars = (
            [int(v) for v in query_vars] if query_vars is not None else None
        )
        self.max_pending = max_pending
        self.journal = journal
        # Next WAL sequence number; touched only by the single worker
        # currently serving this stream (and by recovery, pre-traffic).
        self.next_seq = journal.next_seq if journal is not None else 0
        # Guarded by the service's admission lock: admitted tickets
        # (payload: a _Tick), and whether a worker owns (or the ready
        # queue holds) this stream.
        self.pending: "deque[Ticket]" = deque()
        self.scheduled = False
        self.closed = False
        self.counts: Dict[str, int] = {}
        self.window_rolls = 0
        self.updates_queue: "queue.Queue[Optional[TickResponse]]" = (
            queue.Queue()
        )
        self._feed_ended = False

    def end_feed(self) -> None:
        """Terminate the update feed, once (admission lock held)."""
        if not self._feed_ended:
            self._feed_ended = True
            self.updates_queue.put(None)


class StreamingService(ServingCore):
    """Concurrent online-filtering service over one DBN template.

    The admission / worker / resolve-once / drain lifecycle is
    :class:`~repro.serve.core.ServingCore`'s; this class supplies the
    streaming decisions: the unit of work is a :class:`StreamHandle`
    served by at most one worker at a time, a full per-stream queue
    means ``stream-overflow``, and serving is journal → tick → ack.

    Parameters
    ----------
    dbn:
        The :class:`~repro.bn.dbn.DynamicBayesianNetwork` every stream
        filters (prior and transition CPTs set).
    window / retire:
        Default :class:`~repro.streaming.FilteringSession` window
        geometry; overridable per :meth:`subscribe`.
    workers:
        Worker threads shared by every stream.  One stream is served by
        at most one worker at a time (ticks are ordered), so more
        workers than active streams buys nothing.
    max_pending:
        Per-stream tick-queue bound — the backpressure knob.  A full
        queue refuses pushes with ``kind="stream-overflow"``.
    executor_factory:
        Zero-argument callable building the executor one stream's
        propagations run on (called once per subscribe); ``None`` runs
        serial.  This is where the chaos soak injects faulty executors.
    default_deadline:
        Per-tick deadline (seconds from push) applied when
        :meth:`push_tick` gives none; ``None`` means unbounded.
    durable_root:
        Directory the service journals to and recovers from; ``None``
        keeps the service purely in-memory (the pre-durability
        behavior).  On construction any streams already durable under
        the root are rebuilt (journal replay) *before* the service
        accepts traffic; :attr:`recovery_report` describes what was
        replayed.
    fault_plan:
        Optional :class:`~repro.sched.faults.FaultPlan` wiring
        deterministic crash points (``crash_after_journal_append``,
        ``crash_before_ack``, ``torn_append``) into the journal path;
        an injected crash kills the serving worker silently, simulating
        ``SIGKILL`` at that exact byte (:attr:`crashed` turns true).
    """

    span_prefix = "tick"
    span_cat = CAT_STREAM
    row_prefix = "stream"
    closed_message = "streaming service is draining"

    def __init__(
        self,
        dbn,
        window: int = 8,
        retire: Optional[int] = None,
        workers: int = 2,
        max_pending: int = 8,
        executor_factory=None,
        default_deadline: Optional[float] = None,
        durable_root: Optional[str] = None,
        fault_plan=None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.dbn = dbn
        self.window = window
        self.retire = retire
        self.max_pending = max_pending
        self.executor_factory = executor_factory
        self.default_deadline = default_deadline
        self.durable_root = durable_root
        self.fault_plan = fault_plan

        # Guarded by the core's admission lock (None reserves a name).
        self._streams: Dict[str, Optional[StreamHandle]] = {}
        self._auto_names = 0
        self._crash_event = threading.Event()
        self._recovery: Optional[RecoveryReport] = None
        super().__init__(max(workers, 1))
        if durable_root is not None:
            self._recover(durable_root)

    def _recover(self, root: str) -> None:
        """Rebuild durable streams from ``root`` before serving traffic."""
        streams_dir = os.path.join(root, "streams")
        os.makedirs(streams_dir, exist_ok=True)
        template = os.path.join(streams_dir, "_template.json")
        if not os.path.isfile(template):
            from repro.io.json_io import dbn_to_dict

            atomic_write_text(
                template, json.dumps(dbn_to_dict(self.dbn), separators=(",", ":"))
            )
        row = len(self._workers)
        buf = self._tracer.buffer(row)
        self._tracer.name_row(row, "recovery")
        report = RecoveryManager(root).recover_streams(self, span_buffer=buf)
        self._recovery = report
        self._bump("replayed_ticks", report.replayed_ticks)
        self._bump("dropped_unacked", report.dropped_unacked)
        if report.streams:
            self._bump("recoveries")

    @property
    def recovery_report(self) -> Optional[RecoveryReport]:
        """What construction-time recovery replayed (None without one)."""
        return self._recovery

    @property
    def crashed(self) -> bool:
        """Whether an injected crash point has killed a serving worker."""
        return self._crash_event.is_set()

    # ------------------------------------------------------------------ #
    # Subscription / admission
    # ------------------------------------------------------------------ #

    def subscribe(
        self,
        name: Optional[str] = None,
        query_vars: Optional[Sequence[int]] = None,
        window: Optional[int] = None,
        retire: Optional[int] = None,
        max_pending: Optional[int] = None,
        incremental: bool = True,
    ) -> StreamHandle:
        """Open a new filtering stream; returns its handle.

        ``query_vars`` selects which slice variables each ok tick
        response reports (default: all of them).  The stream gets its
        own :class:`~repro.streaming.FilteringSession` — window state is
        per stream and never shared — and its own executor from
        ``executor_factory``.  Under a ``durable_root`` the stream also
        gets its own write-ahead journal (opening it truncates any torn
        tail from a previous crash) and a durable ``meta.json`` so a
        fresh process can re-subscribe it with the same geometry.
        """
        self._check_open()
        window = window if window is not None else self.window
        retire = retire if retire is not None else self.retire
        max_pending = (
            max_pending if max_pending is not None else self.max_pending
        )
        # Reserve the name first so session/journal construction (slow,
        # filesystem-touching) runs outside the lock without racing a
        # duplicate subscribe.
        with self._admission:
            self._check_open()
            if name is None:
                self._auto_names += 1
                name = f"stream-{self._auto_names}"
            if name in self._streams:
                raise ValueError(f"stream {name!r} already subscribed")
            self._streams[name] = None  # reservation
        journal = None
        try:
            executor = (
                self.executor_factory() if self.executor_factory else None
            )
            session = FilteringSession(
                self.dbn,
                window=window,
                retire=retire,
                executor=executor,
                incremental=incremental,
            )
            if self.durable_root is not None:
                stream_dir = os.path.join(self.durable_root, "streams", name)
                os.makedirs(stream_dir, exist_ok=True)
                atomic_write_text(
                    os.path.join(stream_dir, "meta.json"),
                    json.dumps(
                        {
                            "window": window,
                            "retire": retire,
                            "max_pending": max_pending,
                            "incremental": incremental,
                            "query_vars": (
                                [int(v) for v in query_vars]
                                if query_vars is not None
                                else None
                            ),
                        }
                    ),
                )
                journal = TickJournal(stream_dir, fault_plan=self.fault_plan)
            handle = StreamHandle(
                name, session, query_vars, max_pending, journal=journal
            )
        except BaseException:
            if journal is not None:
                journal.close()
            with self._admission:
                if self._streams.get(name) is None:
                    self._streams.pop(name, None)
            raise
        with self._admission:
            self._streams[name] = handle
        return handle

    def _handle(self, stream) -> StreamHandle:
        if isinstance(stream, StreamHandle):
            return stream
        with self._admission:
            handle = self._streams.get(stream)
        if handle is None:
            raise KeyError(f"unknown stream {stream!r}")
        return handle

    def push_tick(
        self,
        stream,
        delta: Optional[Mapping[int, object]] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Admit one evidence tick; returns a future of its TickResponse.

        Never blocks: a full per-stream queue (or a closed stream)
        resolves the future immediately with a typed refusal whose
        evidence was not applied.
        """
        self._check_open()
        handle = self._handle(stream)
        if deadline is None:
            deadline = self.default_deadline
        ticket = self.ticket(
            _Tick(handle, dict(delta or {})), deadline, label=f"@{handle.name}"
        )
        return self.admit(ticket)

    def respond(self, ticket: Ticket, status: str, **fields) -> TickResponse:
        return TickResponse(
            stream=ticket.payload.handle.name, status=status, **fields
        )

    def place(self, ticket: Ticket):
        """Queue the tick behind its stream's earlier ones, if it fits."""
        handle = ticket.payload.handle
        if handle.closed:
            return self.respond(
                ticket,
                STATUS_SHED,
                kind="stream-closed",
                error=f"stream {handle.name!r} no longer accepts ticks",
            )
        if len(handle.pending) >= handle.max_pending:
            return self.respond(
                ticket,
                STATUS_SHED,
                kind="stream-overflow",
                error=(
                    f"stream {handle.name!r} tick queue full "
                    f"({handle.max_pending} pending)"
                ),
            )
        handle.pending.append(ticket)
        if not handle.scheduled:
            handle.scheduled = True
            self.enqueue(handle)
        return None

    def close_stream(self, stream) -> None:
        """Stop admitting ticks to one stream; pending ticks still run.

        The stream's update feed ends (its :meth:`updates` iterator
        stops) once every already-admitted tick has resolved.
        """
        handle = self._handle(stream)
        with self._admission:
            handle.closed = True
            if not handle.pending and not handle.scheduled:
                handle.end_feed()

    def updates(self, stream, timeout: Optional[float] = None) -> Iterator[TickResponse]:
        """Yield this stream's tick responses in admission order.

        Ends when the stream is closed (or the service drained) and
        every admitted tick has resolved.  ``timeout`` bounds the wait
        for *each* response; expiry raises ``TimeoutError``.
        """
        handle = self._handle(stream)
        while True:
            try:
                item = handle.updates_queue.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no tick response from stream {handle.name!r} "
                    f"within {timeout}s"
                ) from None
            if item is None:
                return
            yield item

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #

    def serve(self, handle: StreamHandle) -> None:
        """Run the stream's pending ticks in order until none are left."""
        while True:
            with self._admission:
                if not handle.pending:
                    handle.scheduled = False
                    if handle.closed or self._closed:
                        handle.end_feed()
                    return
                ticket = handle.pending.popleft()
            try:
                self._serve_tick(handle, ticket)
            except InjectedCrash:
                # A planned crash point fired: die exactly like
                # SIGKILL would — no resolution, no sentinel, no
                # cleanup.  Recovery (a fresh service on the same
                # durable root) is the only way forward.
                self._crash_event.set()
                raise WorkerExit from None

    def _serve_tick(self, handle: StreamHandle, ticket: Ticket) -> None:
        delta = ticket.payload.delta
        session = handle.session
        journal = handle.journal
        if ticket.expired(time.monotonic()):
            # Expired before execution: nothing was journaled, nothing
            # needs to be — the evidence never touched the stream.
            self.refuse(
                [ticket],
                STATUS_DEADLINE,
                "deadline passed while the tick was queued",
            )
            return
        seq = -1
        if journal is not None:
            # Write-ahead: the tick is durable before it executes.  An
            # InjectedCrash from a planned crash point propagates to
            # serve() (simulated SIGKILL).
            seq = handle.next_seq
            handle.next_seq = seq + 1
            journal.append_tick(seq, delta)

        def refused(status: str, error: str) -> None:
            self.refuse([ticket], status, error)
            if journal is not None:
                journal.append_ack(seq, "refused")

        try:
            result = session.tick(delta, deadline=ticket.deadline_at)
        except TickDeadline as exc:
            refused(STATUS_DEADLINE, str(exc))
            return
        except Exception as exc:  # TickFailed and anything unexpected
            if not isinstance(exc, TickFailed):
                # An unclassified failure may have left the session
                # inconsistent; rebuild it from the durable records.
                try:
                    session.resync()
                except Exception:
                    pass
            refused(STATUS_FAILED, f"{type(exc).__name__}: {exc}")
            return
        marginals = session.posteriors(handle.query_vars, t=result.t)
        if result.rolled:
            self._bump("window_rolls")
            handle.window_rolls += 1
        self.finish(
            ticket,
            self.respond(
                ticket,
                STATUS_OK,
                t=result.t,
                marginals=marginals,
                rolled=result.rolled,
                incremental=result.incremental,
            ),
        )
        if journal is not None:
            # The window between the client seeing the answer (above)
            # and the durable ack (below) is the at-least-once window:
            # a crash here leaves the tick unacked and recovery replays
            # it — idempotently, since posteriors depend only on the
            # evidence set.
            if self.fault_plan is not None and self.fault_plan.take_crash_before_ack(
                seq
            ):
                raise InjectedCrash(f"crash before ack of seq {seq}")
            journal.append_ack(seq, "ok", t=result.t)
            if result.rolled:
                # Retired slices just left the in-memory window; fold
                # them into the segment snapshot so replay cost stays
                # bounded by the window, not the stream's lifetime.
                journal.rotate(
                    session.snapshot_state(), next_seq=handle.next_seq
                )

    def _resolved(self, ticket: Ticket, response: TickResponse) -> None:
        """Per-stream tally, then the response joins the update feed."""
        handle = ticket.payload.handle
        overflow = response.kind == "stream-overflow"
        if response.kind != "stream-closed":
            key = "overflowed" if overflow else response.status
            with self._stats_lock:
                handle.counts[key] = handle.counts.get(key, 0) + 1
                if overflow:
                    self._counts["ticks_overflowed"] += 1
        handle.updates_queue.put(response)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _handles(self) -> List[StreamHandle]:
        with self._admission:
            return [h for h in self._streams.values() if h is not None]

    def _closing(self) -> None:
        # Schedule every stream with pending work that no worker
        # currently owns, so nothing is stranded behind the sentinels.
        for handle in self._streams.values():
            if handle is not None and handle.pending and not handle.scheduled:
                handle.scheduled = True
                self.enqueue(handle)

    def _stopped(self, timeout: Optional[float]) -> None:
        for handle in self._handles():
            # Streams never scheduled after close still need their update
            # feeds terminated.
            with self._admission:
                handle.end_feed()
            # Every pending tick has resolved (or the process is
            # simulating death); flush and release the journal.
            if handle.journal is not None:
                handle.journal.close()

    def _build_report(self) -> ServiceReport:
        """The shared fields plus the streaming sections (``streams``,
        ``ticks_*``, ``per_stream``; ``window_rolls`` and the recovery
        counters are bumped as they happen)."""
        report = super()._build_report()
        report.per_stream = {h.name: dict(h.counts) for h in self._handles()}
        report.streams = len(report.per_stream)
        report.ticks_ok = report.served_ok
        report.ticks_deadline = report.deadline_missed
        report.ticks_failed = report.failed
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingService(streams={len(self._streams)}, "
            f"workers={len(self._workers)}, max_pending={self.max_pending})"
        )

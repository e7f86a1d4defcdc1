"""The sharded multi-tenant model registry (see ``docs/registry.md``).

* :class:`ModelRegistry` owns the model lifecycle and nothing else: it
  compiles a model on first use (single-flight, deadline-aware), keeps
  compiled pools resident under one global memory budget, evicts the
  least recently used to a cheap *stub* (rerooted tree + baseline
  checkpoint) that **rehydrates** on the next miss, and adopts durable
  artifacts from a previous process.
* :class:`RegistryService` is the multi-tenant front door: one admission
  queue and one set of workers serve every model, after routing by
  ``model_id`` and per-tenant weighted fair admission.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.bn.network import BayesianNetwork
from repro.durability.recovery import ModelRecovery
from repro.durability.store import DurableModelStore
from repro.obs.span import CAT_RECOVERY, CAT_SERVE
from repro.obs.tracer import Tracer
from repro.registry.compiler import (
    CompiledModel,
    compile_model,
    rehydrate_model,
    stub_cost_bytes,
)
from repro.registry.fairness import TenantScheduler
from repro.serve.core import Future, Ticket
from repro.serve.report import ServiceReport
from repro.serve.request import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_SHED,
    CompileDeadlineExceeded,
    ModelEvicted,
    ModelNotFound,
    QueryRequest,
    QueryResponse,
    ServiceClosed,
)
from repro.serve.service import FlightService

# Entry lifecycle: cold --compile--> resident --evict--> stub
#                  stub --rehydrate--> resident; stub --pressure--> cold
_COLD = "cold"
_COMPILING = "compiling"
_REHYDRATING = "rehydrating"
_RESIDENT = "resident"
_STUB = "stub"

class _Entry:
    """One registered model's lifecycle record (guarded by the registry
    lock; the condition wakes single-flight followers on state changes)."""

    def __init__(self, model_id: str, loader, cond: threading.Condition):
        self.model_id = model_id
        self.loader = loader
        self.state = _COLD
        self.cond = cond
        # The live pool while resident, else None (eviction closes it).
        self.pool = None
        self.junction_tree = None
        self.baseline: Optional[bytes] = None
        self.cost_bytes = 0
        self.stub_cost_bytes = 0
        # Last observed cold-compile / rehydrate wall times: the upfront
        # deadline estimates (None until first measured).
        self.compile_estimate: Optional[float] = None
        self.rehydrate_estimate: Optional[float] = None
        self.last_used = 0
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.rehydrations = 0
        self.evictions = 0

    def resident_cost(self) -> int:
        if self.state == _RESIDENT:
            return self.cost_bytes
        if self.state == _STUB:
            return self.stub_cost_bytes
        return 0


class ModelRegistry:
    """On-demand compiled models under one global memory budget.

    Parameters
    ----------
    memory_budget:
        Global budget in bytes over every resident pool and retained
        stub; ``None`` disables eviction.  A single model larger than
        the whole budget still serves (the registry will not refuse the
        only copy of the work), but it is flagged in ``stats()`` as a
        budget overrun.
    sessions, cache_size:
        Per-model pool shape (see :class:`EngineSessionPool`).
        A :class:`RegistryService` runs ``sessions`` workers.
    durable_root:
        Directory compiled-model artifacts (rerooted tree + baseline
        checkpoint) persist under.  A fresh process registering a model
        whose artifacts survive there adopts them as a **stub** — the
        first acquire rehydrates warm instead of paying moralize /
        triangulate / calibrate cold.  Invalid artifacts (signature
        mismatch, torn files) are ignored and the model compiles cold.
    """

    def __init__(
        self,
        memory_budget: Optional[int] = None,
        sessions: int = 2,
        cache_size: int = 512,
        durable_root: Optional[str] = None,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be >= 1 byte (or None)")
        self.memory_budget = memory_budget
        self.sessions = sessions
        self.cache_size = cache_size
        self.durable_root = durable_root
        self._durable = (
            DurableModelStore(durable_root) if durable_root is not None else None
        )

        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self._tick = 0
        self._closed = False

        # Registry-level accounting.
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.rehydrations = 0
        self.evictions = 0
        self.compile_deadline_refusals = 0
        self.budget_overruns = 0
        self.peak_resident_bytes = 0
        self.recovered_models = 0
        self.model_recoveries: List[ModelRecovery] = []

        self._tracer = Tracer()
        self._buf = self._tracer.buffer(0)
        self._tracer.name_row(0, "registry")
        self._started_ns = time.perf_counter_ns()
        self._report: Optional[ServiceReport] = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        model_id: str,
        network: Optional[BayesianNetwork] = None,
        loader: Optional[Callable[[], BayesianNetwork]] = None,
    ) -> None:
        """Make ``model_id`` routable; compilation happens on first use.

        Exactly one of ``network`` (held by reference) or ``loader`` (a
        zero-arg callable invoked at compile time — the cheap way to
        register thousands of models) must be given.

        With a ``durable_root``, registration also checks the durable
        model store: validated artifacts from a previous process are
        adopted as a stub, so the first :meth:`acquire` rehydrates warm.
        """
        if (network is None) == (loader is None):
            raise ValueError("register needs exactly one of network/loader")
        if loader is None:
            loader = lambda: network  # noqa: E731
        with self._lock:
            if self._closed:
                raise ServiceClosed("registry is closed")
            if model_id in self._entries:
                raise ValueError(f"model {model_id!r} already registered")
            entry = _Entry(model_id, loader, threading.Condition(self._lock))
            self._entries[model_id] = entry
        if self._durable is not None:
            self._adopt_durable(entry)

    def _adopt_durable(self, entry: _Entry) -> None:
        """Promote a cold entry to a stub from durable artifacts.

        Artifact loading and validation (tree parse, checkpoint
        signature check) run outside the lock; any validation failure
        leaves the entry cold — a bad artifact is never worth a wrong
        answer.
        """
        t0_ns = time.perf_counter_ns()
        recovery = ModelRecovery(model_id=entry.model_id, adopted=False)
        try:
            loaded = self._durable.load(entry.model_id)
        except Exception as exc:
            loaded = None
            recovery.detail = f"{type(exc).__name__}: {exc}"
        if loaded is None:
            if not recovery.detail:
                recovery.detail = "no durable artifacts"
            with self._lock:
                self.model_recoveries.append(recovery)
            return
        junction_tree, baseline, meta = loaded
        recovery.adopted = True
        recovery.checkpoint_bytes = len(baseline)
        recovery.detail = "adopted as stub"
        with self._lock:
            if entry.state != _COLD:
                return
            entry.junction_tree = junction_tree
            entry.baseline = baseline
            entry.stub_cost_bytes = stub_cost_bytes(junction_tree, baseline)
            seconds = meta.get("compile_seconds")
            if seconds:
                entry.compile_estimate = float(seconds)
            entry.state = _STUB
            self.recovered_models += 1
            self.model_recoveries.append(recovery)
            self._make_room(protect=entry.model_id)
            self._buf.span(
                f"adopt:{entry.model_id}",
                CAT_RECOVERY,
                t0_ns,
                time.perf_counter_ns(),
            )

    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, model_id: str) -> bool:
        with self._lock:
            return model_id in self._entries

    # ------------------------------------------------------------------ #
    # Budget accounting
    # ------------------------------------------------------------------ #

    def _resident_bytes_locked(self) -> int:
        return sum(e.resident_cost() for e in self._entries.values())

    def resident_bytes(self) -> int:
        """Current bytes charged against the budget (pools + stubs)."""
        with self._lock:
            return self._resident_bytes_locked()

    def resident_models(self) -> List[str]:
        with self._lock:
            return sorted(
                m for m, e in self._entries.items() if e.state == _RESIDENT
            )

    def stats(self) -> Dict[str, object]:
        """Registry-level counters plus the per-model breakdown."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "compiles": self.compiles,
                "rehydrations": self.rehydrations,
                "evictions": self.evictions,
                "compile_deadline_refusals": self.compile_deadline_refusals,
                "budget_overruns": self.budget_overruns,
                "resident_bytes": self._resident_bytes_locked(),
                "peak_resident_bytes": self.peak_resident_bytes,
                "memory_budget": self.memory_budget,
                "recovered_models": self.recovered_models,
                "durable_root": self.durable_root,
                "models": {
                    m: {
                        "state": e.state,
                        "hits": e.hits,
                        "misses": e.misses,
                        "compiles": e.compiles,
                        "rehydrations": e.rehydrations,
                        "evictions": e.evictions,
                        "cost_bytes": e.resident_cost(),
                        "compile_seconds": e.compile_estimate,
                        "rehydrate_seconds": e.rehydrate_estimate,
                    }
                    for m, e in self._entries.items()
                },
            }

    # ------------------------------------------------------------------ #
    # Acquire (compile-on-miss, single-flight, deadline-aware)
    # ------------------------------------------------------------------ #

    def acquire(
        self,
        model_id: str,
        deadline_at: Optional[float] = None,
        compile: bool = True,
    ) -> _Entry:
        """Return the resident entry for ``model_id``, compiling on miss.

        Single-flight: concurrent misses on the same model wait for the
        one in-progress compile.  ``deadline_at`` (absolute
        ``time.monotonic`` instant) makes the wait and the compile
        cooperative: a caller whose deadline passes while waiting, or
        whose budget cannot cover the estimated compile, refuses with
        :class:`CompileDeadlineExceeded` — it never blocks the queue
        behind a compile it cannot outlive.  Raises
        :class:`ModelNotFound` for unregistered ids and
        :class:`ServiceClosed` after :meth:`close`.  ``compile=False``
        rehydrates a stub but raises :class:`ModelEvicted` rather than
        compile a cold model or wait on another caller's cold compile.
        """
        clock = time.monotonic
        with self._lock:
            entry = self._entries.get(model_id)
            if entry is None:
                raise ModelNotFound(f"model {model_id!r} is not registered")
            while True:
                if self._closed:
                    raise ServiceClosed("registry is closed")
                if entry.state == _RESIDENT:
                    self._tick += 1
                    entry.last_used = self._tick
                    entry.hits += 1
                    self.hits += 1
                    return entry
                if not compile and entry.state in (_COLD, _COMPILING):
                    raise ModelEvicted(
                        f"model {model_id!r} was evicted cold while its "
                        f"request queued; resubmit to compile it"
                    )
                if entry.state in (_COMPILING, _REHYDRATING):
                    if deadline_at is not None:
                        remaining = deadline_at - clock()
                        if remaining <= 0:
                            self.compile_deadline_refusals += 1
                            raise CompileDeadlineExceeded(
                                f"model {model_id!r} still compiling at "
                                f"the request deadline"
                            )
                        entry.cond.wait(timeout=min(remaining, 0.05))
                    else:
                        entry.cond.wait(timeout=0.05)
                    continue
                # Cold or stub: this caller becomes the compile leader.
                rehydrating = entry.state == _STUB
                estimate = (
                    entry.rehydrate_estimate
                    if rehydrating
                    else entry.compile_estimate
                )
                if (
                    deadline_at is not None
                    and estimate is not None
                    and clock() + estimate > deadline_at
                ):
                    self.compile_deadline_refusals += 1
                    verb = "rehydrate" if rehydrating else "compile"
                    raise CompileDeadlineExceeded(
                        f"model {model_id!r} needs ~{estimate:.3f}s to "
                        f"{verb}, which overruns the request deadline"
                    )
                prev_state = entry.state
                entry.state = _REHYDRATING if rehydrating else _COMPILING
                break

        t0_ns = time.perf_counter_ns()
        try:
            compiled = self._build(entry, rehydrating, deadline_at)
        except BaseException as exc:
            with self._lock:
                entry.state = prev_state
                entry.cond.notify_all()
                if isinstance(exc, CompileDeadlineExceeded):
                    self.compile_deadline_refusals += 1
            raise

        with self._lock:
            self._install(entry, compiled, rehydrating)
            self._buf.span(
                f"{'rehydrate' if rehydrating else 'compile'}:{model_id}",
                CAT_SERVE,
                t0_ns,
                time.perf_counter_ns(),
            )
            entry.cond.notify_all()
        if (
            self._durable is not None
            and not rehydrating
            and compiled.baseline is not None
        ):
            # Persist the fresh compile's artifacts (outside the lock —
            # fsync'd writes are slow) so the NEXT process starts warm.
            self._durable.save(
                model_id,
                compiled.junction_tree,
                compiled.baseline,
                compile_seconds=compiled.compile_seconds,
            )
        return entry

    def _build(
        self, entry: _Entry, rehydrating: bool, deadline_at: Optional[float]
    ) -> CompiledModel:
        """Run the compile or rehydrate pipeline (no registry lock held)."""
        if rehydrating:
            return rehydrate_model(
                entry.model_id,
                entry.junction_tree,
                entry.baseline,
                sessions=self.sessions,
                cache_size=self.cache_size,
                deadline_at=deadline_at,
            )
        network = entry.loader()
        if not isinstance(network, BayesianNetwork):
            raise TypeError(
                f"loader for model {entry.model_id!r} returned "
                f"{type(network).__name__}, expected BayesianNetwork"
            )
        return compile_model(
            entry.model_id,
            network,
            sessions=self.sessions,
            cache_size=self.cache_size,
            deadline_at=deadline_at,
        )

    def _install(
        self, entry: _Entry, compiled: CompiledModel, rehydrated: bool
    ) -> None:
        entry.pool = compiled.pool
        entry.junction_tree = compiled.junction_tree
        entry.baseline = compiled.baseline
        entry.cost_bytes = compiled.cost_bytes
        entry.stub_cost_bytes = compiled.stub_cost_bytes
        entry.state = _RESIDENT
        entry.misses += 1
        self.misses += 1
        if rehydrated:
            entry.rehydrations += 1
            self.rehydrations += 1
            entry.rehydrate_estimate = compiled.compile_seconds
        else:
            entry.compiles += 1
            self.compiles += 1
            entry.compile_estimate = compiled.compile_seconds
        self._tick += 1
        entry.last_used = self._tick
        self._make_room(protect=entry.model_id)
        resident = self._resident_bytes_locked()
        self.peak_resident_bytes = max(self.peak_resident_bytes, resident)

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #

    def _make_room(self, protect: Optional[str] = None) -> None:
        """Evict LRU models until the budget holds (lock held).

        Resident pools are demoted to stubs first (tree + checkpoint
        retained, rehydration stays cheap); if stubs alone still bust
        the budget, the coldest stubs are dropped entirely (back to
        ``cold`` — next miss pays a full recompile).  The protected
        (just-installed) model is never evicted: a model larger than the
        whole budget still serves, recorded as a budget overrun.
        """
        if self.memory_budget is None:
            return
        while self._resident_bytes_locked() > self.memory_budget:
            victim = self._lru_locked(_RESIDENT, protect)
            if victim is not None:
                self._evict_locked(victim)
                continue
            stub = self._lru_locked(_STUB, protect)
            if stub is not None:
                stub.junction_tree = None
                stub.baseline = None
                stub.stub_cost_bytes = 0
                stub.rehydrate_estimate = None
                stub.state = _COLD
                continue
            self.budget_overruns += 1
            break

    def _lru_locked(
        self, state: str, protect: Optional[str]
    ) -> Optional[_Entry]:
        candidates = [
            e
            for e in self._entries.values()
            if e.state == state and e.model_id != protect
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.last_used)

    def _evict_locked(self, entry: _Entry) -> None:
        """Demote one resident model to a stub (lock held).

        Closing the pool waits on nothing: a flight already running on
        one of its sessions finishes there (the flight holds the pool;
        the stub does not, so whatever that flight still writes to the
        pool's cache goes with it), and a flight that has not checked a
        session out yet re-acquires the model (see
        :meth:`RegistryService._serve_flight`).
        """
        t0_ns = time.perf_counter_ns()
        entry.pool.close()
        entry.pool = None
        entry.state = _STUB
        entry.evictions += 1
        self.evictions += 1
        self._buf.span(
            f"evict:{entry.model_id}",
            CAT_SERVE,
            t0_ns,
            time.perf_counter_ns(),
        )

    def evict(self, model_id: str) -> bool:
        """Explicitly demote one resident model to its stub.

        Returns True when an eviction happened (False if the model was
        not resident).  Used by operators and tests; budget-driven
        evictions happen automatically during compile installs.
        """
        with self._lock:
            entry = self._entries.get(model_id)
            if entry is None:
                raise ModelNotFound(f"model {model_id!r} is not registered")
            if entry.state != _RESIDENT:
                return False
            self._evict_locked(entry)
            return True

    # ------------------------------------------------------------------ #
    # Report aggregation / lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> ServiceReport:
        """Close every resident pool and return the registry's report.

        Idempotent.  The report carries the registry's own counters;
        served work is counted by the :class:`RegistryService` in front.
        """
        with self._lock:
            if self._report is not None:
                return self._report
            self._closed = True
            for entry in self._entries.values():
                if entry.state == _RESIDENT:
                    entry.pool.close()
                    entry.pool = None
                    entry.state = _STUB
                entry.cond.notify_all()
            self._report = ServiceReport(
                model_hits=self.hits,
                model_misses=self.misses,
                compiles=self.compiles,
                rehydrations=self.rehydrations,
                evictions=self.evictions,
                compile_deadline_refusals=self.compile_deadline_refusals,
                peak_resident_bytes=self.peak_resident_bytes,
                memory_budget=self.memory_budget,
                recoveries=self.recovered_models,
                wall_seconds=(
                    time.perf_counter_ns() - self._started_ns
                ) * 1e-9,
                trace=self._tracer.finalize(executor="ModelRegistry"),
            )
            return self._report


class RegistryService(FlightService):
    """Multi-tenant front door over a :class:`ModelRegistry`.

    ``submit`` never blocks on compiles it can refuse and never raises
    for per-request conditions — every admission outcome is a resolved
    future carrying a typed response (quota refusals, compile-deadline
    refusals, unknown models), exactly like the single-model service's
    exact-or-explicit contract.  Only :class:`ServiceClosed` (the whole
    front door draining) raises.

    One admission queue and ``registry.sessions`` workers serve every
    model: this is a :class:`~repro.serve.service.FlightService` (its
    single-flight coalescing, stale-or-shed overload answer, recovery
    ladder and quarantine) whose flights carry their model's pool, plus
    routing, tenant admission and model acquisition on the client
    thread — compiles run there, so compile-deadline refusals come at
    the door.

    Parameters
    ----------
    registry:
        The model registry; the service drives its compile/evict
        lifecycle and closes it on :meth:`drain`.
    scheduler:
        The per-tenant fair-admission scheduler; defaults to a
        :class:`TenantScheduler` sized to ``capacity``.  Its effective
        priorities order the shared queue.
    capacity:
        Fair-share capacity when building the default scheduler.
    default_model:
        Model used by requests with ``model_id=None``; when unset, a
        registry holding exactly one model routes there implicitly.
    max_queue:
        Admission bound over every model's queued flights together.
    """

    closed_message = "registry service is draining"

    def __init__(
        self,
        registry: ModelRegistry,
        scheduler: Optional[TenantScheduler] = None,
        capacity: int = 64,
        default_model: Optional[str] = None,
        max_queue: int = 32,
    ):
        self.registry = registry
        self.scheduler = scheduler or TenantScheduler(capacity=capacity)
        self.default_model = default_model
        super().__init__(registry.sessions, max_queue=max_queue)

    # ------------------------------------------------------------------ #
    # Admission + routing
    # ------------------------------------------------------------------ #

    def _refuse(
        self, ticket: Ticket, status: str, kind: str, error: str
    ) -> Future:
        refusal = self.respond(ticket, status, error=error, kind=kind)
        return self.admit(ticket, response=refusal)

    def submit(self, request: QueryRequest) -> Future:
        """Admit one request: routing, fairness, acquisition, the queue.

        The returned future resolves to the model's answer (with
        ``model_id``/``tenant`` stamped) or to a typed refusal.
        """
        self._check_open()
        model_id = request.model_id or self.default_model
        if model_id is None:
            models = self.registry.models()
            if len(models) == 1:
                model_id = models[0]
        ticket = self._ticket(request, model_id)
        if model_id is None or model_id not in self.registry:
            return self._refuse(
                ticket,
                STATUS_FAILED,
                "model-not-found",
                f"model {model_id!r} is not registered",
            )
        admitted, priority, share = self.scheduler.admit(
            ticket.tenant, request.priority
        )
        if not admitted:
            return self._refuse(
                ticket,
                STATUS_SHED,
                "quota",
                f"tenant {ticket.tenant or '(anon)'} is over its fair-share "
                f"admission quota ({share:.1f} slots)",
            )
        # The ticket now holds one of its tenant's slots, handed back by
        # _resolved.  Everything below raises only before admitting it.
        try:
            try:
                entry = self.registry.acquire(
                    model_id, deadline_at=ticket.deadline_at
                )
            except CompileDeadlineExceeded as exc:
                return self._refuse(
                    ticket, STATUS_DEADLINE, "compile-deadline", str(exc)
                )
            # entry.pool is None if an eviction won the race since
            # acquire returned: the worker re-acquires the model.
            return self._admit_query(ticket, entry.pool, priority)
        except BaseException:
            self.scheduler.release(ticket.tenant)
            raise

    def _resolved(self, ticket: Ticket, response: QueryResponse) -> None:
        """Count a quota refusal; hand back every other ticket's slot
        (all but quota and unknown-model refusals took one)."""
        if response.kind == "quota":
            self._bump("shed_by_quota")
        elif response.kind != "model-not-found":
            self.scheduler.release(ticket.tenant)

    def _serve_flight(self, flight) -> None:
        """Serve on the flight's pool.  If the model was evicted since
        admission, re-acquire it once under the flight's deadline: a stub
        rehydrates, but a worker never compiles — a cold model, or a
        second eviction, sheds the flight as ``model-evicted``."""
        for attempt in range(2):
            if flight.pool is not None:
                try:
                    return super()._serve_flight(flight)
                except ServiceClosed:
                    pass  # closed before a session was checked out
            members = self._close_flight(flight)
            try:
                if attempt:
                    raise ModelEvicted(
                        f"model {flight.model_id!r} was evicted again "
                        f"before its flight was served"
                    )
                flight.pool = self.registry.acquire(
                    flight.model_id,
                    deadline_at=self._flight_deadline(members),
                    compile=False,
                ).pool
            except CompileDeadlineExceeded as exc:
                return self.refuse(
                    members, STATUS_DEADLINE, str(exc), kind="compile-deadline"
                )
            except ModelEvicted as exc:
                return self.refuse(
                    members, STATUS_SHED, str(exc), kind="model-evicted"
                )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _build_report(self) -> ServiceReport:
        """Close the registry; its report plus every served request."""
        return self.registry.close().merge(super()._build_report())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegistryService(models={len(self.registry.models())}, "
            f"resident={len(self.registry.resident_models())}, "
            f"scheduler={self.scheduler!r})"
        )

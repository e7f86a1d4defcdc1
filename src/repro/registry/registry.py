"""The sharded multi-tenant model registry.

Two classes turn the single-model service into a multi-model platform:

* :class:`ModelRegistry` — owns the model lifecycle.  Models are
  *registered* cheaply (a network or a loader callable) and *compiled*
  on first use: the full bn → moralize → triangulate → reroot →
  calibrate pipeline, warm :class:`~repro.serve.EngineSessionPool`, and
  a per-model :class:`~repro.serve.InferenceService` in front of it.
  Residency is governed by a **global memory budget** (per-model cost
  from :attr:`PotentialTable.nbytes` totals across the pool plus the
  baseline checkpoint, via :func:`~repro.registry.model_cost_bytes`):
  compiling a model past the budget evicts least-recently-used cold
  models, draining their services (in-flight work finishes; nothing is
  lost) and closing their pools,
  while retaining a cheap *stub* — the rerooted tree plus the baseline
  integrity checkpoint — so the next miss **rehydrates** (restore per
  session) instead of recompiling.  Compilation is **single-flight** (N
  concurrent misses trigger one compile; followers wait) and
  **deadline-aware** (a compile that can't finish inside the requesting
  deadline refuses with the typed
  :class:`~repro.serve.request.CompileDeadlineExceeded` instead of
  blocking the queue).
* :class:`RegistryService` — the multi-tenant front door.  Routes
  :class:`~repro.serve.QueryRequest`s by ``model_id`` to the per-model
  service, after per-tenant weighted fair admission
  (:class:`~repro.registry.fairness.TenantScheduler`): tenants over
  their quota are refused with the typed
  :class:`~repro.serve.request.TenantQuotaExceeded`, and admitted
  requests carry an effective priority that sorts a saturating tenant's
  overflow behind lighter tenants in the existing per-model priority
  queue.  ``drain()`` closes the registry and returns one aggregated
  :class:`~repro.serve.ServiceReport` with per-model and per-tenant
  breakdowns plus the registry's cache economics (hits, misses,
  compiles, rehydrations, evictions, typed refusal counts, peak
  resident bytes).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
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
from repro.serve.core import Future, ServingCore, Ticket
from repro.serve.report import ServiceReport
from repro.serve.request import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_SHED,
    CompileDeadlineExceeded,
    ModelNotFound,
    QueryRequest,
    QueryResponse,
    ServiceClosed,
)
from repro.serve.service import InferenceService

# Entry lifecycle: cold --compile--> resident --evict--> stub
#                  stub --rehydrate--> resident; stub --pressure--> cold
_COLD = "cold"
_COMPILING = "compiling"
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
        self.pool = None
        self.service: Optional[InferenceService] = None
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
    max_queue, workers:
        Per-model :class:`InferenceService` admission knobs.
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
        max_queue: int = 32,
        workers: Optional[int] = None,
        durable_root: Optional[str] = None,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be >= 1 byte (or None)")
        self.memory_budget = memory_budget
        self.sessions = sessions
        self.cache_size = cache_size
        self.max_queue = max_queue
        self.workers = workers
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

        # Every per-model service this registry ever drained, merged.
        self._drained = ServiceReport()

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
        self, model_id: str, deadline_at: Optional[float] = None
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
        :class:`ServiceClosed` after :meth:`close`.
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
                if entry.state == _COMPILING:
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
                entry.state = _COMPILING
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
        entry.service = InferenceService(
            compiled.pool,
            workers=self.workers,
            max_queue=self.max_queue,
        )
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

        The per-model service drains first — queued and in-flight
        requests finish and are answered (or explicitly refused by their
        own deadlines); nothing is silently dropped — then the pool
        closes.  A request racing this eviction sees ``ServiceClosed``
        from ``submit`` and is retried by the front door against the
        rehydrated model.
        """
        t0_ns = time.perf_counter_ns()
        self._drained.merge(entry.service.drain())
        entry.pool.close()
        entry.service = None
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
        """Drain every resident model and return the aggregated report.

        Idempotent.  The report sums every per-model service this
        registry ever drained (evictions included) and carries the
        registry's own counters; latency percentiles are recomputed over
        the union of all served responses.
        """
        with self._lock:
            if self._report is not None:
                return self._report
            self._closed = True
            for entry in self._entries.values():
                if entry.state == _RESIDENT:
                    self._evict_locked(entry)
                    entry.evictions -= 1  # a close is not an eviction
                    self.evictions -= 1
                entry.cond.notify_all()
            self._report = self._build_report_locked()
            return self._report

    def _build_report_locked(self) -> ServiceReport:
        report = ServiceReport(
            model_hits=self.hits,
            model_misses=self.misses,
            compiles=self.compiles,
            rehydrations=self.rehydrations,
            evictions=self.evictions,
            compile_deadline_refusals=self.compile_deadline_refusals,
            peak_resident_bytes=self.peak_resident_bytes,
            memory_budget=self.memory_budget,
            recoveries=self.recovered_models,
            wall_seconds=(time.perf_counter_ns() - self._started_ns) * 1e-9,
            trace=self._tracer.finalize(executor="ModelRegistry"),
        )
        return report.merge(self._drained)


class RegistryService(ServingCore):
    """Multi-tenant front door over a :class:`ModelRegistry`.

    ``submit`` never blocks on compiles it can refuse and never raises
    for per-request conditions — every admission outcome is a resolved
    future carrying a typed response (quota refusals, compile-deadline
    refusals, unknown models), exactly like the single-model service's
    exact-or-explicit contract.  Only :class:`ServiceClosed` (the whole
    front door draining) raises.

    A :class:`~repro.serve.core.ServingCore` with no workers of its own:
    admitted requests are queued and served by the per-model services,
    while the refusals issued here resolve, count and report through the
    same ``finish`` / ``drain`` as theirs.

    Parameters
    ----------
    registry:
        The model registry; the service drives its compile/evict
        lifecycle and closes it on :meth:`drain`.
    scheduler:
        The per-tenant fair-admission scheduler; defaults to a
        :class:`TenantScheduler` sized to ``capacity``.
    capacity:
        Fair-share capacity when building the default scheduler.
    default_model:
        Model used by requests with ``model_id=None``; when unset, a
        registry holding exactly one model routes there implicitly.
    """

    closed_message = "registry service is draining"

    def __init__(
        self,
        registry: ModelRegistry,
        scheduler: Optional[TenantScheduler] = None,
        capacity: int = 64,
        default_model: Optional[str] = None,
    ):
        self.registry = registry
        self.scheduler = scheduler or TenantScheduler(capacity=capacity)
        self.default_model = default_model
        super().__init__(workers=0)

    # ------------------------------------------------------------------ #
    # Admission + routing
    # ------------------------------------------------------------------ #

    def place(self, ticket: Ticket, refusal: QueryResponse) -> QueryResponse:
        """Front-door tickets are never queued: they are the refusals."""
        if refusal.kind == "quota":
            self._bump("shed_by_quota")
        return refusal

    def _refuse(
        self,
        request: QueryRequest,
        model_id: Optional[str],
        status: str,
        kind: Optional[str],
        error: str,
    ) -> Future:
        ticket = self.ticket(
            request, None, tenant=request.tenant or "", model_id=model_id
        )
        refusal = QueryResponse(
            status=status,
            error=error,
            kind=kind,
            model_id=model_id,
            tenant=ticket.tenant,
        )
        return self.admit(ticket, refusal)

    def submit(self, request: QueryRequest) -> Future:
        """Admit one request: fairness, then routing, then forwarding.

        The returned future resolves to the per-model service's response
        (with ``model_id``/``tenant`` stamped) or to a typed refusal.
        """
        self._check_open()
        model_id = request.model_id or self.default_model
        if model_id is None:
            models = self.registry.models()
            if len(models) == 1:
                model_id = models[0]
        if model_id is None or model_id not in self.registry:
            return self._refuse(
                request,
                model_id,
                STATUS_FAILED,
                "model-not-found",
                f"model {model_id!r} is not registered",
            )

        tenant = request.tenant or ""
        admitted, effective_priority, share = self.scheduler.admit(
            tenant, request.priority
        )
        if not admitted:
            return self._refuse(
                request,
                model_id,
                STATUS_SHED,
                "quota",
                f"tenant {tenant or '(anon)'} is over its fair-share "
                f"admission quota ({share:.1f} slots)",
            )

        deadline_at = (
            time.monotonic() + request.deadline
            if request.deadline is not None
            else None
        )
        # The tenant's admission charge is released exactly once: by the
        # forwarded future's resolution, or below on every other path.
        refusal = (
            STATUS_FAILED,
            None,
            "model was evicted repeatedly while routing; giving up",
        )
        try:
            for _attempt in range(3):
                try:
                    entry = self.registry.acquire(
                        model_id, deadline_at=deadline_at
                    )
                except CompileDeadlineExceeded as exc:
                    refusal = (STATUS_DEADLINE, "compile-deadline", str(exc))
                    break
                remaining = None
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        refusal = (
                            STATUS_DEADLINE,
                            None,
                            "deadline passed while acquiring the model",
                        )
                        break
                forwarded = replace(
                    request,
                    model_id=model_id,
                    tenant=tenant,
                    priority=effective_priority,
                    deadline=remaining,
                )
                try:
                    future = entry.service.submit(forwarded)
                except ServiceClosed:
                    # The model was evicted between acquire and submit;
                    # re-acquire (rehydrate) and retry.
                    continue
                future.add_done_callback(
                    lambda _resp, t=tenant: self.scheduler.release(t)
                )
                return future
        except BaseException:
            self.scheduler.release(tenant)
            raise
        self.scheduler.release(tenant)
        return self._refuse(request, model_id, *refusal)

    def query(
        self,
        delta=None,
        vars=None,
        model_id: Optional[str] = None,
        tenant: str = "",
        deadline: Optional[float] = None,
        priority: int = 0,
        max_staleness: Optional[float] = None,
        timeout: Optional[float] = None,
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

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _build_report(self) -> ServiceReport:
        """Close the registry; its report plus this front door's refusals."""
        return self.registry.close().merge(super()._build_report())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegistryService(models={len(self.registry.models())}, "
            f"resident={len(self.registry.resident_models())}, "
            f"scheduler={self.scheduler!r})"
        )

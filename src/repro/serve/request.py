"""Request/response model of the concurrent inference service.

A :class:`QueryRequest` is one self-contained unit of client work: the
evidence set to condition on (expressed as a delta over *no* evidence, so
requests are independent and coalescable), the variables whose posteriors
the client wants, an end-to-end deadline, a priority, and — optionally —
how stale an answer the client will tolerate when the service is
overloaded.  A :class:`QueryResponse` is always returned, even for shed
or timed-out requests: the service's contract is *exact answer or
explicit refusal*, never silence and never a silently-wrong posterior.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.inference.evidence import Evidence


class ServiceError(RuntimeError):
    """Base class for inference-service refusals."""


class Overloaded(ServiceError):
    """The admission queue was full and no acceptable stale answer existed."""


class DeadlineExceeded(ServiceError):
    """The request's end-to-end deadline passed before an exact answer."""


class ServiceClosed(ServiceError):
    """The service is draining (or drained) and admits no new requests."""


class ModelNotFound(ServiceError):
    """The request named a ``model_id`` the registry has never seen."""


class CompileDeadlineExceeded(DeadlineExceeded):
    """The model's compile could not finish inside the request deadline.

    Raised (or carried as ``QueryResponse.kind == "compile-deadline"``) by
    :class:`~repro.registry.ModelRegistry` when a cold model's compile
    pipeline — moralize, triangulate, reroot, calibrate — is estimated or
    observed to overrun the request's budget.  The refusal is immediate;
    the request never blocks the admission queue behind a compile it
    cannot outlive.
    """


class TenantQuotaExceeded(Overloaded):
    """The tenant is over its fair-share admission quota.

    Other tenants' requests are unaffected: this refusal exists precisely
    so one hot tenant saturating the service cannot starve the rest.
    """


class ModelEvicted(Overloaded):
    """The model went cold (or was evicted twice) while the request
    queued; a serve worker never compiles, so it sheds the request."""


class StreamOverflow(Overloaded):
    """A stream's bounded tick queue was full; the tick was refused.

    Backpressure is per stream: a slow consumer overflows only its own
    queue, and the refusal is explicit — the tick's evidence is *not*
    applied, so the stream's served posteriors remain an exact filter
    over the ticks that were accepted.
    """


class StreamClosed(ServiceError):
    """The stream (or the streaming service) no longer accepts ticks."""


# Response statuses.  Everything except STATUS_OK / STATUS_STALE carries
# no marginals; STATUS_STALE carries *last-known* marginals whose age the
# client accepted up front via ``QueryRequest.max_staleness``.
STATUS_OK = "ok"
STATUS_STALE = "stale"
STATUS_SHED = "shed"
STATUS_DEADLINE = "deadline"
STATUS_FAILED = "failed"

_STATUS_ERRORS = {
    STATUS_SHED: Overloaded,
    STATUS_DEADLINE: DeadlineExceeded,
    STATUS_FAILED: ServiceError,
}

# Finer-grained refusal kinds (set by the registry and streaming layers)
# mapped to their typed exceptions; ``raise_for_status`` prefers these
# over the plain status mapping so callers can catch e.g.
# CompileDeadlineExceeded separately from an ordinary missed deadline.
_KIND_ERRORS = {
    "compile-deadline": CompileDeadlineExceeded,
    "quota": TenantQuotaExceeded,
    "model-not-found": ModelNotFound,
    "model-evicted": ModelEvicted,
    "stream-overflow": StreamOverflow,
    "stream-closed": StreamClosed,
}


@dataclass(frozen=True)
class QueryRequest:
    """One client query.

    Parameters
    ----------
    delta:
        Evidence to condition on, ``{variable: finding}`` where a finding
        is an ``int`` (hard state), a weight sequence (soft evidence) or
        ``None`` (explicitly unobserved — accepted for symmetry with
        :meth:`repro.inference.engine.InferenceEngine.query`).
    vars:
        Variables whose posterior marginals to return; ``None`` means
        every variable in the tree.
    deadline:
        End-to-end budget in *seconds from admission*; enforced while
        queued and cooperatively inside executors, so a request never
        silently overstays.  ``None`` means unbounded.
    priority:
        Lower runs first among queued requests (0 is the default tier);
        an ``int``.
    max_staleness:
        When the admission queue is full, accept a cached last-known
        answer at most this many seconds old instead of being shed;
        ``None`` (default) means never accept a stale answer.
    model_id:
        Which registered model answers this request.  ``None`` (default)
        targets the single-model :class:`~repro.serve.InferenceService`
        directly, or the registry's default model when routed through a
        :class:`~repro.registry.RegistryService`.
    tenant:
        Accounting/fairness identity of the caller.  Per-tenant response
        counts land in :attr:`~repro.serve.report.ServiceReport.per_tenant`,
        and the registry's fair scheduler budgets admission by tenant.
        The empty string (default) is the anonymous shared tenant.

    ``deadline`` and ``max_staleness`` must be ``None`` or finite and
    >= 0; any other value of them or of ``priority`` raises
    ``ValueError`` here, before a service counts or queues anything.  A
    request is frozen, so what was checked is what every service reads.
    """

    delta: Mapping[int, object] = field(default_factory=dict)
    vars: Optional[Sequence[int]] = None
    deadline: Optional[float] = None
    priority: int = 0
    max_staleness: Optional[float] = None
    model_id: Optional[str] = None
    tenant: str = ""

    def __post_init__(self):
        priority = self.priority
        if isinstance(priority, bool) or not isinstance(
            priority, numbers.Integral
        ):
            raise ValueError(f"priority must be an int, got {priority!r}")
        for name in ("deadline", "max_staleness"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, numbers.Real)
                and math.isfinite(value)
                and value >= 0
            ):
                raise ValueError(
                    f"{name} must be None or finite seconds >= 0, "
                    f"got {value!r}"
                )

    def evidence(self) -> Evidence:
        """Materialize the delta as a fresh :class:`Evidence` set."""
        ev = Evidence()
        for var, finding in (self.delta or {}).items():
            if finding is None:
                continue  # retract over empty evidence is a no-op
            if isinstance(finding, (int, np.integer)):
                ev.observe(int(var), int(finding))
            else:
                ev.observe_soft(int(var), finding)
        return ev

    def signature(self) -> Tuple:
        """Canonical fingerprint of the conditioning — the coalescing key."""
        return self.evidence().signature()


class _TypedRefusal:
    """``raise_for_status`` for both response types, written once."""

    def raise_for_status(self):
        """Raise the matching :class:`ServiceError` unless :attr:`ok`.

        Refusals stamped with a :attr:`kind` raise their finer-typed
        exception (:class:`CompileDeadlineExceeded`,
        :class:`TenantQuotaExceeded`, :class:`ModelNotFound`,
        :class:`StreamOverflow`, :class:`StreamClosed`); everything else
        falls back to the status-level mapping.
        """
        exc = _KIND_ERRORS.get(self.kind) or _STATUS_ERRORS.get(self.status)
        if exc is not None and not self.ok:
            raise exc(self.error or self.status)
        return self


@dataclass
class QueryResponse(_TypedRefusal):
    """The service's answer to one :class:`QueryRequest`.

    ``marginals`` is exact (matches a fresh serial propagation to within
    float noise) when ``status == "ok"``, and a dated last-known answer
    when ``status == "stale"`` (``stale_age`` says how dated).  All other
    statuses are explicit refusals with empty marginals and ``error`` set.
    """

    status: str
    marginals: Dict[int, np.ndarray] = field(default_factory=dict)
    latency: float = 0.0
    executor: str = ""
    coalesced: bool = False
    stale_age: Optional[float] = None
    error: Optional[str] = None
    # Finer refusal kind ("compile-deadline", "quota", "model-not-found",
    # "model-evicted") set by the registry layer; None for plain service
    # responses.
    kind: Optional[str] = None
    # Which model/tenant the response belongs to (stamped by the registry
    # router; empty for direct single-model service use).
    model_id: Optional[str] = None
    tenant: str = ""

    @property
    def ok(self) -> bool:
        """True when the response carries usable marginals (exact or stale)."""
        return self.status in (STATUS_OK, STATUS_STALE)


@dataclass
class TickResponse(_TypedRefusal):
    """The streaming service's answer to one pushed tick.

    ``marginals`` maps *slice-template* variable ids to their posterior
    at the tick's time when ``status == "ok"``; refusals carry no
    marginals, and their evidence was not applied to the stream.
    """

    stream: str
    status: str
    t: int = -1  # absolute tick time; -1 for refusals (time not advanced)
    marginals: Dict[int, np.ndarray] = field(default_factory=dict)
    latency: float = 0.0
    rolled: bool = False
    incremental: bool = False
    error: Optional[str] = None
    kind: Optional[str] = None  # "stream-overflow" | "stream-closed" | None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

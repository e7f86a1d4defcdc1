"""repro.serve — the concurrent inference service layer.

Everything below the service (engines, executors, the junction tree) is a
library a single caller drives to completion; this package is the layer
that makes it *operable* under many concurrent callers: an
:class:`InferenceService` owning a pool of calibrated engine sessions
(:class:`EngineSessionPool`), with bounded admission, request coalescing,
end-to-end deadlines, a :class:`CircuitBreaker` around the process tier,
stale-tolerant load shedding and a graceful ``drain()`` returning a
:class:`ServiceReport`.  The admission → workers → resolve-exactly-once
→ drain → report lifecycle is written once, in
:class:`repro.serve.core.ServingCore`; :class:`InferenceService`,
:class:`StreamingService` and :class:`~repro.registry.RegistryService`
subclass it and supply only their decisions.  See ``docs/serving.md``.
"""

from repro.serve.breaker import BreakerTransition, CircuitBreaker
from repro.serve.report import ServiceReport
from repro.serve.request import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_STALE,
    CompileDeadlineExceeded,
    DeadlineExceeded,
    ModelEvicted,
    ModelNotFound,
    Overloaded,
    QueryRequest,
    QueryResponse,
    ServiceClosed,
    ServiceError,
    StreamClosed,
    StreamOverflow,
    TenantQuotaExceeded,
    TickResponse,
)
from repro.serve.service import EngineSessionPool, InferenceService
from repro.serve.streaming import StreamHandle, StreamingService

__all__ = [
    "CompileDeadlineExceeded",
    "ModelEvicted",
    "ModelNotFound",
    "TenantQuotaExceeded",
    "BreakerTransition",
    "CircuitBreaker",
    "ServiceReport",
    "STATUS_DEADLINE",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_STALE",
    "DeadlineExceeded",
    "Overloaded",
    "QueryRequest",
    "QueryResponse",
    "ServiceClosed",
    "ServiceError",
    "EngineSessionPool",
    "InferenceService",
    "StreamClosed",
    "StreamOverflow",
    "StreamHandle",
    "StreamingService",
    "TickResponse",
]

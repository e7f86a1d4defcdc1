"""repro.registry — the sharded multi-tenant model registry.

The serve layer (:mod:`repro.serve`) operates *one* compiled model under
many concurrent callers; this package operates *many* models under many
tenants on one machine.  A :class:`ModelRegistry` compiles Bayesian
networks on demand (the full bn → moralize → triangulate → reroot →
calibrate → checkpoint pipeline, single-flight and deadline-aware),
keeps compiled pools resident under a global memory budget with LRU
eviction (evicted models retain a cheap stub — rerooted tree plus
baseline checkpoint — so the next miss *rehydrates* instead of
recompiling), and a :class:`RegistryService` routes requests by
``model_id`` with per-tenant weighted fair admission
(:class:`TenantScheduler`).  Every refusal is typed:
:class:`TenantQuotaExceeded`, :class:`CompileDeadlineExceeded`,
:class:`ModelNotFound`, :class:`ModelEvicted`.  See ``docs/registry.md``.
"""

from repro.registry.compiler import (
    CompiledModel,
    compile_model,
    model_cost_bytes,
    rehydrate_model,
    stub_cost_bytes,
)
from repro.registry.fairness import TenantScheduler, TenantState
from repro.registry.registry import ModelRegistry, RegistryService
from repro.serve.request import (
    CompileDeadlineExceeded,
    ModelEvicted,
    ModelNotFound,
    TenantQuotaExceeded,
)

__all__ = [
    "CompiledModel",
    "compile_model",
    "model_cost_bytes",
    "rehydrate_model",
    "stub_cost_bytes",
    "TenantScheduler",
    "TenantState",
    "ModelRegistry",
    "RegistryService",
    "CompileDeadlineExceeded",
    "ModelEvicted",
    "ModelNotFound",
    "TenantQuotaExceeded",
]

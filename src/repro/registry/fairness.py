"""Per-tenant weighted fair admission for the multi-model service.

The registry's one serving queue is a bounded *priority* queue; what it
cannot see is *who* is submitting.  One
hot tenant burst-submitting at priority 0 fills every queue slot and
starves everyone else — explicitly the failure mode the ROADMAP's
"millions of users" north star forbids.

:class:`TenantScheduler` closes that hole at the registry's front door
with two mechanisms layered over the existing priority queue:

* **Quota** — each tenant may hold at most ``ceil(burst_factor x
  fair_share)`` requests in flight, where ``fair_share = capacity x
  weight / sum(active weights)``.  Requests beyond the quota are refused
  with the typed :class:`~repro.serve.request.TenantQuotaExceeded`
  (status ``shed``, kind ``"quota"``).  The fair share is computed over
  *active* tenants only, so the scheduler is work-conserving: a lone
  tenant may use the whole capacity, and its share shrinks only when
  others actually show up.  The quota never drops below 1, so a tenant
  that submits serially (one request at a time) is **never** refused for
  quota — the no-starvation guarantee the Hypothesis property test pins.
* **Priority penalty** — admitted requests are queued at an
  *effective* priority of ``base x levels + penalty`` where the penalty
  grows stepwise as the tenant's in-flight count climbs past multiples
  of its fair share (capped at ``levels - 1``).  Base-priority bands are
  preserved exactly (the multiplication), but *within* a band a
  saturating tenant's overflow sorts behind lighter tenants' requests in
  the shared priority queue — weighted fair scheduling without a
  separate dispatcher thread.

Accounting (admit/refuse/release/peak per tenant) feeds the
``per_tenant`` breakdown of the drained report.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class TenantState:
    """Live accounting for one tenant."""

    weight: float = 1.0
    inflight: int = 0
    admitted: int = 0
    refused: int = 0
    peak_inflight: int = 0


class TenantScheduler:
    """Weighted fair admission: quotas plus priority penalties.

    Parameters
    ----------
    capacity:
        Total in-flight requests the service is sized for (roughly its
        admission queue bound).  Fair shares are slices of this.
    default_weight:
        Weight assigned to tenants never seen by :meth:`set_weight`.
    burst_factor:
        Quota headroom over the fair share (>= 1.0).  2.0 means a tenant
        may burst to twice its instantaneous fair share before being
        refused.
    priority_levels:
        Penalty steps available within one base-priority band; effective
        priority is ``base * priority_levels + penalty``.
    """

    def __init__(
        self,
        capacity: int = 64,
        default_weight: float = 1.0,
        burst_factor: float = 2.0,
        priority_levels: int = 4,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if default_weight <= 0:
            raise ValueError("default_weight must be > 0")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1.0")
        if priority_levels < 2:
            raise ValueError("priority_levels must be >= 2")
        self.capacity = capacity
        self.default_weight = default_weight
        self.burst_factor = burst_factor
        self.priority_levels = priority_levels
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}

    # ------------------------------------------------------------------ #
    # Configuration / introspection
    # ------------------------------------------------------------------ #

    def set_weight(self, tenant: str, weight: float) -> None:
        """Assign a tenant's fair-share weight (must be > 0)."""
        if weight <= 0:
            raise ValueError("tenant weight must be > 0")
        with self._lock:
            self._state(tenant).weight = weight

    def _state(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = TenantState(
                weight=self.default_weight
            )
        return state

    def _fair_share_locked(self, tenant: str) -> float:
        """Capacity slice for ``tenant`` over currently *active* weights."""
        state = self._state(tenant)
        active = sum(
            s.weight
            for name, s in self._tenants.items()
            if s.inflight > 0 or name == tenant
        )
        return self.capacity * state.weight / max(active, state.weight)

    def fair_share(self, tenant: str) -> float:
        with self._lock:
            return self._fair_share_locked(tenant)

    def quota(self, tenant: str) -> int:
        """Current hard admission cap for ``tenant`` (never below 1)."""
        with self._lock:
            share = self._fair_share_locked(tenant)
            return max(1, math.ceil(self.burst_factor * share))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant accounting for reports and debugging."""
        with self._lock:
            return {
                tenant: {
                    "weight": s.weight,
                    "inflight": s.inflight,
                    "admitted": s.admitted,
                    "refused": s.refused,
                    "peak_inflight": s.peak_inflight,
                }
                for tenant, s in self._tenants.items()
            }

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def admit(
        self, tenant: str, base_priority: int = 0
    ) -> Tuple[bool, int, float]:
        """Try to admit one request for ``tenant``.

        Returns ``(admitted, effective_priority, fair_share)``.  On
        refusal (tenant at quota) nothing is charged and
        ``effective_priority`` echoes the base.  On admission the
        tenant's in-flight count is charged; the caller **must** pair it
        with exactly one :meth:`release`, normally when the request's
        response resolves.
        """
        with self._lock:
            state = self._state(tenant)
            share = self._fair_share_locked(tenant)
            quota = max(1, math.ceil(self.burst_factor * share))
            if state.inflight >= quota:
                state.refused += 1
                return False, base_priority, share
            # Penalty: how many fair shares deep this tenant already is.
            penalty = min(
                self.priority_levels - 1,
                int(state.inflight // max(share, 1e-9)),
            )
            state.inflight += 1
            state.admitted += 1
            state.peak_inflight = max(state.peak_inflight, state.inflight)
            effective = base_priority * self.priority_levels + penalty
            return True, effective, share

    def release(self, tenant: str) -> None:
        """Return one in-flight charge for ``tenant`` (idempotence is the
        caller's job — pair each admit with exactly one release)."""
        with self._lock:
            state = self._state(tenant)
            state.inflight = max(0, state.inflight - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            active = sum(1 for s in self._tenants.values() if s.inflight)
        return (
            f"TenantScheduler(capacity={self.capacity}, "
            f"tenants={len(self._tenants)}, active={active})"
        )

"""The drain-time accounting record of one service lifetime.

Every ``drain()`` in the serving stack — :class:`~repro.serve.service.
InferenceService`, :class:`~repro.serve.streaming.StreamingService`,
:class:`~repro.registry.RegistryService` — returns a
:class:`ServiceReport` built by :class:`~repro.serve.core.ServingCore`
from its counters: every admission decision, every tier that served,
every breaker transition, and latency percentiles over the responses
``finish`` recorded as served — the numbers an operator needs to answer
"did the service refuse work, and what did the work it accepted cost?".
Reports of several parts (a registry service and its registry) combine
with :meth:`ServiceReport.merge`, which walks the dataclass fields, so a
counter added here is aggregated without a second list to keep in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.obs.metrics import latency_percentiles
from repro.serve.breaker import BreakerTransition

# Per-field exceptions to merge's defaults (ints add, dicts of counts
# add, lists extend) and to_dict's (every field is emitted).
_MAX = {"merge": "max"}
_KEEP = {"merge": "keep"}  # ours unless unset


def _add_counts(mine: Dict, theirs: Dict) -> Dict:
    """Add ``theirs`` into ``mine``: ``{k: n}`` or ``{name: {k: n}}``."""
    for key, value in theirs.items():
        if isinstance(value, dict):
            _add_counts(mine.setdefault(key, {}), value)
        else:
            mine[key] = mine.get(key, 0) + value
    return mine


def _breakdown(title: str, table: Dict[str, Dict[str, int]]) -> List[str]:
    """``format()`` lines for one ``{name: {status: n}}`` table."""
    if not table:
        return []
    lines = [title]
    for name in sorted(table):
        counts = table[name]
        per = ", ".join(f"{status} {counts[status]}" for status in sorted(counts))
        lines.append(f"  {name or '(anon)':<16s} {per}")
    return lines


@dataclass
class ServiceReport:
    """Everything one drained service (or a merged group of them) did.

    ``served_ok`` counts every exact response (coalesced followers
    included; ``coalesced`` says how many of them rode another request's
    propagation).  ``latency`` holds nearest-rank percentiles (seconds)
    over ``served_latencies``: the latencies of the most recent N served
    responses, N = :data:`repro.serve.core.RETAINED` (up to 2N are kept),
    as are the response spans in ``trace``; the counters cover every
    response.
    """

    submitted: int = 0
    served_ok: int = 0
    served_stale: int = 0
    coalesced: int = 0
    shed: int = 0
    # Overloaded requests that found a young-enough stale entry computed
    # under a *different* conditioning: refused (counted inside ``shed``)
    # rather than served another evidence signature's marginals.
    stale_signature_miss: int = 0
    deadline_missed: int = 0
    failed: int = 0
    breaker_short_circuits: int = 0
    # Streaming accounting (zero/empty for a plain request service):
    # subscribed streams, evidence ticks served/refused, window rolls
    # paid, and per-stream status breakdowns filled at drain.
    streams: int = 0
    ticks_ok: int = 0
    ticks_overflowed: int = 0
    ticks_deadline: int = 0
    ticks_failed: int = 0
    window_rolls: int = 0
    per_stream: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Durability accounting (zero without a durable root): journal
    # records replayed into rebuilt sessions at recovery, unacked ticks
    # recovery could not re-apply (dropped with a durable ack), and how
    # many recovery passes ran (construction-time for the streaming
    # service, per adopted model for the registry).
    replayed_ticks: int = 0
    dropped_unacked: int = 0
    recoveries: int = 0
    # Flights answered (from the cache or by a propagation), and how many
    # were quarantined for a likelihood that is not > 0 (their requests
    # got explicit failures).
    single_flights: int = 0
    quarantined: int = 0
    # Per-tenant / per-model response-status breakdowns, e.g.
    # {"tenant-a": {"ok": 10, "shed": 2}}.  Filled by the service from
    # request stamps.
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)
    per_model: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Registry-level accounting (zero/empty for a plain single-model
    # service): cache economics of the model registry and the typed
    # refusals its admission layer issued.
    model_hits: int = 0
    model_misses: int = 0
    compiles: int = 0
    rehydrations: int = 0
    evictions: int = 0
    shed_by_quota: int = 0
    compile_deadline_refusals: int = 0
    peak_resident_bytes: int = field(default=0, metadata=_MAX)
    memory_budget: Optional[int] = field(default=None, metadata=_KEEP)
    tier_counts: Dict[str, int] = field(default_factory=dict)
    breaker_transitions: List[BreakerTransition] = field(default_factory=list)
    latency: Dict[str, float] = field(
        default_factory=dict, metadata={"merge": "recompute"}
    )
    wall_seconds: float = field(default=0.0, metadata=_MAX)
    queue_high_water: int = field(default=0, metadata=_MAX)
    # Not emitted by to_dict: the latencies of the most recent served
    # responses (what ``latency`` is computed from, kept so merged reports
    # can recompute it) and the PropagationTrace of the service's spans.
    served_latencies: List[float] = field(
        default_factory=list, repr=False, metadata={"emit": False}
    )
    trace: Optional[object] = field(
        default=None, metadata={"merge": "keep", "emit": False}
    )

    @property
    def served(self) -> int:
        """Responses that carried marginals (exact or stale)."""
        return self.served_ok + self.served_stale

    @property
    def refused(self) -> int:
        """Explicit refusals: shed, deadline-missed, or all-tiers-failed."""
        return self.shed + self.deadline_missed + self.failed

    @property
    def shed_rate(self) -> float:
        """Refusals as a fraction of everything submitted."""
        return self.refused / self.submitted if self.submitted else 0.0

    def merge(self, other: "ServiceReport") -> "ServiceReport":
        """Fold ``other`` into this report, field by field; returns self.

        Ints add, ``{status: n}`` and ``{name: {status: n}}`` dicts add,
        lists extend; high-water marks and wall time take the max, the
        memory budget and the trace stay ours unless unset, and the
        latency percentiles are recomputed over both sides' served
        latencies.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            rule = f.metadata.get("merge")
            if rule == "recompute":
                continue
            if rule == "max":
                merged = max(mine, theirs)
            elif rule == "keep":
                merged = mine if mine is not None else theirs
            elif isinstance(mine, dict):
                merged = _add_counts(mine, theirs)
            else:
                merged = mine + theirs
            setattr(self, f.name, merged)
        self.latency = latency_percentiles(self.served_latencies)
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (benchmark emission); the trace is omitted."""
        out: Dict[str, object] = {}
        for f in fields(self):
            if not f.metadata.get("emit", True):
                continue
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {
                    k: dict(v) if isinstance(v, dict) else v
                    for k, v in value.items()
                }
            elif isinstance(value, list):
                value = [str(item) for item in value]
            out[f.name] = value
        out["shed_rate"] = self.shed_rate
        return out

    def format(self) -> str:
        """Multi-line human rendering (``repro serve-demo`` prints this)."""
        lines = [
            f"submitted          {self.submitted:8d}"
            f"   over {self.wall_seconds:.2f} s wall",
            f"served exact       {self.served_ok:8d}"
            f"   ({self.coalesced} coalesced)",
            f"served stale       {self.served_stale:8d}",
            f"shed (overload)    {self.shed:8d}"
            + (
                f"   ({self.stale_signature_miss} stale-signature misses)"
                if self.stale_signature_miss
                else ""
            ),
            f"deadline missed    {self.deadline_missed:8d}",
            f"failed             {self.failed:8d}",
            f"shed rate          {self.shed_rate:8.1%}",
            f"queue high water   {self.queue_high_water:8d}",
        ]
        if self.quarantined:
            lines.append(f"quarantined        {self.quarantined:8d}")
        if self.model_misses or self.model_hits or self.evictions:
            lines.append(
                f"registry           {self.model_hits} hits, "
                f"{self.model_misses} misses ({self.compiles} compiles, "
                f"{self.rehydrations} rehydrations), "
                f"{self.evictions} evictions"
            )
            budget = (
                f" of {self.memory_budget / 1e6:g} MB budget"
                if self.memory_budget
                else ""
            )
            lines.append(
                f"peak resident      {self.peak_resident_bytes / 1e6:8.3g} MB"
                f"{budget}"
            )
        if self.streams:
            lines.append(
                f"streams            {self.streams:8d}"
                f"   ({self.ticks_ok} ticks ok,"
                f" {self.ticks_overflowed} overflowed,"
                f" {self.ticks_deadline} deadline,"
                f" {self.ticks_failed} failed,"
                f" {self.window_rolls} window rolls)"
            )
        if self.recoveries or self.replayed_ticks or self.dropped_unacked:
            lines.append(
                f"recovered          {self.replayed_ticks:8d}"
                f"   ticks replayed in {self.recoveries} recoveries"
                f" ({self.dropped_unacked} unacked dropped)"
            )
        lines += _breakdown("per-stream:", self.per_stream)
        if self.shed_by_quota or self.compile_deadline_refusals:
            lines.append(
                f"typed refusals     {self.shed_by_quota:8d}"
                f"   quota, {self.compile_deadline_refusals} compile-deadline"
            )
        lines += _breakdown("per-model:", self.per_model)
        if len(self.per_tenant) > 1 or "" not in self.per_tenant:
            lines += _breakdown("per-tenant:", self.per_tenant)
        if self.latency:
            per = "  ".join(
                f"{name} {value * 1e3:.2f} ms"
                for name, value in sorted(self.latency.items())
            )
            lines.append(f"latency            {per}")
        if self.tier_counts:
            per = ", ".join(
                f"{name} {count}"
                for name, count in sorted(self.tier_counts.items())
            )
            lines.append(f"served by          {per}")
        if self.breaker_short_circuits:
            lines.append(
                f"breaker skips      {self.breaker_short_circuits:8d}"
            )
        if self.breaker_transitions:
            lines.append("breaker history:")
            for t in self.breaker_transitions:
                lines.append(f"  t={t.at:9.3f}  {t}")
        return "\n".join(lines)

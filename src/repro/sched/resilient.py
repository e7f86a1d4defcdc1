"""Degradation-cascade executor wrapper: finish the run, record why.

:class:`ResilientExecutor` wraps any executor with three layers of
last-resort robustness that the executor itself cannot provide:

* **Degradation cascade** — if a tier raises (crashed pool past its
  restart budget, exhausted retries, anything), the propagation state is
  rolled back to its pre-run snapshot and the next tier runs instead.
  The default cascade mirrors the deployment ladder: shared-memory
  processes → collaborative threads → serial, each strictly simpler and
  more reliable than the one before.
* **Numerical health guard** — after every successful tier the clique
  tables are scanned for NaN/Inf (:func:`repro.sched.faults.scan_tables`).
  Poisoned results degrade to the next tier exactly like a crash, so a
  corrupted shared buffer cannot leak into posteriors.
* **Log-space rescue** — a run whose tables fully underflowed (every
  entry exactly zero) is re-run in the log domain via
  :mod:`repro.potential.logspace`; clique potentials are replaced by
  their stably-normalized linear forms and the true log-likelihood is
  recorded in ``stats.log_likelihood`` (the linear ``state.likelihood()``
  is meaningless after underflow).

Every step taken is recorded as a :class:`DegradationRecord` in
``stats.degradations``, so an operator can see that a run *finished* but
also exactly what it cost to finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.sched.faults import HealthReport, check_state_health
from repro.sched.stats import ExecutionStats
from repro.tasks.state import PropagationState
from repro.tasks.task import TaskGraph


@dataclass
class DegradationRecord:
    """One step down the cascade (or a log-space rescue) and its cause."""

    from_executor: str
    to_executor: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.from_executor} -> {self.to_executor}: {self.reason}"


def _executor_name(executor) -> str:
    return type(executor).__name__


def run_executor(executor, graph, state, tracer=None, deadline=None):
    """``executor.run(graph, state)``, forwarding ``tracer`` / ``deadline``
    only if that ``run`` accepts them.

    Third-party executors with a bare ``run(self, graph, state)`` keep
    working inside a traced, deadline-bounded engine call or cascade —
    just untraced and unbounded.
    """
    if tracer is None and deadline is None:
        return executor.run(graph, state)
    import inspect

    try:
        params = inspect.signature(executor.run).parameters
    except (TypeError, ValueError):
        params = {}
    kwargs = {}
    if tracer is not None and "tracer" in params:
        kwargs["tracer"] = tracer
    if deadline is not None and "deadline" in params:
        kwargs["deadline"] = deadline
    return executor.run(graph, state, **kwargs)


def default_cascade(primary) -> List[object]:
    """Fallback tiers below ``primary``: processes → threads → serial.

    The thread tier reuses the primary's worker count and partition
    threshold where it exposes them, so a degraded run still balances
    load the same way — it only gives up on escaping the GIL.
    """
    from repro.sched import CollaborativeExecutor
    from repro.sched.process import ProcessSharedMemoryExecutor
    from repro.sched.serial import SerialExecutor

    if isinstance(primary, SerialExecutor):
        return []
    if isinstance(primary, ProcessSharedMemoryExecutor):
        threads = CollaborativeExecutor(
            num_threads=primary.num_workers,
            partition_threshold=primary.partition_threshold,
            max_chunks=primary.max_chunks,
        )
        return [threads, SerialExecutor()]
    return [SerialExecutor()]


class ResilientExecutor:
    """Run a task graph through a cascade of ever-simpler executors.

    Parameters
    ----------
    executor:
        The primary (fastest, least reliable) tier; defaults to a
        :class:`~repro.sched.serial.SerialExecutor` — wrap your real
        executor to get the safety layers.
    fallbacks:
        Tiers tried in order after the primary; defaults to
        :func:`default_cascade` of the primary.
    health_check:
        Scan clique tables for NaN/Inf after each tier and treat a
        poisoned result as that tier's failure.
    logspace_fallback:
        Re-run a fully-underflowed propagation in the log domain
        (hard-evidence runs only; soft evidence is recorded and skipped).
    """

    def __init__(
        self,
        executor=None,
        fallbacks: Optional[Sequence] = None,
        health_check: bool = True,
        logspace_fallback: bool = True,
    ):
        from repro.sched.serial import SerialExecutor

        self.executor = executor if executor is not None else SerialExecutor()
        self.fallbacks = (
            list(fallbacks) if fallbacks is not None
            else default_cascade(self.executor)
        )
        self.health_check = health_check
        self.logspace_fallback = logspace_fallback

    def run(
        self,
        graph: TaskGraph,
        state: PropagationState,
        tracer=None,
        deadline: Optional[float] = None,
    ) -> ExecutionStats:
        """Run the cascade; ``deadline`` (absolute ``time.monotonic()``)
        is forwarded to every tier that supports cooperative checks.  A
        deadline overrun is *not* a degradation trigger: a slower tier
        cannot beat the clock the faster one already missed, so the
        ``phase="deadline"`` error re-raises immediately."""
        tiers = [self.executor] + self.fallbacks
        # Tiers mutate the state in place; every tier runs the same graph,
        # so rolling back is restoring the bytes of its one table buffer.
        snapshot = state.buffer.copy()
        records: List[DegradationRecord] = []
        last_exc: Optional[BaseException] = None
        stats: Optional[ExecutionStats] = None
        report: Optional[HealthReport] = None

        def mark_degradation(record: DegradationRecord) -> None:
            records.append(record)
            if tracer is not None:
                from repro.obs.span import CONTROL_ROW

                tracer.name_row(CONTROL_ROW, "control")
                tracer.buffer(CONTROL_ROW).instant(
                    f"degrade:{record.from_executor}->{record.to_executor}",
                    "fault",
                )

        for i, tier in enumerate(tiers):
            name = _executor_name(tier)
            next_name = (
                _executor_name(tiers[i + 1]) if i + 1 < len(tiers) else "none"
            )
            if i > 0:
                np.copyto(state.buffer, snapshot)
            try:
                stats = run_executor(tier, graph, state, tracer, deadline)
            except Exception as exc:
                from repro.sched.faults import TaskExecutionError

                if (
                    isinstance(exc, TaskExecutionError)
                    and exc.phase == "deadline"
                ):
                    raise
                last_exc = exc
                mark_degradation(DegradationRecord(
                    name, next_name, f"{type(exc).__name__}: {exc}"))
                stats = None
                continue
            if self.health_check:
                report = check_state_health(state)
                if not report.healthy:
                    mark_degradation(DegradationRecord(
                        name, next_name, f"unhealthy result: {report.summary()}"
                    ))
                    stats = None
                    continue
            break

        if stats is None:
            detail = "; ".join(str(r) for r in records)
            raise RuntimeError(
                f"every executor tier failed: {detail}"
            ) from last_exc

        # Record which tier actually finished: after a degradation the
        # requested executor's name/threshold would mislabel the run.
        stats.completed_executor = _executor_name(tier)
        stats.completed_partition_threshold = getattr(
            tier, "partition_threshold", None
        )

        if report is not None:
            stats.health = report.summary()
            if report.underflowed and self.logspace_fallback:
                rescued = self._rescue_logspace(state, stats, records)
                if rescued:
                    stats.health = check_state_health(state).summary()
        stats.degradations.extend(records)
        return stats

    # ------------------------------------------------------------------ #

    def _rescue_logspace(
        self,
        state: PropagationState,
        stats: ExecutionStats,
        records: List[DegradationRecord],
    ) -> bool:
        """Re-run an underflowed propagation in the log domain.

        Overwrites each clique potential with its stably-normalized linear
        form (so per-clique and per-variable marginals read off exactly
        as usual) and records the evidence log-likelihood in
        ``stats.log_likelihood``.  Returns True when the rescue ran.
        """
        from repro.potential.logspace import propagate_reference_log
        from repro.potential.table import PotentialTable

        if state.soft_evidence:
            records.append(DegradationRecord(
                "logspace", "none",
                "underflow detected but log-space rescue does not support "
                "soft evidence",
            ))
            return False
        if getattr(state, "batch", None) is not None:
            records.append(DegradationRecord(
                "logspace", "none",
                "underflow detected but log-space rescue does not support "
                "batched states",
            ))
            return False
        log_pots = propagate_reference_log(state.jt, state.evidence)
        for i, log_table in log_pots.items():
            table = state.potentials[i]
            table.values[...] = PotentialTable(
                log_table.variables,
                log_table.cardinalities,
                log_table.normalized_linear(),
            ).aligned_to(table.variables).values
        # The separators and stored messages are the underflowed run's
        # zeros; they do not belong to the rescued potentials, so they must
        # not seed an incremental repropagation.
        state._inter.clear()
        stats.log_likelihood = log_pots[state.jt.root].log_total()
        records.append(DegradationRecord(
            "linear", "logspace",
            "clique tables underflowed; re-ran propagation in log domain",
        ))
        return True

"""The recovery ladder: finish the run on ever-simpler executors, record why.

Every schedule of the task DAG leaves the same potentials as the serial
run, so the one sound recovery from a failed or poisoned run is: roll the
state back, re-run on a simpler executor, and end at serial.
:class:`ResilientExecutor` is that ladder — behind
``engine.propagate(resilience=True)`` and behind every propagation
:class:`~repro.serve.service.InferenceService` serves:

* **Rollback and step down** — if a tier raises (a killed worker, a task
  that raised, a torn write, anything), the state's buffer and its set
  of written intermediates are restored to their pre-run snapshot and
  the next tier runs.  No tier retries or restarts anything itself: this
  is the only place a failed run is re-run.  The ladder is
  ``[executor, *fallbacks, SerialExecutor()]`` (no second serial tier
  when the last one already is serial).
* **Numerical health guard** — after every completed tier the clique
  tables are scanned for NaN/Inf (:func:`repro.sched.faults.scan_tables`).
  A poisoned result is rolled back and steps down exactly like a crash,
  so a corrupted shared buffer cannot leak into posteriors.
* **Log-space rescue** — a run whose tables fully underflowed (every
  entry exactly zero) is re-run in the log domain via
  :mod:`repro.potential.logspace`; clique potentials are replaced by
  their stably-normalized linear forms and the true log-likelihood is
  recorded in ``stats.log_likelihood`` (the linear ``state.likelihood()``
  is meaningless after underflow).  Evidence of probability zero has no
  posterior to rescue: its zero tables stay, and a degradation says so.

Every step taken is recorded as a :class:`DegradationRecord` in
``stats.degradations``, so an operator can see that a run *finished* but
also exactly what it cost to finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.sched.faults import TaskExecutionError, check_state_health
from repro.sched.serial import SerialExecutor
from repro.sched.stats import ExecutionStats
from repro.tasks.state import PropagationState
from repro.tasks.task import TaskGraph


@dataclass
class DegradationRecord:
    """One step down the ladder (or a log-space rescue) and its cause."""

    from_executor: str
    to_executor: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.from_executor} -> {self.to_executor}: {self.reason}"


def _executor_name(executor) -> str:
    return type(executor).__name__


class ResilientExecutor:
    """Run a task graph down a ladder of ever-simpler executors.

    Parameters
    ----------
    executor:
        The first (fastest, least reliable) tier; defaults to a
        :class:`~repro.sched.serial.SerialExecutor`.
    fallbacks:
        Tiers tried in order after the first; a serial tier always ends
        the ladder.

    Every tier's ``run`` takes ``tracer=`` and ``deadline=``.
    """

    def __init__(self, executor=None, fallbacks: Sequence = ()):
        tiers = [executor if executor is not None else SerialExecutor()]
        tiers.extend(fallbacks)
        if not isinstance(tiers[-1], SerialExecutor):
            tiers.append(SerialExecutor())
        self.tiers = tiers

    def run(
        self,
        graph: TaskGraph,
        state: PropagationState,
        tracer=None,
        deadline=None,
    ) -> ExecutionStats:
        """Run the ladder; ``deadline`` (absolute ``time.monotonic()``)
        goes to every tier.  A deadline overrun is *not* a reason to step
        down — a slower tier cannot beat the clock the faster one already
        missed — so the ``phase="deadline"`` error re-raises at once.
        Whatever escapes (that error, or the ``RuntimeError`` raised when
        every tier failed) leaves the state as it was before the run and
        carries the steps taken so far as its ``degradations``."""
        tiers = self.tiers
        # Every tier runs the same graph, so rolling back is restoring the
        # bytes of the state's one buffer and which intermediates count
        # as written.
        snapshot = state.buffer.copy()
        written = dict(state._inter)
        records: List[DegradationRecord] = []
        last_exc = None

        def roll_back() -> None:
            np.copyto(state.buffer, snapshot)
            state._inter.clear()
            state._inter.update(written)

        for i, tier in enumerate(tiers):
            try:
                stats = tier.run(
                    graph, state, tracer=tracer, deadline=deadline
                )
            except Exception as exc:
                roll_back()
                if (
                    isinstance(exc, TaskExecutionError)
                    and exc.phase == "deadline"
                ):
                    exc.degradations = records
                    raise
                last_exc = exc
                reason = f"{type(exc).__name__}: {exc}"
            else:
                report = check_state_health(state)
                if report.healthy:
                    break
                roll_back()
                reason = f"unhealthy result: {report.summary()}"
            following = (
                _executor_name(tiers[i + 1]) if i + 1 < len(tiers) else "none"
            )
            record = DegradationRecord(_executor_name(tier), following, reason)
            records.append(record)
            if tracer is not None:
                from repro.obs.span import CONTROL_ROW

                tracer.name_row(CONTROL_ROW, "control")
                tracer.buffer(CONTROL_ROW).instant(
                    f"degrade:{record.from_executor}->{record.to_executor}",
                    "fault",
                )
        else:
            detail = "; ".join(str(r) for r in records)
            error = RuntimeError(f"every executor tier failed: {detail}")
            error.degradations = records
            raise error from last_exc

        # Record which tier actually finished: after a degradation the
        # requested executor's name/threshold would mislabel the run.
        stats.completed_executor = _executor_name(tier)
        stats.completed_partition_threshold = getattr(
            tier, "partition_threshold", None
        )
        stats.health = report.summary()
        if report.underflowed and self._rescue_logspace(state, stats, records):
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
        ``stats.log_likelihood``.  Returns True when the rescue ran; an
        infinite log-likelihood (evidence of probability zero) keeps the
        zero tables.
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
        log_pots = propagate_reference_log(state.jt, state.evidence)
        log_likelihood = log_pots[state.jt.root].log_total()
        if not np.isfinite(log_likelihood):
            records.append(DegradationRecord(
                "logspace", "none",
                "evidence has probability zero (log-likelihood "
                f"{log_likelihood}): kept the zero tables",
            ))
            return False
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
        stats.log_likelihood = log_likelihood
        records.append(DegradationRecord(
            "linear", "logspace",
            "clique tables underflowed; re-ran propagation in log domain",
        ))
        return True

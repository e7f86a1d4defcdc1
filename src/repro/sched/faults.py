"""Deterministic fault injection and failure attribution for executors.

Production propagation runs die in three characteristic ways: a worker
process is killed (OOM killer, preemption), a task hangs (page-cache
stall, runaway kernel), or a potential table silently turns to NaN/Inf
garbage.  Recovery code for those paths is untestable unless the faults
themselves can be injected on demand and deterministically, so this
module provides:

* :class:`FaultPlan` — a declarative schedule of faults (kill a worker
  before dispatch #N, delay task T by S seconds, corrupt task T's
  output) consumed by :class:`~repro.sched.process.ProcessSharedMemoryExecutor`
  and by the simulator policies (:mod:`repro.simcore.policies`).  Every
  fault fires exactly once, so the run a recovery ladder re-tries runs
  clean and recovery can be asserted against the serial oracle.
* :class:`TaskExecutionError` — the worker-side exception wrapper that
  pins a failure to its task id, primitive kind, phase, tree edge and
  (for partitioned work) chunk range, so a crash deep in a 200-clique
  run is attributable from the master's traceback alone.
* :func:`scan_tables` / :class:`HealthReport` — the numerical health
  guard run after propagation: NaN / Inf / total-underflow detection
  over the clique tables, feeding the log-space fallback in
  :class:`~repro.sched.resilient.ResilientExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.tasks.layout import table_layout

CORRUPTION_MODES = ("nan", "inf", "garbage")


class InjectedCrash(BaseException):
    """A deterministic simulated process death at a planned crash point.

    Derives from :class:`BaseException` so the ordinary ``except
    Exception`` recovery paths — which a real ``SIGKILL`` would never
    give a chance to run — cannot swallow it: the injection cuts the
    worker exactly as hard as the crash it stands in for.  Raised by
    :class:`~repro.durability.journal.TickJournal` appends and the
    streaming service's tick lifecycle when a
    :class:`FaultPlan` crash point fires.
    """


class TaskExecutionError(RuntimeError):
    """A task failed inside a worker; carries full task attribution.

    Raised by the worker entry points so the master (and the user's
    traceback) sees *which* task failed — id, primitive kind, phase,
    tree edge, and chunk range for partitioned work — instead of only
    the failing primitive's own message.

    Picklable across the process boundary: ``concurrent.futures``
    round-trips worker exceptions through pickle, so the constructor
    signature is reproduced exactly by :meth:`__reduce__`.
    """

    def __init__(
        self,
        message: str,
        tid: Optional[int] = None,
        kind: Optional[str] = None,
        phase: Optional[str] = None,
        edge: Optional[Tuple[int, int]] = None,
        chunk: Optional[Tuple[int, int]] = None,
    ):
        super().__init__(message)
        self.tid = tid
        self.kind = kind
        self.phase = phase
        self.edge = edge
        self.chunk = chunk

    def __reduce__(self):
        return (
            self.__class__,
            (self.args[0], self.tid, self.kind, self.phase, self.edge,
             self.chunk),
        )

    @classmethod
    def wrap(cls, exc: BaseException, spec, chunk=None) -> "TaskExecutionError":
        """Build from a raw exception and a worker-side task spec."""
        kind = getattr(spec.kind, "value", str(spec.kind))
        where = f"task {spec.tid} ({kind}, {spec.phase}, edge {spec.edge}"
        if chunk is not None:
            where += f", chunk [{chunk[0]}, {chunk[1]})"
        where += ")"
        return cls(
            f"{where} failed: {type(exc).__name__}: {exc}",
            tid=spec.tid,
            kind=kind,
            phase=spec.phase,
            edge=tuple(spec.edge),
            chunk=tuple(chunk) if chunk is not None else None,
        )


@dataclass
class FaultPlan:
    """A deterministic schedule of injectable faults.

    All faults are *one-shot*: once taken they never fire again, so a
    re-run of the same plan's executor executes cleanly and the run can
    be asserted to converge.  The plan object itself tracks consumption,
    making it single-use — build a fresh plan per run.  In the process
    executor every fault but a delay ends the run (a corrupted table
    ends it at the recovery ladder's health scan); the ladder then rolls
    the state back and steps down.

    Parameters
    ----------
    kill_before_dispatch:
        ``{dispatch_index: worker_offset}`` — before the Nth pool
        dispatch (0-based, counted across tasks, chunks and combines),
        SIGKILL the pool worker at ``worker_offset`` (modulo the live
        worker count); the run fails with ``BrokenProcessPool``.  The
        index counts per run, so a plan shared by several runs fires
        at the first run that reaches it.
    delay_task:
        ``{tid: seconds}`` — the worker sleeps before executing the
        task, on its first dispatch only.  A slow task finishes late and
        the answer stays exact; with a whole-run deadline shorter than
        the delay, the run is refused with ``phase="deadline"``.
    corrupt_task:
        ``{tid: mode}`` with mode in :data:`CORRUPTION_MODES` — after
        the task's first execution its output table is overwritten with
        NaN / Inf / garbage, exercising the numerical health guard.
    fail_task:
        ``{tid: times}`` — the worker raises an injected exception on
        the task's first ``times`` dispatches (then runs clean): the run
        fails with an attributed :class:`TaskExecutionError` without
        killing any process.
    torn_write:
        ``{tid: entries}`` — after the task's first pool execution the
        worker stamps its checksum over the *correct* output, then
        scribbles ``entries`` finite garbage values into the written
        region, simulating a write torn between stamp and master read
        (kill mid-``memcpy``, stray writer).  The health scan cannot see
        finite garbage; only the crc verification in
        :class:`~repro.sched.process.ProcessSharedMemoryExecutor`
        catches it, raising
        :class:`~repro.integrity.checksum.TornWriteError`.
    sim_kill_core:
        ``{task_index: core}`` — simulator-only: core dies before it
        would start its Nth task (see :mod:`repro.simcore.policies`).
    sim_delay_task:
        ``{node_index: seconds}`` — simulator-only per-node delay.
    crash_after_journal_append:
        Tick sequence numbers after whose journal append the serving
        process "dies" (:class:`InjectedCrash`): the tick is durable
        but never executed — recovery must replay it (at-least-once).
    crash_before_ack:
        Tick sequence numbers whose execution completes and whose
        response resolves, but whose ack record never becomes durable:
        recovery sees an unacked tick and must replay it *idempotently*
        (the evidence set, not the work order, determines posteriors).
    torn_append:
        ``{seq: keep_bytes}`` — the journal append for ``seq`` writes
        only the first ``keep_bytes`` bytes of the framed record before
        the process dies, leaving a torn tail the next open must
        truncate.  ``keep_bytes`` is clamped inside the frame so the
        record is genuinely unreadable.
    """

    kill_before_dispatch: Dict[int, int] = field(default_factory=dict)
    delay_task: Dict[int, float] = field(default_factory=dict)
    corrupt_task: Dict[int, str] = field(default_factory=dict)
    fail_task: Dict[int, int] = field(default_factory=dict)
    torn_write: Dict[int, int] = field(default_factory=dict)
    sim_kill_core: Dict[int, int] = field(default_factory=dict)
    sim_delay_task: Dict[int, float] = field(default_factory=dict)
    crash_after_journal_append: Sequence[int] = ()
    crash_before_ack: Sequence[int] = ()
    torn_append: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for tid, mode in self.corrupt_task.items():
            if mode not in CORRUPTION_MODES:
                raise ValueError(
                    f"corruption mode for task {tid} must be one of "
                    f"{CORRUPTION_MODES}, got {mode!r}"
                )
        for tid, seconds in self.delay_task.items():
            if seconds < 0:
                raise ValueError(f"delay for task {tid} must be >= 0")
        for tid, times in self.fail_task.items():
            if times < 1:
                raise ValueError(f"fail count for task {tid} must be >= 1")
        for tid, entries in self.torn_write.items():
            if entries < 1:
                raise ValueError(
                    f"torn-write entry count for task {tid} must be >= 1"
                )
        for seq in tuple(self.crash_after_journal_append) + tuple(
            self.crash_before_ack
        ):
            if seq < 0:
                raise ValueError(f"crash-point seq must be >= 0, got {seq}")
        for seq, keep in self.torn_append.items():
            if seq < 0 or keep < 1:
                raise ValueError(
                    f"torn append needs seq >= 0 and keep_bytes >= 1, "
                    f"got seq {seq} keeping {keep}"
                )
        self._taken_kills: set = set()
        self._taken_delays: set = set()
        self._taken_corruptions: set = set()
        self._taken_failures: Dict[int, int] = {}
        self._taken_torn: set = set()
        self._taken_sim_kills: set = set()
        self._taken_sim_delays: set = set()
        self._taken_crash_appends: set = set()
        self._taken_crash_acks: set = set()
        self._taken_torn_appends: set = set()

    # ------------------------------------------------------------------ #
    # One-shot consumption (master-side; workers never see the plan)
    # ------------------------------------------------------------------ #

    def take_kill(self, dispatch_index: int) -> Optional[int]:
        """Worker offset to SIGKILL before this dispatch, or ``None``."""
        if (
            dispatch_index in self.kill_before_dispatch
            and dispatch_index not in self._taken_kills
        ):
            self._taken_kills.add(dispatch_index)
            return self.kill_before_dispatch[dispatch_index]
        return None

    def take_delay(self, tid: int) -> float:
        """Seconds the worker should sleep before running ``tid`` (0 = none)."""
        if tid in self.delay_task and tid not in self._taken_delays:
            self._taken_delays.add(tid)
            return self.delay_task[tid]
        return 0.0

    def take_corruption(self, tid: int) -> Optional[str]:
        """Corruption mode to apply after running ``tid``, or ``None``."""
        if tid in self.corrupt_task and tid not in self._taken_corruptions:
            self._taken_corruptions.add(tid)
            return self.corrupt_task[tid]
        return None

    def take_torn(self, tid: int) -> Optional[int]:
        """Entries to scribble after ``tid``'s checksum stamp, or ``None``."""
        if tid in self.torn_write and tid not in self._taken_torn:
            self._taken_torn.add(tid)
            return self.torn_write[tid]
        return None

    def take_failure(self, tid: int) -> bool:
        """True if the next dispatch of ``tid`` should raise an injected error."""
        budget = self.fail_task.get(tid, 0)
        used = self._taken_failures.get(tid, 0)
        if used < budget:
            self._taken_failures[tid] = used + 1
            return True
        return False

    def take_sim_kill(self, task_index: int) -> Optional[int]:
        if (
            task_index in self.sim_kill_core
            and task_index not in self._taken_sim_kills
        ):
            self._taken_sim_kills.add(task_index)
            return self.sim_kill_core[task_index]
        return None

    def take_sim_delay(self, node_index: int) -> float:
        if (
            node_index in self.sim_delay_task
            and node_index not in self._taken_sim_delays
        ):
            self._taken_sim_delays.add(node_index)
            return self.sim_delay_task[node_index]
        return 0.0

    def take_crash_after_append(self, seq: int) -> bool:
        """True if the process should die right after ``seq``'s append."""
        if (
            seq in self.crash_after_journal_append
            and seq not in self._taken_crash_appends
        ):
            self._taken_crash_appends.add(seq)
            return True
        return False

    def take_crash_before_ack(self, seq: int) -> bool:
        """True if the process should die before ``seq``'s ack append."""
        if seq in self.crash_before_ack and seq not in self._taken_crash_acks:
            self._taken_crash_acks.add(seq)
            return True
        return False

    def take_torn_append(self, seq: int) -> Optional[int]:
        """Frame bytes to keep of ``seq``'s torn append, or ``None``."""
        if seq in self.torn_append and seq not in self._taken_torn_appends:
            self._taken_torn_appends.add(seq)
            return self.torn_append[seq]
        return None

    @property
    def empty(self) -> bool:
        return not (
            self.kill_before_dispatch
            or self.delay_task
            or self.corrupt_task
            or self.fail_task
            or self.torn_write
            or self.sim_kill_core
            or self.sim_delay_task
            or self.crash_after_journal_append
            or self.crash_before_ack
            or self.torn_append
        )


def corrupt_array(target: np.ndarray, mode: str) -> None:
    """Overwrite ``target`` in place per ``mode`` (worker-side injection)."""
    if mode == "nan":
        target[...] = np.nan
    elif mode == "inf":
        target[...] = np.inf
    elif mode == "garbage":
        # Deterministic garbage: sign-alternating huge values.
        target[...] = np.where(
            np.arange(target.size).reshape(target.shape) % 2 == 0,
            -1e300,
            1e300,
        )
    else:  # pragma: no cover - validated at plan construction
        raise ValueError(f"unknown corruption mode {mode!r}")


# --------------------------------------------------------------------- #
# Numerical health guard
# --------------------------------------------------------------------- #


@dataclass
class HealthReport:
    """Outcome of a NaN/Inf/underflow scan over a set of tables."""

    nan_tables: List[object] = field(default_factory=list)
    inf_tables: List[object] = field(default_factory=list)
    underflowed_tables: List[object] = field(default_factory=list)
    tables_scanned: int = 0

    @property
    def healthy(self) -> bool:
        return not (self.nan_tables or self.inf_tables)

    @property
    def underflowed(self) -> bool:
        return bool(self.underflowed_tables)

    def summary(self) -> str:
        if self.healthy and not self.underflowed:
            return f"healthy ({self.tables_scanned} tables)"
        bits = []
        if self.nan_tables:
            bits.append(f"NaN in {self.nan_tables}")
        if self.inf_tables:
            bits.append(f"Inf in {self.inf_tables}")
        if self.underflowed_tables:
            bits.append(f"underflow in {self.underflowed_tables}")
        return "; ".join(bits)


def scan_tables(tables: Mapping[object, object]) -> HealthReport:
    """NaN / Inf / total-underflow scan over ``{key: PotentialTable}``.

    A table *underflows* when every entry is exactly zero — the signature
    of joint mass shrinking below ``float64``'s reach, which the
    log-space engine (:mod:`repro.potential.logspace`) avoids.  Each
    table lands in at most one list: NaN before Inf before underflow.
    """
    report = HealthReport()
    for key, table in tables.items():
        values = np.asarray(table.values)
        report.tables_scanned += 1
        if np.isnan(values).any():
            report.nan_tables.append(key)
        elif np.isinf(values).any():
            report.inf_tables.append(key)
        elif not values.any():
            report.underflowed_tables.append(key)
    return report


def check_state_health(state) -> HealthReport:
    """Health scan over a :class:`~repro.tasks.state.PropagationState`'s
    clique potentials: :func:`scan_tables` of ``state.potentials``, as
    one vectorised pass per check over the buffer's clique region (the
    clique slots lie end to end from its start), reduced per clique with
    ``np.logical_or.reduceat``."""
    layout = table_layout(state.jt)
    region = state.buffer[:layout.cliques_end]
    starts = layout.clique_starts
    nan = np.logical_or.reduceat(np.isnan(region), starts)
    inf = np.logical_or.reduceat(np.isinf(region), starts)
    nonzero = np.logical_or.reduceat(region != 0.0, starts)
    return HealthReport(
        np.flatnonzero(nan).tolist(),
        np.flatnonzero(inf & ~nan).tolist(),
        np.flatnonzero(~nonzero).tolist(),
        len(starts),
    )

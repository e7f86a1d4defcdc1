"""Shared-memory process executor: Algorithm 2 across worker processes.

The threaded executors in this package are GIL-bound while per-task Python
dominates.  :class:`ProcessSharedMemoryExecutor` runs the same task DAG across
worker *processes* over the same :class:`~repro.tasks.state.PropagationState`
every other executor runs — only its buffer lives in one
``multiprocessing.shared_memory`` arena:

* The master copies the state's buffer into the arena (one ``memcpy``),
  runs the graph, and copies the arena back.  Workers attach once, at pool
  start, and build a state over the arena (:meth:`PropagationState.over`);
  no table is pickled during execution, and every process calls the one
  ``execute`` / ``execute_chunk`` / ``combine_chunks``.
* The master process runs the Allocate module: it tracks dependency
  degrees, dispatches ready tasks, and applies the Partition module
  (:func:`~repro.tasks.partition_plan.plan_partition`) to split tasks whose
  slice exceeds δ into chunk subtasks spread over the pool.
* Chunks of EXTEND / MULTIPLY / DIVIDE own disjoint slices of the flat
  output and write them in place, so — exactly as
  :func:`~repro.tasks.partition_plan.combine_flops` models — their combiner
  degenerates to bookkeeping.  MARGINALIZE chunks return small partial
  separator tables; the last subtask ``T̂_n`` is a pool-executed combiner
  that sums them into the shared output.
* Tasks whose partitionable slice is at most ``inline_threshold`` entries
  run inline in the master over the same arena, keeping the tiny
  separator-sized divides off the IPC path.

This module's own part is dispatch and the integrity protocol: which
arena regions a task writes (:func:`_written_flat`, crc32 stamped by the
worker and verified by the master).  It does not recover on its own.  A
killed worker, a task that raises, a torn write or a whole-run deadline
ends the run with an exception, and the caller's state is untouched: the
arena is copied back only after a clean run.  Recovery belongs to the one
ladder, :class:`~repro.sched.resilient.ResilientExecutor`: roll back,
step down, end at serial.

Results match :class:`~repro.sched.serial.SerialExecutor` to floating-point
round-off (identical when no marginalization is partitioned).  A run pays
the two arena copies and every task a dispatch round-trip: the benchmark
suite reads ``sched.process.run_ms`` beside ``sched.serial.run_ms``, and
on each of its workloads the process tier is the slower one.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, List, Optional

import numpy as np

from repro.integrity.checksum import TornWriteError, crc32_regions
from repro.potential.primitives import PrimitiveKind
from repro.sched.faults import FaultPlan, TaskExecutionError, corrupt_array
from repro.sched.stats import ExecutionStats
from repro.tasks.layout import table_layout
from repro.tasks.partition_plan import plan_partition
from repro.tasks.state import PropagationState
from repro.tasks.task import Task, TaskGraph

# --------------------------------------------------------------------- #
# The fault/integrity protocol: which tables of the state a task touches
# --------------------------------------------------------------------- #


def _written_flat(
    state: PropagationState, task: Task, chunk: bool = False
) -> List[np.ndarray]:
    """Flat views of every arena region a task (or chunk) writes.

    The checksum contract: a worker stamps crc32 over exactly these
    regions (in this order) after executing, and the master verifies
    the same regions when the result arrives — so the list and its
    order are the protocol, shared across the process boundary via
    this one function.  DIVIDE writes two regions (the ratio *and* the
    promoted separator); MARGINALIZE chunks write nothing shared
    (their partials travel back by pickle), and a wide pipeline's EXTEND
    writes nothing at all, so they return no regions and carry no
    checksum.
    """
    if task.kind is PrimitiveKind.MARGINALIZE and chunk:
        return []
    out = state.output_table(task)
    if out is None:
        return []
    regions = [out.values.reshape(-1)]
    if task.kind is PrimitiveKind.DIVIDE:
        regions.append(state.separators[task.edge].values.reshape(-1))
    return regions


# --------------------------------------------------------------------- #
# Worker-process entry points (module-level so they pickle by reference)
# --------------------------------------------------------------------- #

_WORKER: Dict[str, object] = {}


def _arena_state(shm, jt) -> PropagationState:
    """The state over a shared-memory arena laid out for ``jt`` (every
    intermediate present: another process may have written it)."""
    arena = np.frombuffer(
        shm.buf, dtype=np.float64, count=table_layout(jt).size
    )
    return PropagationState.over(jt, arena)


def _worker_init(shm_name: str, jt, tasks: List[Task]) -> None:
    # Attaching re-registers the segment with the resource tracker, but pool
    # workers inherit the master's tracker (fork and spawn alike on POSIX),
    # where re-adding an already-tracked name is a no-op — so the master
    # stays the sole owner of cleanup and no unregister dance is needed.
    shm = shared_memory.SharedMemory(name=shm_name)
    _WORKER["shm"] = shm
    _WORKER["state"] = _arena_state(shm, jt)
    _WORKER["tasks"] = tasks


def _worker_ping():
    """No-op task: forces worker spawn and reports the worker's pid."""
    return os.getpid()


def _stamp_and_tear(
    task: Task, chunk: bool, lo, hi, checksum: bool, torn
) -> Optional[int]:
    """Worker-side checksum stamp over the regions this task wrote.

    Returns the crc32 the master should verify against, or ``None`` when
    checksumming is off (or the task wrote nothing shared).  ``torn``
    injects a torn write: the crc is stamped over the *correct* output
    first, then ``torn`` entries of the written region are scribbled
    with finite garbage — the exact signature of a write torn between
    the worker's stamp and the master's read, invisible to the NaN/Inf
    health scan and caught only by the crc verification.
    """
    if not checksum and torn is None:
        return None
    regions = _written_flat(_WORKER["state"], task, chunk=chunk)
    if not regions:
        return None
    crc = crc32_regions(regions, lo, hi)
    if torn:
        seg = regions[0] if lo is None else regions[0][lo:hi]
        n = min(int(torn), seg.size)
        if n:
            seg[:n] = 0.5
    return crc


def _exec(
    kind: str, tid: int, lo: int, hi: int, parts=None, ranges=None,
    delay: float = 0.0, corrupt=None, fail: bool = False,
    torn=None, checksum: bool = False,
):
    """Worker entry point for one dispatch: a whole ``"task"``, one
    ``"chunk"`` ``[lo, hi)`` of it, or the ``"combine"`` subtask ``T̂_n`` of
    a partitioned MARGINALIZE.

    Returns ``(pid, elapsed_s, payload, t0_ns, t1_ns, crc)``.  The ns pair
    is captured worker-side on the system-wide monotonic clock
    (perf_counter_ns is CLOCK_MONOTONIC on Linux, fork and spawn alike), so
    the master can merge worker execution spans onto its own timeline — the
    process-executor form of per-pid buffers merged at join.  ``crc`` is the
    torn-write-detection stamp (None when checksumming is off).
    """
    state, task = _WORKER["state"], _WORKER["tasks"][tid]
    chunk = kind == "chunk"
    if not chunk:
        lo = hi = None  # the whole flat index space
    partial = None
    t0 = time.perf_counter_ns()
    try:
        if delay:
            time.sleep(delay)
        if fail:
            raise ValueError("injected task failure (FaultPlan.fail_task)")
        if kind == "task":
            state.execute(task)
        elif chunk:
            partial = state.execute_chunk(task, lo, hi)
        else:
            state.combine_chunks(task, parts, ranges)
        if corrupt is not None:
            # None: a wide pipeline's EXTEND writes no table to corrupt.
            out = state.output_table(task)
            if partial is not None:
                corrupt_array(partial, corrupt)
            elif out is not None and chunk:
                corrupt_array(out.values.reshape(-1)[lo:hi], corrupt)
            elif out is not None:
                corrupt_array(out.values, corrupt)
        crc = _stamp_and_tear(task, chunk, lo, hi, checksum, torn)
    except TaskExecutionError:
        raise
    except Exception as exc:
        raise TaskExecutionError.wrap(
            exc, task, chunk=(lo, hi) if chunk else None
        ) from exc
    t1 = time.perf_counter_ns()
    return os.getpid(), (t1 - t0) * 1e-9, partial, t0, t1, crc


class _ChunkProgress:
    """Outstanding chunks of one partitioned task (master-side bookkeeping)."""

    __slots__ = ("ranges", "parts", "remaining")

    def __init__(self, ranges):
        self.ranges = ranges
        self.parts: List[Optional[np.ndarray]] = [None] * len(ranges)
        self.remaining = len(ranges)


class _Dispatch:
    """One pool submission: ``kind`` is ``"task"``, ``"chunk"`` or
    ``"combine"``, and ``submit_ns`` the submission timestamp used for
    tracing the dispatch round-trip."""

    __slots__ = ("kind", "tid", "idx", "lo", "hi", "submit_ns")

    def __init__(self, kind: str, tid: int, idx: int = 0,
                 lo: int = 0, hi: int = 0):
        self.kind = kind
        self.tid = tid
        self.idx = idx
        self.lo = lo
        self.hi = hi
        self.submit_ns: int = 0


def _torn_write(
    shared: PropagationState, task: Task, disp: "_Dispatch", crc: int
) -> Optional[TornWriteError]:
    """The error to raise when the arena disagrees with the checksum a
    worker stamped over what it wrote, or ``None`` when they agree."""
    chunked = disp.kind == "chunk"
    actual = crc32_regions(
        _written_flat(shared, task, chunk=chunked),
        disp.lo if chunked else None,
        disp.hi if chunked else None,
    )
    if actual == crc:
        return None
    where = f", chunk [{disp.lo}, {disp.hi})" if chunked else ""
    return TornWriteError(
        f"torn write detected: task {disp.tid} ({task.kind.value}, "
        f"{task.phase}, edge {task.edge}{where}) stamped checksum "
        f"{crc:#010x} but the arena reads {actual:#010x}",
        tid=disp.tid,
        kind=task.kind.value,
        phase=task.phase,
        edge=tuple(task.edge),
        chunk=(disp.lo, disp.hi) if chunked else None,
    )


def _kill_pids(pids) -> None:
    """SIGKILL each pid, ignoring already-dead or foreign processes."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


class ProcessSharedMemoryExecutor:
    """Algorithm 2 over a process pool with shared-memory potential tables.

    Parameters
    ----------
    num_workers:
        Worker-process count (the paper's ``P``; the master is extra and
        only runs sub-``inline_threshold`` tasks).
    partition_threshold:
        The paper's δ in table entries; tasks above it are split into chunk
        subtasks spread over the pool.  ``None`` disables partitioning.
    max_chunks:
        Upper bound on chunks per partitioned task.
    inline_threshold:
        Tasks whose partitionable slice has at most this many entries run
        inline in the master instead of paying a dispatch round-trip.
        ``0`` forces everything through the pool (useful for testing).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheapest) and ``spawn`` elsewhere.
    fault_plan:
        A :class:`~repro.sched.faults.FaultPlan` of injected faults for
        deterministic testing of the recovery ladder.  Each fault fires
        once, in whichever ``run()`` reaches it first.  Faults apply to
        pool-dispatched work (inline master-side tasks are never
        faulted).  A plan switches the pool to eager worker spawn, so a
        planned kill has a worker pid to signal (:meth:`worker_pids`).
    verify_writes:
        Torn-write detection: workers stamp a crc32 over exactly the
        arena regions each pooled task/chunk wrote, and the master
        re-verifies those bytes when the result arrives, raising
        :class:`~repro.integrity.checksum.TornWriteError` (attributed to
        the tid and chunk range) on mismatch instead of absorbing a torn
        table.  ``None`` (default) enables verification exactly when a
        fault plan is set — the fault-free fast path pays no checksum
        cost; ``True``/``False`` force it.

    Every fault ends the run with an exception: a task that raises
    (:class:`~repro.sched.faults.TaskExecutionError`, attributed), a
    killed worker (``BrokenProcessPool``), a torn write, or the whole-run
    ``deadline``.  The caller's state is left as it was; run the executor
    as a tier of :class:`~repro.sched.resilient.ResilientExecutor` to
    finish the run on a simpler tier instead.
    """

    def __init__(
        self,
        num_workers: int = 4,
        partition_threshold: Optional[int] = None,
        max_chunks: int = 32,
        inline_threshold: int = 2048,
        start_method: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        verify_writes: Optional[bool] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if partition_threshold is not None and partition_threshold < 1:
            raise ValueError("partition_threshold must be >= 1 or None")
        if max_chunks < 2:
            raise ValueError("max_chunks must be >= 2")
        if inline_threshold < 0:
            raise ValueError("inline_threshold must be >= 0")
        methods = mp.get_all_start_methods()
        if start_method is not None and start_method not in methods:
            raise ValueError(
                f"start_method must be one of {methods}, got {start_method!r}"
            )
        self.num_workers = num_workers
        self.partition_threshold = partition_threshold
        self.max_chunks = max_chunks
        self.inline_threshold = inline_threshold
        self.start_method = start_method or (
            "fork" if "fork" in methods else methods[0]
        )
        self.fault_plan = fault_plan
        self.verify_writes = verify_writes
        # Live pool-worker pids (set at pool start when a fault plan is
        # set); lets tests target a worker externally, e.g.
        # ``os.kill(executor.worker_pids()[0], 9)``.
        self._pool_pids: List[int] = []

    def worker_pids(self) -> List[int]:
        """Pids of the current pool's workers (with a fault plan only)."""
        return list(self._pool_pids)

    # ------------------------------------------------------------------ #

    def run(
        self,
        graph: TaskGraph,
        state: PropagationState,
        tracer=None,
        deadline: Optional[float] = None,
    ) -> ExecutionStats:
        """Run the graph; ``deadline`` is an absolute ``time.monotonic()``
        instant for the whole run.  The master checks it at every
        dispatch and wait boundary; an overrun raises
        :class:`~repro.sched.faults.TaskExecutionError` with
        ``phase="deadline"`` after killing the pool's workers, so a hung
        task cannot hold the caller past it."""
        p = self.num_workers
        master_slot = p  # trailing per-worker stats slot for inline work
        stats = ExecutionStats(
            num_threads=p,
            compute_time=[0.0] * (p + 1),
            sched_time=[0.0] * (p + 1),
            tasks_per_thread=[0] * (p + 1),
            worker_pids=[0] * (p + 1),
            master_slot=master_slot,
        )
        stats.worker_pids[master_slot] = os.getpid()
        if graph.num_tasks == 0:
            return stats
        # The arena holds the state's whole table buffer: one memcpy in,
        # the same PropagationState class over it on both sides of the
        # process boundary, one memcpy back out.
        shm = shared_memory.SharedMemory(create=True, size=state.buffer.nbytes)
        stats.shared_bytes = state.buffer.nbytes
        start = time.perf_counter()
        shared = None
        try:
            shared = _arena_state(shm, state.jt)
            np.copyto(shared.buffer, state.buffer)
            pool = ProcessPoolExecutor(
                max_workers=p,
                mp_context=mp.get_context(self.start_method),
                initializer=_worker_init,
                initargs=(shm.name, state.jt, graph.tasks),
            )
            self._schedule(
                graph, shared, pool, stats, master_slot, tracer,
                deadline=deadline,
            )
            stats.wall_time = time.perf_counter() - start
            np.copyto(state.buffer, shared.buffer)
            state.mark_computed(graph.tasks)
        except BaseException as exc:
            # Frames in the traceback pin the numpy views over the arena;
            # clear them so the buffer can actually be released below.
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            # Drop every view before freeing the arena (numpy arrays keep
            # the exported buffer alive, which would make close() fail).
            shared = None
            try:
                shm.close()
            except BufferError:  # a stray view survived; unlink regardless
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # already unlinked by a dying tracker
                pass
        return stats

    # ------------------------------------------------------------------ #

    def _schedule(
        self, graph, shared, pool, stats, master_slot, tracer=None,
        deadline=None,
    ):
        """The master's Allocate loop over ``pool``: dispatch ready tasks,
        resolve deps, and shut the pool down however the loop ends.

        The first fault ends the loop — a worker-side exception, a dead
        worker, a torn write or the whole-run deadline — after the pool
        is quiesced; nothing is retried here.
        """
        plan = self.fault_plan
        verify = (
            self.verify_writes
            if self.verify_writes is not None
            else plan is not None
        )
        tasks = graph.tasks
        # Tasks that write no table: a wide pipeline's EXTEND.
        idle = frozenset(
            task.tid for task in tasks if shared.output_table(task) is None
        ) if plan is not None else frozenset()
        dep_count = graph.indegrees()
        ready = deque(graph.roots())
        pending: Dict[object, _Dispatch] = {}
        progress: Dict[int, _ChunkProgress] = {}
        completed = 0
        dispatches = 0
        pid_slots: Dict[int, int] = {}

        if tracer is not None:
            # The master thread is the only writer of every buffer here:
            # worker-process spans arrive as (t0, t1) pairs in results and
            # are recorded master-side into the owning worker's row.
            from repro.obs.span import CAT_FAULT, CAT_IPC, CAT_SCHED, IPC_ROW

            mbuf = tracer.bind(master_slot)
            tracer.name_row(master_slot, "master")
            tracer.name_row(IPC_ROW, "ipc")
            ipc_buf = tracer.buffer(IPC_ROW)
        else:
            mbuf = ipc_buf = None

        def slot_of(pid: int) -> int:
            # A pool never replaces a worker (a dead one breaks the run),
            # so at most num_workers pids ever arrive.
            slot = pid_slots.get(pid)
            if slot is None:
                slot = pid_slots[pid] = len(pid_slots)
                stats.worker_pids[slot] = pid
                if tracer is not None:
                    tracer.name_row(slot, f"worker-{slot} (pid {pid})")
            return slot

        def finish(tid: int, slot: int) -> None:
            nonlocal completed
            completed += 1
            stats.tasks_executed += 1
            stats.tasks_per_thread[slot] += 1
            for succ in graph.succs[tid]:
                dep_count[succ] -= 1
                if dep_count[succ] == 0:
                    ready.append(succ)

        def dispatch(disp: "_Dispatch") -> None:
            nonlocal dispatches
            delay, corrupt, fail, torn = 0.0, None, False, None
            if plan is not None:
                offset = plan.take_kill(dispatches)
                if offset is not None:
                    victim = self._pool_pids[offset % len(self._pool_pids)]
                    _kill_pids([victim])
                    if mbuf is not None:
                        mbuf.instant(f"fault:kill pid {victim}", CAT_FAULT)
                    # The pool reports a dead worker only once its manager
                    # thread finds no result and no wakeup pending, and a
                    # survivor streaming small results can starve that for
                    # an unbounded stretch of the run.  A planned kill
                    # fails the run now, so what a plan exercises never
                    # depends on that timing (an external kill still does).
                    raise BrokenProcessPool(
                        f"worker {victim} was SIGKILLed before dispatch "
                        f"{dispatches}"
                    )
                delay = plan.take_delay(disp.tid)
                corrupt = plan.take_corruption(disp.tid)
                fail = plan.take_failure(disp.tid)
                if disp.tid not in idle and not (
                    disp.kind == "chunk"
                    and tasks[disp.tid].kind is PrimitiveKind.MARGINALIZE
                ):
                    # MARGINALIZE chunks write nothing shared (partials
                    # travel by pickle) and an idle task nothing at all,
                    # so a torn write there cannot exist; leave the fault
                    # armed for a dispatch that actually writes the arena.
                    torn = plan.take_torn(disp.tid)
                if mbuf is not None and (
                    delay or corrupt is not None or fail or torn is not None
                ):
                    mbuf.instant(f"fault:inject#{disp.tid}", CAT_FAULT)
            disp.submit_ns = time.perf_counter_ns()
            parts = ranges = None
            if disp.kind == "combine":
                prog = progress[disp.tid]
                parts, ranges = prog.parts, prog.ranges
            fut = pool.submit(
                _exec, disp.kind, disp.tid, disp.lo, disp.hi,
                parts, ranges, delay, corrupt, fail, torn, verify)
            dispatches += 1
            pending[fut] = disp

        self._pool_pids = []
        try:
            if plan is not None:
                # Eager spawn: one ping fills the pool, so a planned kill
                # has a worker pid to signal before any real dispatch.
                pool.submit(_worker_ping).result(timeout=60.0)
                self._pool_pids = sorted(pool._processes)
                for wpid in self._pool_pids:
                    slot_of(wpid)
            while completed < graph.num_tasks:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TaskExecutionError(
                        f"process propagation exceeded its deadline with "
                        f"{graph.num_tasks - completed} of {graph.num_tasks} "
                        f"tasks unexecuted",
                        phase="deadline",
                    )
                while ready:
                    tid = ready.popleft()
                    task = tasks[tid]
                    ranges = plan_partition(
                        task, self.partition_threshold, self.max_chunks
                    )
                    if ranges is not None:
                        stats.tasks_partitioned += 1
                        progress[tid] = _ChunkProgress(ranges)
                        for idx, (lo, hi) in enumerate(ranges):
                            dispatch(_Dispatch("chunk", tid, idx, lo, hi))
                    elif task.partition_size <= self.inline_threshold:
                        t0 = time.perf_counter_ns()
                        shared.execute(task)
                        t1 = time.perf_counter_ns()
                        if mbuf is not None:
                            mbuf.task_span(
                                "inline", tid, t0, t1, pid=os.getpid()
                            )
                        stats.compute_time[master_slot] += (t1 - t0) * 1e-9
                        stats.tasks_inline += 1
                        finish(tid, master_slot)
                    else:
                        dispatch(_Dispatch("task", tid))
                if completed == graph.num_tasks:
                    break
                if not pending:
                    raise RuntimeError(
                        f"process executor stalled with "
                        f"{graph.num_tasks - completed} tasks unexecuted"
                    )
                # Wake in time to notice a whole-run deadline overrun.
                timeout = (
                    None if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                if mbuf is not None:
                    mbuf.sample_queue(len(pending))
                t0 = time.perf_counter_ns()
                done, _ = wait(
                    list(pending), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                t1 = time.perf_counter_ns()
                if mbuf is not None:
                    mbuf.span("wait", CAT_SCHED, t0, t1)
                stats.sched_time[master_slot] += (t1 - t0) * 1e-9
                for fut in done:
                    disp = pending.pop(fut)
                    pid, elapsed, payload, t0_ns, t1_ns, crc = fut.result()
                    error = (
                        _torn_write(shared, tasks[disp.tid], disp, crc)
                        if verify and crc is not None else None
                    )
                    if error is not None:
                        # Every table downstream of a tear is suspect, so
                        # the run fails; the recovery ladder rolls it back.
                        if mbuf is not None:
                            mbuf.instant(
                                f"fault:torn-write#{disp.tid}", CAT_FAULT
                            )
                        raise error
                    slot = slot_of(pid)
                    if tracer is not None:
                        tracer.buffer(slot).task_span(
                            disp.kind, disp.tid, t0_ns, t1_ns,
                            disp.lo if disp.kind == "chunk" else -1,
                            disp.hi if disp.kind == "chunk" else -1,
                            pid=pid,
                        )
                        now_ns = time.perf_counter_ns()
                        ipc_buf.span(
                            f"rtt#{disp.tid}", CAT_IPC, disp.submit_ns, now_ns
                        )
                        ipc_buf.count(
                            "ipc_overhead_ns",
                            (now_ns - disp.submit_ns) - (t1_ns - t0_ns),
                        )
                        ipc_buf.count("dispatches")
                    stats.compute_time[slot] += elapsed
                    if disp.kind == "task":
                        finish(disp.tid, slot)
                    elif disp.kind == "combine":
                        progress.pop(disp.tid)
                        finish(disp.tid, slot)
                    else:
                        prog = progress[disp.tid]
                        prog.parts[disp.idx] = payload
                        prog.remaining -= 1
                        stats.chunks_executed += 1
                        if prog.remaining == 0:
                            if tasks[disp.tid].kind is (
                                    PrimitiveKind.MARGINALIZE):
                                dispatch(_Dispatch("combine", disp.tid))
                            else:
                                # Concatenating chunks wrote the output in
                                # place; the combiner is pure bookkeeping.
                                progress.pop(disp.tid)
                                finish(disp.tid, slot)
        except BaseException:
            # Quiesce before the arena teardown in run(): drop queued work,
            # kill the workers (a hung or still-running one would hold
            # shutdown() until its task ended), and wait the pool down so
            # no live worker races the shared-memory unlink.
            for fut in pending:
                fut.cancel()
            _kill_pids(list(getattr(pool, "_processes", None) or {}))
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass
            raise
        pool.shutdown(wait=True)

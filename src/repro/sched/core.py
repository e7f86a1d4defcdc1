"""The collaborative scheduler (Section 6, Algorithm 2): one loop, policies.

:func:`run_loop` is the only threaded scheduling loop in the package.  It
owns, once, everything the paper's scheduler and its Section 7 / Section 8
variants share: the global dependency counters under the GL lock, one ready
list per thread under its LL lock, chunk sets whose last finisher runs the
combiner (the paper's ``T̂_n``), abort propagation, the cooperative deadline
check, :class:`ExecutionStats` accounting and the ``tracer`` hooks.  A
:class:`Policy` supplies only the decisions: **Allocate** (``release``,
``allocate``), **Fetch** (``fetch_from``, ``fetch_at``) and **Partition**
(``split``, ``place_chunk``); **Execute** is the DAG's own callbacks.  The
executors below and :func:`run_dag` pick a policy and call the loop; results
are bitwise-identical to :class:`~repro.sched.serial.SerialExecutor`.
(GIL-bound while per-task Python dominates; numpy releases the GIL inside
its loops, so wide tables overlap — the benchmark suite reads it as
``sched.collaborative.run_ms`` beside ``sched.serial.run_ms``.)
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from graphlib import CycleError, TopologicalSorter
from typing import (
    Callable, Deque, Dict, Hashable, Iterable, List, Mapping, Optional,
    Sequence, Tuple,
)

from repro.potential.partition import chunk_ranges
from repro.sched.faults import TaskExecutionError
from repro.sched.stats import ExecutionStats
from repro.tasks.partition_plan import plan_partition
from repro.tasks.state import PropagationState
from repro.tasks.task import Task, TaskGraph

Ranges = List[Tuple[int, int]]
ALLOCATION_HEURISTICS = ("min-workload", "round-robin", "random")
FETCH_POLICIES = ("fifo", "largest-first")


class Policy:
    """The paper's default decisions; subclasses override only what differs.

    Release every ready node at once, allocate it to the least-loaded
    thread, fetch the head of the thread's own list, never split.  One
    policy object serves one run (it may keep cursors and held nodes);
    ``tasks`` and ``options`` (the executor that built it) inform the
    subclasses' decisions.
    """

    def __init__(self, num_threads, tasks: Sequence[Task] = (), options=None):
        self.num_threads = num_threads
        self.tasks = tasks
        self.options = options

    def release(self, done: Optional[int], ready: List[int]) -> Sequence[int]:
        """Nodes to allocate now that ``done`` completed (``None``: seeding
        the roots) and ``ready`` became ready.  Called under the GL lock."""
        return ready

    def allocate(self, thread: int, node: int, loads: Sequence[float]) -> int:
        """Thread whose ready list receives ``node``; ``loads`` is the
        queued weight per thread (a racy read — it is a heuristic)."""
        return min(range(self.num_threads), key=loads.__getitem__)

    def fetch_from(self, thread: int) -> Iterable[int]:
        """Ready lists ``thread`` tries, in order (beyond its own: steals)."""
        return (thread,)

    def fetch_at(self, own: bool, queue: Deque) -> int:
        """Position to take from a non-empty ``queue`` of
        ``(weight, node, chunk-set, chunk-index)`` entries."""
        return 0

    def split(self, node: int) -> Optional[Ranges]:
        """Chunk ranges for ``node``, or ``None`` to run it whole."""
        return None

    def place_chunk(self, thread: int, index: int) -> int:
        """Thread that receives sibling chunk ``index`` of a node split by
        ``thread`` (Algorithm 2 line 14: spread over all threads)."""
        return (thread + index) % self.num_threads


class ThresholdPolicy(Policy):
    """Algorithm 2 with its ablation knobs: the allocation heuristic, the
    fetch order, and the δ threshold above which a task is split."""

    def __init__(self, num_threads, tasks, options):
        super().__init__(num_threads, tasks, options)
        self._cursor = itertools.count()
        self._rng = random.Random(options.seed)

    def allocate(self, thread, node, loads):
        if self.options.allocation == "min-workload":
            return super().allocate(thread, node, loads)
        if self.options.allocation == "round-robin":
            return next(self._cursor) % self.num_threads
        return self._rng.randrange(self.num_threads)

    def fetch_at(self, own, queue):
        if self.options.fetch == "fifo":
            return 0
        return max(range(len(queue)), key=lambda j: queue[j][0])

    def split(self, node):
        return plan_partition(
            self.tasks[node],
            self.options.partition_threshold,
            self.options.max_chunks,
        )


class StealingPolicy(ThresholdPolicy):
    """Section 8's work stealing: a thread keeps what it makes ready, pops
    its own newest entry, and only when empty steals a victim's oldest."""

    def allocate(self, thread, node, loads):
        return thread

    def fetch_from(self, thread):
        return itertools.chain(range(thread, self.num_threads), range(thread))

    def fetch_at(self, own, queue):
        return -1 if own else 0

    def place_chunk(self, thread, index):
        return thread


class LevelPolicy(Policy):
    """Section 7's OpenMP-style baseline: ready nodes are held until every
    node of the current level has completed (the barrier), then released
    together and dealt round-robin like a static parallel-for."""

    def __init__(self, num_threads, tasks, options):
        super().__init__(num_threads, tasks, options)
        self._held: List[int] = []
        self._outstanding = 1  # the seeding call counts as one completion
        self._cursor = itertools.count()

    def release(self, done, ready):
        self._held.extend(ready)
        self._outstanding -= 1
        if self._outstanding:
            return ()
        level, self._held = self._held, []
        self._outstanding = len(level)
        return level

    def allocate(self, thread, node, loads):
        return next(self._cursor) % self.num_threads


class DataPolicy(Policy):
    """Section 7's data-parallel baseline: one node in flight at a time,
    every node split ``ceil(size / P)`` ways across all threads."""

    def __init__(self, num_threads, tasks, options):
        super().__init__(num_threads, tasks, options)
        self._held: Deque[int] = deque()

    def release(self, done, ready):
        self._held.extend(ready)
        return (self._held.popleft(),) if self._held else ()

    def split(self, node):
        size = self.tasks[node].partition_size
        chunk = max(self.options.min_chunk, -(-size // self.num_threads))
        ranges = chunk_ranges(size, chunk)
        return ranges if len(ranges) > 1 else None


class _ChunkSet:
    """Bookkeeping for one partitioned node: chunks plus the combiner."""

    __slots__ = ("ranges", "results", "remaining", "lock")

    def __init__(self, ranges: Ranges):
        self.ranges = ranges
        self.results: List[Optional[object]] = [None] * len(ranges)
        self.remaining = len(ranges)
        self.lock = threading.Lock()


def run_loop(
    policy: Policy,
    indegrees: List[int],
    succs: Sequence[Sequence[int]],
    weights: Sequence[float],
    execute: Callable[[int], object],
    run_chunk: Optional[Callable[[int, int, int], object]] = None,
    combine: Optional[Callable[[int, list, Ranges], object]] = None,
    tracer=None,
    deadline: Optional[float] = None,
) -> ExecutionStats:
    """Run the DAG ``(indegrees, succs)`` over nodes ``0..n-1`` to completion
    on ``policy.num_threads`` threads.

    ``indegrees`` is consumed (it becomes the live dependency counters).
    ``run_chunk(node, lo, hi)`` / ``combine(node, results, ranges)`` are
    needed only when ``policy.split`` can return ranges.  ``deadline`` is
    an absolute ``time.monotonic()`` instant checked at every fetch
    boundary: in-flight work finishes, nothing new is fetched, and the run
    raises ``TaskExecutionError(phase="deadline")``.  An exception from any
    callback aborts every worker and propagates to the caller.
    """
    p = policy.num_threads
    n = len(indegrees)
    if tracer is not None:
        # TimedLock is interface-identical to threading.Lock: GL is the
        # shared dependency lock, LL the per-thread ready-list locks.
        from repro.obs.tracer import LOCK_GL, LOCK_LL, TimedLock

        gl = TimedLock(tracer, LOCK_GL)
        ll = [TimedLock(tracer, LOCK_LL) for _ in range(p)]
        bufs = [tracer.buffer(i) for i in range(p)]
    else:
        gl = threading.Lock()
        ll = [threading.Lock() for _ in range(p)]
        bufs = [None] * p
    remaining = [n]
    queues: List[Deque] = [deque() for _ in range(p)]
    loads = [0.0] * p
    abort: List[Optional[BaseException]] = [None]
    # Slot i of every per-thread list is written by thread i only, so the
    # accounting needs no lock; the scalar totals are summed after join.
    stats = ExecutionStats(
        num_threads=p, compute_time=[0.0] * p, sched_time=[0.0] * p,
        tasks_per_thread=[0] * p,
    )
    chunks_run = [0] * p
    splits = [0] * p
    clock = time.perf_counter_ns

    def push(target: int, weight: float, node: int, chunks=None, index=0):
        with ll[target]:
            queues[target].append((weight, node, chunks, index))
            loads[target] += weight

    def fetch(thread: int):
        for owner in policy.fetch_from(thread):
            with ll[owner]:
                queue = queues[owner]
                if not queue:
                    continue
                pos = policy.fetch_at(owner == thread, queue)
                item = queue[pos]
                del queue[pos]
                loads[owner] -= item[0]
            if owner != thread and bufs[thread] is not None:
                bufs[thread].instant(f"steal<-{owner}", "sched")
                bufs[thread].count("steals")
            return item

    def timed(thread: int, role: str, node: int, fn, *chunk):
        """Execute module: ``fn(node, *chunk)`` on ``thread``'s clock."""
        t0 = clock()
        result = fn(node, *chunk)
        t1 = clock()
        if bufs[thread] is not None:
            bufs[thread].task_span(role, node, t0, t1, *chunk)
        stats.compute_time[thread] += (t1 - t0) * 1e-9
        return result

    def complete(thread: int, node: int) -> None:
        """Resolve ``node``'s successors and allocate what became ready."""
        t0 = clock()
        stats.tasks_per_thread[thread] += 1
        with gl:
            remaining[0] -= 1
            ready = []
            for succ in succs[node]:
                indegrees[succ] -= 1
                if indegrees[succ] == 0:
                    ready.append(succ)
            ready = policy.release(node, ready)
        for succ in ready:
            push(policy.allocate(thread, succ, loads), weights[succ], succ)
        stats.sched_time[thread] += (clock() - t0) * 1e-9

    def worker(thread: int) -> None:
        buf = tracer.bind(thread) if tracer is not None else None
        try:
            while abort[0] is None:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TaskExecutionError(
                        f"propagation exceeded its deadline with "
                        f"~{remaining[0]} of {n} tasks unexecuted",
                        phase="deadline",
                    )
                t0 = clock()
                item = fetch(thread)
                t1 = clock()
                stats.sched_time[thread] += (t1 - t0) * 1e-9
                if item is None:
                    if remaining[0] == 0:
                        break
                    time.sleep(1e-5)
                    continue
                if buf is not None:
                    buf.span("fetch", "sched", t0, t1)
                    # Racy length read: a sample, not an invariant.
                    buf.sample_queue(len(queues[thread]))
                weight, node, chunks, index = item
                if chunks is None:
                    ranges = policy.split(node)
                    if ranges is None:
                        timed(thread, "task", node, execute)
                        complete(thread, node)
                        continue
                    # The fetching thread keeps chunk 0 and places the rest.
                    chunks = _ChunkSet(ranges)
                    if buf is not None:
                        buf.instant(f"partition#{node}", "sched")
                    splits[thread] += 1
                    weight /= len(ranges)
                    for sibling in range(1, len(ranges)):
                        target = policy.place_chunk(thread, sibling)
                        push(target, weight, node, chunks, sibling)
                lo, hi = chunks.ranges[index]
                result = timed(thread, "chunk", node, run_chunk, lo, hi)
                chunks_run[thread] += 1
                with chunks.lock:
                    chunks.results[index] = result
                    chunks.remaining -= 1
                    last = chunks.remaining == 0
                if last:
                    timed(thread, "combine", node, lambda n: combine(
                        n, chunks.results, chunks.ranges
                    ))
                    complete(thread, node)
        except BaseException as exc:  # re-raised in the caller after join
            abort[0] = exc

    # Algorithm 2 line 1: the initially-ready nodes, on behalf of each
    # thread in turn so that owner-keeps policies start out spread evenly.
    roots = [node for node in range(n) if indegrees[node] == 0]
    for offset, node in enumerate(policy.release(None, roots)):
        push(policy.allocate(offset % p, node, loads), weights[node], node)

    start_ns = clock()
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"sched-{i}")
        for i in range(p)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats.wall_time = (clock() - start_ns) * 1e-9
    if abort[0] is not None:
        raise abort[0]
    stats.tasks_executed = sum(stats.tasks_per_thread)
    stats.tasks_partitioned = sum(splits)
    stats.chunks_executed = sum(chunks_run)
    return stats


class _ThreadedExecutor:
    """A policy plus the loop, over a junction-tree task graph."""

    def __init__(self, num_threads: int = 4):
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads

    def run(
        self,
        graph: TaskGraph,
        state: PropagationState,
        tracer=None,
        deadline: Optional[float] = None,
    ) -> ExecutionStats:
        """Run the graph on :func:`run_loop` under this executor's policy.
        ``deadline`` is an absolute ``time.monotonic()`` instant; a
        whole-run overrun surfaces only as ``TaskExecutionError`` with
        ``phase="deadline"`` — no stats object outlives it."""
        tasks = graph.tasks
        return run_loop(
            self.policy(self.num_threads, tasks, self),
            graph.indegrees(),
            graph.succs,
            [task.weight for task in tasks],
            lambda tid: state.execute(tasks[tid]),
            lambda tid, lo, hi: state.execute_chunk(tasks[tid], lo, hi),
            lambda tid, *parts: state.combine_chunks(tasks[tid], *parts),
            tracer,
            deadline,
        )


class CollaborativeExecutor(_ThreadedExecutor):
    """Algorithm 2: collaborative task scheduling across ``num_threads``
    worker threads (the paper's ``P``).

    ``partition_threshold`` is the paper's δ: tasks whose partitionable
    slice exceeds this many potential-table entries are split, into at
    most ``max_chunks``; ``None`` disables partitioning (as in the Fig. 5
    rerooting experiments).  ``allocation`` is the Allocate module's
    load-balancing heuristic — the paper uses ``"min-workload"``;
    ``"round-robin"`` and ``"random"`` (seeded by ``seed``) exist for the
    ablation benchmarks — and ``fetch`` the Fetch module's order: the
    paper's ``"fifo"`` head-of-list, or ``"largest-first"``.
    """

    policy = ThresholdPolicy

    def __init__(
        self,
        num_threads: int = 4,
        partition_threshold: Optional[int] = None,
        max_chunks: int = 32,
        allocation: str = "min-workload",
        fetch: str = "fifo",
        seed: int = 0,
    ):
        super().__init__(num_threads)
        if partition_threshold is not None and partition_threshold < 1:
            raise ValueError("partition_threshold must be >= 1 or None")
        if max_chunks < 2:
            raise ValueError("max_chunks must be >= 2")
        if allocation not in ALLOCATION_HEURISTICS:
            raise ValueError(f"allocation not in {ALLOCATION_HEURISTICS}")
        if fetch not in FETCH_POLICIES:
            raise ValueError(f"fetch not in {FETCH_POLICIES}")
        self.partition_threshold = partition_threshold
        self.max_chunks = max_chunks
        self.allocation = allocation
        self.fetch = fetch
        self.seed = seed


class WorkStealingExecutor(CollaborativeExecutor):
    """Per-thread deques with steal-when-empty scheduling (Section 8):
    ownership replaces the allocation heuristic, so cross-thread lock
    traffic scales with the steal count instead of the task count."""

    policy = StealingPolicy

    def __init__(
        self,
        num_threads: int = 4,
        partition_threshold: Optional[int] = None,
        max_chunks: int = 32,
    ):
        super().__init__(num_threads, partition_threshold, max_chunks)


class LevelParallelExecutor(_ThreadedExecutor):
    """Level-synchronous parallel-for over task-graph levels (baseline 1)."""

    policy = LevelPolicy


class DataParallelExecutor(_ThreadedExecutor):
    """Serial task order, every primitive chunked across all threads
    (baseline 2: a fork/join per node-level primitive)."""

    policy = DataPolicy

    def __init__(self, num_threads: int = 4, min_chunk: int = 1):
        super().__init__(num_threads)
        if min_chunk < 1:
            raise ValueError("min_chunk must be >= 1")
        self.min_chunk = min_chunk


def run_dag(
    nodes: Mapping[Hashable, Callable],
    deps: Optional[Mapping[Hashable, Sequence[Hashable]]] = None,
    num_threads: int = 4,
    weights: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, object]:
    """Run any DAG of callables on the loop (Section 8: "a class of DAG
    structured computations"); returns ``{node: result}``.

    Each callable receives the results of its dependencies as positional
    arguments, in the order ``deps`` lists them, so
    ``run_dag({"a": lambda: 2, "b": lambda a: a + 1}, {"b": ["a"]})``
    gives ``{"a": 2, "b": 3}``.  ``weights`` (default 1 per node) drive
    the min-workload allocation, exactly like task weights in Algorithm 2.
    Exceptions raised by any callable abort the run and propagate.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    deps = deps or {}
    for node in itertools.chain(deps, *deps.values()):
        if node not in nodes:
            raise ValueError(f"deps mention unknown node {node!r}")
    try:
        TopologicalSorter(deps).prepare()
    except CycleError:
        raise ValueError("dependency graph contains a cycle") from None

    ids = list(nodes)
    index = {node: i for i, node in enumerate(ids)}
    dep_ids = [[index[d] for d in deps.get(node, ())] for node in ids]
    succs: List[List[int]] = [[] for _ in ids]
    for i, ds in enumerate(dep_ids):
        for d in ds:
            succs[d].append(i)
    weights = weights or {}
    results: List[object] = [None] * len(ids)

    def execute(i: int) -> None:
        results[i] = nodes[ids[i]](*[results[d] for d in dep_ids[i]])

    run_loop(
        Policy(num_threads),
        [len(ds) for ds in dep_ids],
        succs,
        [weights.get(node, 1.0) for node in ids],
        execute,
    )
    return dict(zip(ids, results))

"""Scheduling policies simulated by the multicore model.

Every policy consumes a :class:`~repro.tasks.task.TaskGraph` and produces a
:class:`~repro.simcore.result.SimResult`; speedups are computed against the
policy's own single-core run (as the paper does).

* :class:`SerialPolicy` — one core, topological order (the ``P = 1`` anchor).
* :class:`CollaborativePolicy` — the proposed method: greedy work-sharing
  list scheduling over the partition-expanded DAG, with per-task
  Allocate/Fetch overhead and lock contention.
* :class:`LevelParallelPolicy` — the OpenMP baseline: level-synchronous
  parallel-for, one barrier per level, no task partitioning, so a level's
  largest potential table stalls all other cores.
* :class:`DataParallelPolicy` — the data-parallel baseline: tasks in serial
  order, each primitive forked across all cores (a fork/join per primitive).
* :class:`CentralizedPolicy` — the PNL-like baseline of Fig. 6: a central
  scheduler dispatches tasks serially with a latency that grows with the
  number of processors.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.simcore.profiles import PlatformProfile
from repro.simcore.result import SimResult
from repro.simcore.trace import Trace
from repro.simcore.simgraph import (
    DEFAULT_MAX_CHUNKS,
    SimGraph,
    build_sim_graph,
)
from repro.tasks.task import TaskGraph

# Default δ of the Partition module, in potential-table entries.  Chosen so
# the paper's width-20 binary cliques (2^20-entry tables) are split while
# separator-sized tables are not.
DEFAULT_PARTITION_THRESHOLD = 1 << 19


def _greedy_schedule(
    sim: SimGraph,
    profile: PlatformProfile,
    num_cores: int,
    per_task_overhead: float,
    dispatch_latency: float = 0.0,
    dispatch_fn=None,
    worker_cores: Optional[int] = None,
    trace: "Optional[Trace]" = None,
    fault_plan=None,
) -> SimResult:
    """Event-driven greedy list scheduling.

    Tasks become ready when all predecessors finish; a ready task goes to
    the earliest-available core (the simulator's equivalent of allocating to
    the least-loaded local ready list).  ``per_task_overhead`` seconds of
    scheduling bookkeeping precede every task.  With ``dispatch_latency``
    > 0, ready tasks additionally pass through a serial dispatcher before
    they may start (the centralized baseline's bottleneck).

    ``fault_plan`` hooks the simulator's fault model
    (:class:`~repro.sched.faults.FaultPlan`): ``sim_kill_core`` removes a
    core from service before the Nth dispatch (its remaining work
    reschedules onto the survivors — the model of crash-and-re-execute
    recovery), and ``sim_delay_task`` stretches one node's duration (the
    model of a straggling/hung task under a deadline).  The simulator
    never kills its last core.
    """
    workers = worker_cores if worker_cores is not None else num_cores
    workers = max(workers, 1)
    compute = [0.0] * workers
    sched = [0.0] * workers
    core_free = [0.0] * workers
    indeg = sim.indegrees()
    finish = [0.0] * sim.num_nodes
    dispatcher_free = 0.0
    use_dispatcher = dispatch_latency > 0.0 or dispatch_fn is not None
    dead: set = set()
    dispatch_index = 0
    cores_lost = 0
    faults_injected = 0

    ready: List = []
    counter = 0
    for nid in sim.roots():
        heapq.heappush(ready, (0.0, counter, nid))
        counter += 1

    done = 0
    makespan = 0.0
    while ready:
        t_ready, _, nid = heapq.heappop(ready)
        if fault_plan is not None:
            victim = fault_plan.take_sim_kill(dispatch_index)
            if victim is not None:
                victim %= workers
                if victim not in dead and len(dead) < workers - 1:
                    dead.add(victim)
                    cores_lost += 1
                    faults_injected += 1
        dispatch_index += 1
        if use_dispatcher:
            latency = dispatch_latency
            if dispatch_fn is not None:
                latency = dispatch_fn(nid)
            dispatcher_free = max(dispatcher_free, t_ready) + latency
            t_ready = dispatcher_free
        alive = [c for c in range(workers) if c not in dead]
        core = min(alive, key=lambda c: (max(core_free[c], t_ready), c))
        start = max(core_free[core], t_ready)
        duration = profile.duration(sim.weights[nid], num_cores)
        if fault_plan is not None:
            extra = fault_plan.take_sim_delay(nid)
            if extra:
                duration += extra
                faults_injected += 1
        end = start + per_task_overhead + duration
        core_free[core] = end
        compute[core] += duration
        sched[core] += per_task_overhead
        finish[nid] = end
        if trace is not None:
            trace.add(nid, core, start, end)
        makespan = max(makespan, end)
        done += 1
        for s in sim.succs[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready_time = max(finish[d] for d in sim.deps[s])
                heapq.heappush(ready, (ready_time, counter, s))
                counter += 1
    if done != sim.num_nodes:
        raise RuntimeError("simulation deadlocked: dependency cycle")
    return SimResult(
        policy="",
        platform=profile.name,
        num_cores=num_cores,
        makespan=makespan,
        compute_time=compute,
        sched_time=sched,
        tasks_executed=done,
        cores_lost=cores_lost,
        faults_injected=faults_injected,
    )


class SerialPolicy:
    """Single-core execution with no scheduling overhead (the anchor)."""

    name = "serial"

    def simulate(
        self, graph: TaskGraph, profile: PlatformProfile, num_cores: int = 1
    ) -> SimResult:
        sim = build_sim_graph(graph)
        makespan = sum(profile.duration(w, 1) for w in sim.weights)
        return SimResult(
            policy=self.name,
            platform=profile.name,
            num_cores=1,
            makespan=makespan,
            compute_time=[makespan],
            sched_time=[0.0],
            tasks_executed=sim.num_nodes,
        )


class CollaborativePolicy:
    """The proposed collaborative scheduler (Algorithm 2) under the model.

    ``partition_threshold=None`` disables the Partition module, as in the
    Fig. 5 rerooting experiments.
    """

    name = "collaborative"

    def __init__(
        self,
        partition_threshold: Optional[int] = DEFAULT_PARTITION_THRESHOLD,
        max_chunks: int = DEFAULT_MAX_CHUNKS,
    ):
        self.partition_threshold = partition_threshold
        self.max_chunks = max_chunks

    def simulate(
        self,
        graph: TaskGraph,
        profile: PlatformProfile,
        num_cores: int,
        record_trace: bool = False,
        fault_plan=None,
    ) -> SimResult:
        sim = build_sim_graph(graph, self.partition_threshold, self.max_chunks)
        overhead, lock_hold = self._overheads(profile, num_cores)
        trace = Trace(num_cores) if record_trace else None
        result = _greedy_schedule(
            sim,
            profile,
            num_cores,
            overhead,
            dispatch_latency=lock_hold if num_cores > 1 else 0.0,
            trace=trace,
            fault_plan=fault_plan,
        )
        result.policy = self.name
        if record_trace:
            trace.check_no_overlap()
            result.trace = trace
            result.sim_graph = sim
        return result

    def _overheads(self, profile: PlatformProfile, num_cores: int):
        """``(per-task scheduling overhead, serialized lock hold)`` seconds.

        The global-task-list lock is a serialized resource: every task's
        Allocate pass holds it for ``lock_cost`` seconds.  Irrelevant for
        coarse tasks, but it floors the makespan of fine-grained graphs
        on many cores (the paper's Section 8 concern).
        """
        return profile.task_sched_overhead(num_cores), profile.lock_cost


class WorkStealingPolicy(CollaborativePolicy):
    """Simulated work-stealing variant of the collaborative scheduler.

    The paper's Section 8 worries that shared-lock contention will grow
    with core count.  Work stealing keeps ready tasks in per-thread deques
    and only takes a shared lock on the rare steal, so the per-task
    overhead loses its contention term.  The matching real-thread
    implementation is :class:`repro.sched.core.WorkStealingExecutor`.
    """

    name = "work-stealing"

    def _overheads(self, profile: PlatformProfile, num_cores: int):
        # Own-deque push/pop needs no contended lock; only the (short)
        # dependency-counter update remains a shared serialized section.
        return (
            profile.sched_overhead + profile.lock_cost,
            profile.lock_cost * 0.25,
        )


class LevelParallelPolicy:
    """OpenMP-style level-synchronous parallel-for baseline.

    Models an OpenMP port of the sequential code: the unit of parallel work
    is one *clique update* (the whole four-primitive pipeline per incoming
    message), distributed over threads with a parallel-for per dependency
    level and a barrier in between.  There is no task partitioning, so a
    level's heaviest clique bounds the level's time, and the narrow levels
    near the root run nearly serially — the two effects that keep this
    baseline around half the collaborative scheduler's speedup.
    """

    name = "openmp-level"

    def simulate(
        self, graph: TaskGraph, profile: PlatformProfile, num_cores: int
    ) -> SimResult:
        units, unit_weights, unit_deps = self._clique_units(graph)
        p = num_cores
        compute = [0.0] * p
        sched = [0.0] * p
        makespan = 0.0
        region_overhead = profile.fork_join_cost * max(p - 1, 0)
        barrier = profile.barrier_cost * max(p - 1, 0)
        for level in self._levels(unit_deps):
            # LPT greedy over clique updates: an optimistic model of
            # OpenMP dynamic scheduling of the per-level loop.
            loads = [0.0] * p
            for uid in sorted(level, key=lambda u: unit_weights[u], reverse=True):
                core = min(range(p), key=lambda c: loads[c])
                duration = profile.duration(unit_weights[uid], p)
                loads[core] += duration
                compute[core] += duration
            makespan += max(loads) + region_overhead + barrier
            for core in range(p):
                sched[core] += region_overhead + barrier
        return SimResult(
            policy=self.name,
            platform=profile.name,
            num_cores=p,
            makespan=makespan,
            compute_time=compute,
            sched_time=sched,
            tasks_executed=graph.num_tasks,
        )

    @staticmethod
    def _clique_units(graph: TaskGraph):
        """Aggregate tasks into (phase, clique) units with induced deps."""
        unit_ids = {}
        unit_weights: List[float] = []
        task_unit: List[int] = []
        for task in graph.tasks:
            key = (task.phase, task.clique)
            if key not in unit_ids:
                unit_ids[key] = len(unit_weights)
                unit_weights.append(0.0)
            uid = unit_ids[key]
            task_unit.append(uid)
            unit_weights[uid] += task.weight
        unit_deps: List[set] = [set() for _ in unit_weights]
        for task in graph.tasks:
            uid = task_unit[task.tid]
            for d in graph.deps[task.tid]:
                du = task_unit[d]
                if du != uid:
                    unit_deps[uid].add(du)
        return unit_ids, unit_weights, unit_deps

    @staticmethod
    def _levels(unit_deps: List[set]) -> List[List[int]]:
        n = len(unit_deps)
        succs: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for uid, deps in enumerate(unit_deps):
            indeg[uid] = len(deps)
            for d in deps:
                succs[d].append(uid)
        depth = [0] * n
        ready = [u for u in range(n) if indeg[u] == 0]
        order = []
        while ready:
            u = ready.pop()
            order.append(u)
            for s in succs[u]:
                depth[s] = max(depth[s], depth[u] + 1)
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != n:
            raise RuntimeError("clique-unit graph contains a cycle")
        if n == 0:
            return []
        buckets: List[List[int]] = [[] for _ in range(max(depth) + 1)]
        for u, d in enumerate(depth):
            buckets[d].append(u)
        return buckets


class _PerPrimitivePolicy:
    """Shared machinery for the two per-primitive baselines.

    Tasks run in serial topological order; each primitive is chunked across
    all cores, paying a parallel-region overhead per primitive and the
    same-table streaming cap (all cores scan one potential table at once,
    saturating the shared memory controllers — see
    :class:`~repro.simcore.profiles.PlatformProfile`).
    """

    name = "per-primitive"
    static_scheduling = False
    # Spawning a worker for fewer entries than this costs more than it
    # saves; both baselines bound their thread count accordingly.
    min_chunk_entries = 4096

    def _region_overhead(self, profile: PlatformProfile, pieces: int) -> float:
        raise NotImplementedError

    def simulate(
        self, graph: TaskGraph, profile: PlatformProfile, num_cores: int
    ) -> SimResult:
        p = num_cores
        compute = [0.0] * p
        sched = [0.0] * p
        makespan = 0.0
        for task in graph.tasks:
            by_size = -(-max(task.partition_size, 1) // self.min_chunk_entries)
            pieces = max(1, min(p, by_size))
            span = profile.streamed_duration(
                task.weight, pieces, p, static=self.static_scheduling
            )
            region_overhead = self._region_overhead(profile, pieces)
            for core in range(pieces):
                compute[core] += span
            for core in range(p):
                sched[core] += region_overhead / max(p, 1)
            makespan += span + region_overhead
        # Serial task order: the makespan is the sum over primitives.
        return SimResult(
            policy=self.name,
            platform=profile.name,
            num_cores=p,
            makespan=makespan,
            compute_time=compute,
            sched_time=sched,
            tasks_executed=graph.num_tasks,
        )


class DataParallelPolicy(_PerPrimitivePolicy):
    """"Data parallel method": explicit threads spawned per primitive.

    Pays a thread fork/join per primitive but schedules chunks dynamically
    (full ``stream_cap`` efficiency).
    """

    name = "data-parallel"
    static_scheduling = False

    def _region_overhead(self, profile: PlatformProfile, pieces: int) -> float:
        return profile.fork_join_cost * max(pieces - 1, 0)


class OpenMPPolicy(_PerPrimitivePolicy):
    """OpenMP pragmas on the sequential code's primitive loops.

    Cheaper region entry than explicit thread spawning (persistent thread
    pool), but static loop scheduling wastes part of the effective
    same-table streams (``omp_efficiency``).
    """

    name = "openmp"
    static_scheduling = True

    def _region_overhead(self, profile: PlatformProfile, pieces: int) -> float:
        return profile.barrier_cost * max(pieces - 1, 0)


class CentralizedPolicy:
    """PNL-like centralized scheduler whose dispatch cost grows with P.

    Models the behaviour the paper observes in Fig. 6: beyond ~4 processors
    the serial dispatcher (coordination/message cost ``dispatch_base +
    dispatch_per_core * P``) dominates and execution time *increases*.
    """

    name = "centralized-pnl"

    def simulate(
        self, graph: TaskGraph, profile: PlatformProfile, num_cores: int
    ) -> SimResult:
        sim = build_sim_graph(graph)
        if num_cores <= 1:
            makespan = sum(
                profile.duration(w, 1)
                + profile.dispatch_latency(1, w / profile.flops_per_second)
                for w in sim.weights
            )
            return SimResult(
                policy=self.name,
                platform=profile.name,
                num_cores=1,
                makespan=makespan,
                compute_time=[makespan],
                sched_time=[0.0],
                tasks_executed=sim.num_nodes,
            )

        def dispatch(nid: int) -> float:
            serial = sim.weights[nid] / profile.flops_per_second
            return profile.dispatch_latency(num_cores, serial)

        result = _greedy_schedule(
            sim,
            profile,
            num_cores,
            per_task_overhead=0.0,
            dispatch_fn=dispatch,
        )
        result.policy = self.name
        result.num_cores = num_cores
        return result

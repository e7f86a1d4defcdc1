"""Tasks and the task dependency graph.

A *task* is one execution of a node-level primitive (Section 5.1).  The
:class:`TaskGraph` is the DAG ``G`` of Section 5.2: tasks are vertices,
edges are precedence constraints, and each task carries the weight estimate
the scheduler balances on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.potential.primitives import PrimitiveKind, primitive_flops

COLLECT = "collect"
DISTRIBUTE = "distribute"
PHASES = (COLLECT, DISTRIBUTE)


@dataclass
class Task:
    """One node-level primitive execution.

    Attributes
    ----------
    tid:
        Dense task id; equals the task's offset in the graph's task list so
        the Allocate module can look tasks up in O(1) (Section 6).
    kind:
        Which primitive this task runs.
    phase:
        ``"collect"`` (leaves -> root) or ``"distribute"`` (root -> leaves).
    edge:
        The tree edge ``(parent, child)`` whose message this task serves.
    clique:
        The clique whose potential the task's pipeline updates (the parent
        during collect, the child during distribute).
    input_size / output_size:
        Potential-table entry counts, used for weights and partitioning.
    """

    tid: int
    kind: PrimitiveKind
    phase: str
    edge: Tuple[int, int]
    clique: int
    input_size: int
    output_size: int

    @property
    def weight(self) -> float:
        """Estimated operation count (the scheduler's load unit ``w_T``)."""
        return float(primitive_flops(self.kind, self.input_size, self.output_size))

    @property
    def partition_size(self) -> int:
        """Size of the index space the Partition module may split.

        Marginalization partitions its input (partial sums are added);
        the other primitives partition their output (chunks concatenate).
        """
        if self.kind is PrimitiveKind.MARGINALIZE:
            return self.input_size
        return self.output_size

    def __repr__(self) -> str:
        return (
            f"Task({self.tid}, {self.kind.value}, {self.phase}, "
            f"edge={self.edge}, clique={self.clique})"
        )


class TaskGraph:
    """DAG of tasks with predecessor/successor adjacency.

    Construction is append-only: :meth:`add_task` with explicit dependency
    ids (which must already exist, so the graph is acyclic by construction).
    """

    def __init__(self):
        self.tasks: List[Task] = []
        self.deps: List[List[int]] = []
        self.succs: List[List[int]] = []
        # topological_order()'s result until the next add_task.
        self._order: Optional[Tuple[int, ...]] = None
        # The graph compiled into steps (TableLayout.step_list) and, for a
        # tree's full graph, into waves (TableLayout.wave_list: () once the
        # graph has run, then the compiled waves), until the next add_task.
        self._steps: Optional[Tuple[object, object]] = None
        self._waves: Optional[Tuple[object, ...]] = None

    def add_task(
        self,
        kind: PrimitiveKind,
        phase: str,
        edge: Tuple[int, int],
        clique: int,
        input_size: int,
        output_size: int,
        deps: Optional[List[int]] = None,
    ) -> int:
        """Append a task; returns its id."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        tid = len(self.tasks)
        deps = list(deps or [])
        for d in deps:
            if not 0 <= d < tid:
                raise ValueError(
                    f"task {tid} depends on not-yet-created task {d}"
                )
        task = Task(tid, kind, phase, edge, clique, input_size, output_size)
        self.tasks.append(task)
        self.deps.append(deps)
        self.succs.append([])
        for d in deps:
            self.succs[d].append(tid)
        self._order = None
        self._steps = self._waves = None
        return tid

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def indegrees(self) -> List[int]:
        """Initial dependency degree of every task."""
        return [len(d) for d in self.deps]

    def roots(self) -> List[int]:
        """Tasks with no dependencies (initially schedulable)."""
        return [t.tid for t in self.tasks if not self.deps[t.tid]]

    def topological_order(self) -> Tuple[int, ...]:
        """Kahn topological order, computed once per graph (a tuple: every
        run of the graph iterates the same one); raises if a cycle slipped
        in."""
        if self._order is None:
            self._order = tuple(self._kahn())
        return self._order

    def _kahn(self) -> List[int]:
        indeg = self.indegrees()
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: List[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for s in self.succs[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != self.num_tasks:
            raise RuntimeError("task graph contains a cycle")
        return order

    def levels(self) -> List[List[int]]:
        """Tasks grouped by longest-path depth.

        Level ``i`` contains tasks whose heaviest dependency chain has ``i``
        predecessors; a level-synchronous (OpenMP-like) executor runs one
        level per parallel-for with a barrier in between.
        """
        depth = [0] * self.num_tasks
        for tid in self.topological_order():
            for s in self.succs[tid]:
                depth[s] = max(depth[s], depth[tid] + 1)
        if not self.tasks:
            return []
        buckets: List[List[int]] = [[] for _ in range(max(depth) + 1)]
        for tid, d in enumerate(depth):
            buckets[d].append(tid)
        return buckets

    def total_work(self) -> float:
        """Sum of all task weights (the serial-work lower bound ``T_1``)."""
        return sum(t.weight for t in self.tasks)

    def critical_path_work(self) -> float:
        """Weight of the heaviest dependency chain (the span ``T_inf``)."""
        finish = [0.0] * self.num_tasks
        for tid in self.topological_order():
            start = max((finish[d] for d in self.deps[tid]), default=0.0)
            finish[tid] = start + self.tasks[tid].weight
        return max(finish, default=0.0)

    def validate(self) -> None:
        """Raise if adjacency is inconsistent or the graph is cyclic."""
        for tid, succs in enumerate(self.succs):
            for s in succs:
                if tid not in self.deps[s]:
                    raise ValueError(f"edge {tid}->{s} missing from deps")
        for tid, deps in enumerate(self.deps):
            for d in deps:
                if tid not in self.succs[d]:
                    raise ValueError(f"edge {d}->{tid} missing from succs")
        # Checked afresh: a caller that edited the adjacency lists directly
        # is exactly what validate() is for.
        self._order = tuple(self._kahn())
        self._steps = self._waves = None

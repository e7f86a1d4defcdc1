"""Task decomposition of evidence propagation (Section 5).

Evidence propagation is decomposed into node-level primitive *tasks*; the
clique updating graph captures the coarse two-phase (collect/distribute)
dependencies and the task dependency graph refines each clique update into
its local primitive DAG.
"""

from repro.tasks.task import Task, TaskGraph
from repro.tasks.clique_graph import CliqueUpdatingGraph, build_clique_updating_graph
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState
from repro.tasks.partition_plan import combine_flops, plan_partition

__all__ = [
    "Task",
    "TaskGraph",
    "CliqueUpdatingGraph",
    "build_clique_updating_graph",
    "build_task_graph",
    "PropagationState",
    "plan_partition",
    "combine_flops",
]

"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the contribution of each
scheduler ingredient on Junction tree 1 (Xeon profile):

* partition threshold δ: off / coarse / default / fine,
* rerooting on/off under the full scheduler,
* lock contention: shared-lock collaborative scheduling vs work stealing,
* allocation heuristic in the *threaded* scheduler (real wall clock, so
  its numbers vary run to run): min-workload vs round-robin vs random.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.tables import format_series_table
from repro.jt.generation import paper_tree, synthetic_tree
from repro.jt.rerooting import reroot, reroot_optimally
from repro.sched import CollaborativeExecutor
from repro.simcore.machine import Machine
from repro.simcore.policies import CollaborativePolicy, WorkStealingPolicy
from repro.simcore.profiles import XEON
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState

CORES = (1, 2, 4, 8)

Rows = Dict[str, List[float]]


def _speedups(policy, graph) -> List[float]:
    return Machine(XEON, CORES[-1]).speedup_curve(policy, graph, CORES)


def _partition_threshold(jt1_graph) -> Rows:
    return {
        label: _speedups(
            CollaborativePolicy(partition_threshold=delta), jt1_graph
        )
        for label, delta in (
            ("off", None),
            ("2^22 (coarse)", 1 << 22),
            ("2^19 (default)", 1 << 19),
            ("2^16 (fine)", 1 << 16),
        )
    }


def _rerooting(jt1, jt1_graph) -> Rows:
    # A deliberately badly-rooted workload: JT1 rerooted at a leaf.
    leaf_graph = build_task_graph(reroot(jt1, jt1.leaves()[-1]))
    return {
        "leaf root": _speedups(CollaborativePolicy(), leaf_graph),
        "Algorithm 1": _speedups(CollaborativePolicy(), jt1_graph),
    }


def _lock_contention(jt1_graph) -> Rows:
    """Scheduling overhead (% of busy time) with and without shared locks."""
    return {
        label: [
            policy.simulate(jt1_graph, XEON, p).sched_ratio() * 100
            for p in CORES
        ]
        for label, policy in (
            ("collaborative", CollaborativePolicy()),
            ("work-stealing", WorkStealingPolicy()),
        )
    }


def _allocation() -> Rows:
    """``[load imbalance, sched ratio]`` of the threaded executor per
    Allocate-module heuristic."""
    tree = synthetic_tree(48, clique_width=6, states=2, avg_children=3, seed=9)
    tree.initialize_potentials(np.random.default_rng(9))
    graph = build_task_graph(tree)
    rows = {}
    for allocation in ("min-workload", "round-robin", "random"):
        executor = CollaborativeExecutor(num_threads=4, allocation=allocation)
        stats = executor.run(graph, PropagationState(tree))
        rows[allocation] = [stats.load_imbalance(), stats.sched_ratio()]
    return rows


def run() -> Dict[str, Rows]:
    jt1 = paper_tree(1)
    jt1_graph = build_task_graph(reroot_optimally(jt1)[0])
    return {
        "partition_threshold": _partition_threshold(jt1_graph),
        "rerooting": _rerooting(jt1, jt1_graph),
        "lock_contention": _lock_contention(jt1_graph),
        "allocation": _allocation(),
    }


def render(result) -> str:
    return "\n\n".join(
        [
            format_series_table(
                "Ablation — partition threshold δ, JT1 speedup vs #cores "
                "(Xeon)",
                "δ",
                CORES,
                result["partition_threshold"],
            ),
            format_series_table(
                "Ablation — rerooting under the full scheduler, JT1 (Xeon)",
                "root",
                CORES,
                result["rerooting"],
            ),
            format_series_table(
                "Ablation — scheduling overhead %% vs #cores, JT1 (Xeon)",
                "scheduler",
                CORES,
                result["lock_contention"],
                fmt="{:.3f}",
            ),
            format_series_table(
                "Ablation — Allocate-module heuristic (threaded, 4 threads)",
                "heuristic",
                ("imbalance", "sched_ratio"),
                result["allocation"],
                fmt="{:.3f}",
            ),
        ]
    )


def verdicts(result) -> List[Tuple[str, bool]]:
    delta = result["partition_threshold"]
    root = result["rerooting"]
    locks = result["lock_contention"]
    return [
        (
            "partitioning helps at 8 cores on JT1's skewed table sizes",
            delta["2^19 (default)"][-1] > delta["off"][-1],
        ),
        (
            "Algorithm 1's root is no worse than a leaf root at 8 cores",
            root["Algorithm 1"][-1] >= root["leaf root"][-1] * 0.99,
        ),
        (
            "stealing removes the contention term: lower overhead at 8 cores",
            locks["work-stealing"][-1] < locks["collaborative"][-1],
        ),
        (
            "threaded run is sane under every heuristic: imbalance >= 1, "
            "0 <= sched ratio <= 1",
            all(
                imbalance >= 1.0 and 0.0 <= ratio <= 1.0
                for imbalance, ratio in result["allocation"].values()
            ),
        ),
    ]

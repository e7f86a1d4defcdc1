"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the contribution of each
scheduler ingredient on Junction tree 1 (Xeon profile, 8 cores):

* partition threshold δ: off / coarse / default / fine,
* allocation heuristic in the threaded scheduler: min-workload vs
  round-robin vs random,
* rerooting on/off under the full scheduler.
"""

from common import record

import numpy as np

from repro.experiments import format_series_table
from repro.jt.generation import paper_tree, synthetic_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import XEON
from repro.tasks.dag import build_task_graph

CORES = (1, 2, 4, 8)


def test_partition_threshold_ablation(benchmark):
    def run():
        tree, _, _ = reroot_optimally(paper_tree(1))
        graph = build_task_graph(tree)
        rows = {}
        for label, delta in (
            ("off", None),
            ("2^22 (coarse)", 1 << 22),
            ("2^19 (default)", 1 << 19),
            ("2^16 (fine)", 1 << 16),
        ):
            policy = CollaborativePolicy(partition_threshold=delta)
            base = policy.simulate(graph, XEON, 1).makespan
            rows[label] = [
                base / policy.simulate(graph, XEON, p).makespan
                for p in CORES
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "ablation_partition_threshold",
        format_series_table(
            "Ablation — partition threshold δ, JT1 speedup vs #cores (Xeon)",
            "δ",
            CORES,
            rows,
        ),
    )
    # Partitioning must help at 8 cores on JT1's skewed table sizes.
    assert rows["2^19 (default)"][-1] > rows["off"][-1]


def test_rerooting_ablation(benchmark):
    def run():
        rows = {}
        policy = CollaborativePolicy()
        # A deliberately badly-rooted workload: JT1 rerooted at a leaf.
        tree = paper_tree(1)
        leaf_rooted_tree = tree
        from repro.jt.rerooting import reroot

        leaf = tree.leaves()[-1]
        leaf_rooted = reroot(tree, leaf)
        optimal, _, _ = reroot_optimally(tree)
        for label, t in (("leaf root", leaf_rooted), ("Algorithm 1", optimal)):
            graph = build_task_graph(t)
            base = policy.simulate(graph, XEON, 1).makespan
            rows[label] = [
                base / policy.simulate(graph, XEON, p).makespan
                for p in CORES
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "ablation_rerooting",
        format_series_table(
            "Ablation — rerooting under the full scheduler, JT1 (Xeon)",
            "root",
            CORES,
            rows,
        ),
    )
    assert rows["Algorithm 1"][-1] >= rows["leaf root"][-1] * 0.99


def test_fetch_priority_ablation(benchmark):
    """FIFO (the paper's Fetch module) vs critical-path-first ordering."""
    from repro.simcore.priority import CriticalPathPolicy

    def run():
        tree, _, _ = reroot_optimally(paper_tree(3))
        graph = build_task_graph(tree)
        rows = {}
        for label, policy in (
            ("fifo (paper)", CriticalPathPolicy("fifo")),
            ("weight-first", CriticalPathPolicy("weight")),
            ("upward-rank", CriticalPathPolicy("upward-rank")),
        ):
            base = policy.simulate(graph, XEON, 1).makespan
            rows[label] = [
                base / policy.simulate(graph, XEON, p).makespan
                for p in CORES
            ]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "ablation_fetch_priority",
        format_series_table(
            "Ablation — Fetch-module ordering, JT3 speedup vs #cores (Xeon)",
            "fetch order",
            CORES,
            rows,
        ),
    )
    # Critical-path-first must not lose to FIFO on a span-bound tree.
    assert rows["upward-rank"][-1] >= rows["fifo (paper)"][-1] * 0.99


def test_lock_contention_ablation(benchmark):
    """Shared-lock collaborative scheduling vs work stealing (Section 8)."""
    from repro.simcore.policies import WorkStealingPolicy

    def run():
        tree, _, _ = reroot_optimally(paper_tree(1))
        graph = build_task_graph(tree)
        rows = {}
        for label, policy in (
            ("collaborative", CollaborativePolicy()),
            ("work-stealing", WorkStealingPolicy()),
        ):
            rows[label] = []
            for p in CORES:
                result = policy.simulate(graph, XEON, p)
                rows[label].append(result.sched_ratio() * 100)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "ablation_lock_contention",
        format_series_table(
            "Ablation — scheduling overhead %% vs #cores, JT1 (Xeon)",
            "scheduler",
            CORES,
            rows,
            fmt="{:.3f}",
        ),
    )
    # Stealing removes the contention term: overhead grows slower with P.
    assert rows["work-stealing"][-1] < rows["collaborative"][-1]


def test_allocation_heuristic_ablation(benchmark):
    """Threaded-scheduler ablation: allocation heuristics' load balance."""
    from repro.sched import CollaborativeExecutor
    from repro.tasks.state import PropagationState

    tree = synthetic_tree(
        48, clique_width=6, states=2, avg_children=3, seed=9
    )
    tree.initialize_potentials(np.random.default_rng(9))
    graph = build_task_graph(tree)

    def run():
        rows = {}
        for allocation in ("min-workload", "round-robin", "random"):
            executor = CollaborativeExecutor(
                num_threads=4, allocation=allocation
            )
            state = PropagationState(tree)
            stats = executor.run(graph, state)
            rows[allocation] = [stats.load_imbalance(), stats.sched_ratio()]
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "ablation_allocation",
        format_series_table(
            "Ablation — Allocate-module heuristic (threaded, 4 threads)",
            "heuristic",
            ("imbalance", "sched_ratio"),
            rows,
            fmt="{:.3f}",
        ),
    )
    for allocation, (imbalance, ratio) in rows.items():
        assert imbalance >= 1.0
        assert 0.0 <= ratio <= 1.0

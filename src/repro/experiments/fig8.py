"""Fig. 8: load balance and scheduling overhead of the collaborative scheduler.

On junction tree 1 (Opteron profile, as in the paper), for each thread
count we report (a) the per-thread computation time — near-equal bars mean
the min-workload Allocate module balances the load — and (b) the
scheduling overhead as a fraction of busy time, which the paper bounds at
0.9 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.jt.generation import paper_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import OPTERON, PlatformProfile
from repro.tasks.dag import build_task_graph


@dataclass
class Fig8Result:
    """Per-thread-count load-balance and overhead data."""

    compute_per_thread: Dict[int, List[float]] = field(default_factory=dict)
    sched_ratio: Dict[int, float] = field(default_factory=dict)
    load_imbalance: Dict[int, float] = field(default_factory=dict)


def run(
    which_tree: int = 1,
    thread_counts: Sequence[int] = tuple(range(1, 9)),
    profile: PlatformProfile = OPTERON,
    seed: int = 0,
) -> Fig8Result:
    tree, _, _ = reroot_optimally(paper_tree(which_tree, seed=seed))
    graph = build_task_graph(tree)
    policy = CollaborativePolicy()
    result = Fig8Result()
    for p in thread_counts:
        sim = policy.simulate(graph, profile, p)
        result.compute_per_thread[p] = list(sim.compute_time)
        result.sched_ratio[p] = sim.sched_ratio()
        result.load_imbalance[p] = sim.load_imbalance()
    return result


def render(result: Fig8Result) -> str:
    lines = [
        "Fig. 8 — collaborative scheduler on Junction tree 1 "
        "(AMD Opteron-like)",
        "(a) per-thread computation time (s); (b) sched overhead ratio",
        f"{'P':>2}  {'per-thread compute times':<58}  {'imbal':>6}  {'ratio':>7}",
        "-" * 82,
    ]
    for p, times in result.compute_per_thread.items():
        times_str = " ".join(f"{t:.3f}" for t in times)
        lines.append(
            f"{p:>2}  {times_str:<58}  "
            f"{result.load_imbalance[p]:>6.3f}  "
            f"{result.sched_ratio[p]*100:>6.3f}%"
        )
    return "\n".join(lines)


def verdicts(result: Fig8Result) -> List[Tuple[str, bool]]:
    return [
        (
            "(a) near-equal workload across threads: imbalance < 1.10",
            all(v < 1.10 for v in result.load_imbalance.values()),
        ),
        (
            "(b) scheduling overhead below the paper's 0.9 % of execution time",
            all(v < 0.009 for v in result.sched_ratio.values()),
        ),
        (
            "one computation time per thread",
            all(len(t) == p for p, t in result.compute_per_thread.items()),
        ),
    ]

"""Many-core projection (Section 8's outlook).

The paper warns that "as more cores are integrated into a single chip,
some overheads such as lock contention will increase dramatically".  This
experiment extrapolates the calibrated model to 16-64 cores and compares
the shared-lock collaborative scheduler with the work-stealing variant:
contention caps the former while the latter keeps scaling until the task
graph's own parallelism runs out.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.tables import format_series_table
from repro.jt.generation import synthetic_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy, WorkStealingPolicy
from repro.simcore.profiles import XEON, PlatformProfile
from repro.tasks.dag import build_task_graph


CORES = (1, 2, 4, 8, 16, 32, 64)


def run(
    cores: Sequence[int] = CORES,
    profile: PlatformProfile = XEON,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """Speedups of both schedulers at escalating core counts.

    The workload is deliberately *fine-grained* (JT1's structure with
    width-10 binary cliques, ~1K-entry tables): coarse tasks hide lock
    costs entirely, while thousands of microsecond-scale tasks expose the
    serialized global-list lock exactly as the paper predicts.
    """
    tree = synthetic_tree(
        num_cliques=1024,
        clique_width=10,
        states=2,
        avg_children=4,
        seed=seed,
    )
    tree, _, _ = reroot_optimally(tree)
    graph = build_task_graph(tree)
    results: Dict[str, List[float]] = {}
    for name, policy in (
        ("collaborative (shared locks)", CollaborativePolicy()),
        ("work-stealing (Section 8)", WorkStealingPolicy()),
    ):
        base = policy.simulate(graph, profile, 1).makespan
        results[name] = [
            base / policy.simulate(graph, profile, p).makespan
            for p in cores
        ]
    return results


def render(result) -> str:
    return format_series_table(
        "Extension — JT1 speedup projected to many-core (Xeon-like)",
        "scheduler",
        CORES,
        result,
    )


def verdicts(result) -> List[Tuple[str, bool]]:
    shared = result["collaborative (shared locks)"]
    stealing = result["work-stealing (Section 8)"]
    return [
        (
            "the serialized global-list lock caps the shared-lock scheduler "
            "below 8x",
            max(shared) < 8.0,
        ),
        ("and then degrades it: 64 cores below its peak", shared[-1] < max(shared)),
        (
            "work stealing at 64 cores > 3x the shared-lock scheduler",
            stealing[-1] > 3.0 * shared[-1],
        ),
        (
            "work stealing keeps scaling past 8 cores: > 12x at 16",
            stealing[CORES.index(16)] > 12.0,
        ),
    ]

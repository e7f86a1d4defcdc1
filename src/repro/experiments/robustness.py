"""Seed-robustness of the headline reproduction.

The synthetic workloads are random; a reproduction resting on one lucky
seed would be fragile.  This experiment regenerates Junction tree 1 under
several seeds and reports the spread of the collaborative scheduler's
8-core speedup — the headline 7.4x should be a property of the workload
*class*, not of seed 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.jt.generation import paper_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import XEON, PlatformProfile
from repro.tasks.dag import build_task_graph


@dataclass
class RobustnessResult:
    seeds: List[int]
    speedups: List[float]

    @property
    def mean(self) -> float:
        return sum(self.speedups) / len(self.speedups)

    @property
    def spread(self) -> float:
        return max(self.speedups) - min(self.speedups)


def run(
    seeds: Sequence[int] = tuple(range(5)),
    cores: int = 8,
    which_tree: int = 1,
    profile: PlatformProfile = XEON,
) -> RobustnessResult:
    """Collaborative ``cores``-core speedup for each workload seed."""
    policy = CollaborativePolicy()
    speedups = []
    for seed in seeds:
        tree, _, _ = reroot_optimally(paper_tree(which_tree, seed=seed))
        graph = build_task_graph(tree)
        base = policy.simulate(graph, profile, 1).makespan
        speedups.append(
            base / policy.simulate(graph, profile, cores).makespan
        )
    return RobustnessResult(list(seeds), speedups)


def render(result: RobustnessResult) -> str:
    return "\n".join(
        [
            "Robustness — JT1 collaborative 8-core speedup across "
            "workload seeds",
            "seed     " + "  ".join(f"{s:>5}" for s in result.seeds),
            "speedup  " + "  ".join(f"{v:>5.2f}" for v in result.speedups),
            f"mean {result.mean:.2f}, spread {result.spread:.2f}",
        ]
    )


def verdicts(result: RobustnessResult) -> List[Tuple[str, bool]]:
    return [
        (
            "every seed lands near the paper's 7.4: speedup > 7.0",
            all(s > 7.0 for s in result.speedups),
        ),
        ("the spread across seeds is small: < 0.5", result.spread < 0.5),
    ]

"""Fig. 7: scalability of the three parallel methods on both platforms.

For junction trees 1-3 and both x86 platform profiles, we simulate the
OpenMP baseline, the data-parallel baseline and the proposed collaborative
scheduler at 1-8 cores and report speedup over each method's own
single-core run (as the paper plots it).

Headline checks: the proposed method is near-linear (7.4x on Xeon / 7.1x
on Opteron at 8 cores on JT1) and roughly 2x the baselines.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.tables import format_series_table
from repro.jt.generation import paper_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import (
    CollaborativePolicy,
    DataParallelPolicy,
    OpenMPPolicy,
)
from repro.simcore.profiles import OPTERON, XEON, PlatformProfile
from repro.tasks.dag import build_task_graph

METHODS = {
    "openmp": OpenMPPolicy,
    "data-parallel": DataParallelPolicy,
    "collaborative": CollaborativePolicy,
}


CORES = (1, 2, 4, 8)


def run(
    trees: Sequence[int] = (1, 2, 3),
    cores: Sequence[int] = CORES,
    platforms: Sequence[PlatformProfile] = (XEON, OPTERON),
    seed: int = 0,
) -> Dict[str, Dict[str, List[float]]]:
    """Speedups: ``{platform: {"JTn/method": [speedup per core count]}}``."""
    results: Dict[str, Dict[str, List[float]]] = {}
    graphs = {}
    for which in trees:
        tree, _, _ = reroot_optimally(paper_tree(which, seed=seed))
        graphs[which] = build_task_graph(tree)
    for profile in platforms:
        rows: Dict[str, List[float]] = {}
        for which in trees:
            graph = graphs[which]
            for name, policy_cls in METHODS.items():
                policy = policy_cls()
                base = policy.simulate(graph, profile, 1).makespan
                rows[f"JT{which}/{name}"] = [
                    base / policy.simulate(graph, profile, p).makespan
                    for p in cores
                ]
        results[profile.name] = rows
    return results


def render(result) -> str:
    return "\n\n".join(
        format_series_table(
            f"Fig. 7 — speedup vs #cores ({platform})",
            "workload/method",
            CORES,
            rows,
        )
        for platform, rows in result.items()
    )


def verdicts(result) -> List[Tuple[str, bool]]:
    """The paper's headlines: 7.4x / 7.1x at 8 cores, ~2.1x over OpenMP
    and ~1.8x over the data-parallel method."""
    xeon = {name: sp[-1] for name, sp in result[XEON.name].items()}
    opteron = {name: sp[-1] for name, sp in result[OPTERON.name].items()}
    at_8 = [
        (name, sp[-1]) for rows in result.values() for name, sp in rows.items()
    ]
    return [
        (
            "JT1 collaborative at 8 cores on Xeon > 7.0 (paper 7.4)",
            xeon["JT1/collaborative"] > 7.0,
        ),
        (
            "JT1 collaborative at 8 cores on Opteron > 6.8 (paper 7.1)",
            opteron["JT1/collaborative"] > 6.8,
        ),
        (
            "collaborative / OpenMP on JT1, Xeon, in 1.6-2.9 (paper 2.1)",
            1.6 < xeon["JT1/collaborative"] / xeon["JT1/openmp"] < 2.9,
        ),
        (
            "collaborative / data-parallel on JT1, Opteron, in 1.4-2.6 "
            "(paper 1.8)",
            1.4
            < opteron["JT1/collaborative"] / opteron["JT1/data-parallel"]
            < 2.6,
        ),
        (
            "collaborative is near-linear on every workload: > 6.0 at 8 cores",
            all(s > 6.0 for n, s in at_8 if n.endswith("collaborative")),
        ),
        (
            "baselines saturate well below it: < 5.5 at 8 cores",
            all(s < 5.5 for n, s in at_8 if not n.endswith("collaborative")),
        ),
    ]

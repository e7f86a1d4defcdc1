"""Fig. 6: scalability of PNL-style centralized exact inference.

The paper ran Intel PNL's parallel junction-tree inference on an IBM P655
multiprocessor and observed execution time *increasing* beyond 4
processors.  We reproduce the experiment with the centralized scheduling
policy (serial dispatcher whose per-task coordination cost grows with both
processor count and message size) on the P655-like platform profile, over
junction trees 1-3.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.tables import format_series_table
from repro.jt.generation import paper_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CentralizedPolicy
from repro.simcore.profiles import IBM_P655, PlatformProfile
from repro.tasks.dag import build_task_graph


PROCS = (1, 2, 4, 6, 8)


def run(
    trees: Sequence[int] = (1, 2, 3),
    processors: Sequence[int] = PROCS,
    profile: PlatformProfile = IBM_P655,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """Execution times: ``{"Junction tree N": [seconds per proc count]}``."""
    policy = CentralizedPolicy()
    results: Dict[str, List[float]] = {}
    for which in trees:
        tree, _, _ = reroot_optimally(paper_tree(which, seed=seed))
        graph = build_task_graph(tree)
        times = [
            policy.simulate(graph, profile, p).makespan for p in processors
        ]
        results[f"Junction tree {which}"] = times
    return results


def render(result) -> str:
    return format_series_table(
        "Fig. 6 — PNL-like centralized inference, execution time (s) "
        "vs #processors (IBM P655-like)",
        "workload",
        PROCS,
        result,
        fmt="{:.3f}",
    )


def verdicts(result) -> List[Tuple[str, bool]]:
    at = {name: dict(zip(PROCS, times)) for name, times in result.items()}
    return [
        (
            "execution time rises past 4 processors on every tree",
            all(by_proc[8] > by_proc[4] for by_proc in at.values()),
        ),
        (
            "some parallelism helps initially: min time < 1-processor time",
            all(min(times) < times[0] for times in result.values()),
        ),
    ]

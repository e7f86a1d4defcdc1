"""Fig. 5: speedup from junction-tree rerooting.

The workload is the Fig. 4 template tree — ``b + 1`` equal branches joined
at a junction clique, rooted at the far end of branch 0.  We propagate
evidence in both the original and the Algorithm-1-rerooted tree under the
collaborative scheduler *with task partitioning disabled* (as in the paper)
and report ``Sp = t_original / t_rerooted`` per core count.

Expected shape: Sp saturates at 2 once the thread count exceeds ``b``
(branch 0 alone is then the critical path), so larger ``b`` needs more
threads to reach the maximum.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.tables import format_series_table
from repro.jt.generation import template_tree
from repro.jt.rerooting import reroot, select_root
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import OPTERON, XEON, PlatformProfile
from repro.tasks.dag import build_task_graph


CORES = tuple(range(1, 9))


def run(
    branch_counts: Sequence[int] = (1, 2, 4, 8),
    cores: Sequence[int] = CORES,
    platforms: Sequence[PlatformProfile] = (XEON, OPTERON),
    num_cliques: int = 512,
    clique_width: int = 15,
) -> Dict[str, Dict[int, List[float]]]:
    """Rerooting speedups: ``{platform: {b: [Sp at each core count]}}``."""
    policy = CollaborativePolicy(partition_threshold=None)
    results: Dict[str, Dict[int, List[float]]] = {}
    for profile in platforms:
        per_b: Dict[int, List[float]] = {}
        for b in branch_counts:
            original = template_tree(
                b, num_cliques=num_cliques, clique_width=clique_width
            )
            new_root, _ = select_root(original)
            rerooted = reroot(original, new_root)
            graph_orig = build_task_graph(original)
            graph_new = build_task_graph(rerooted)
            speedups = []
            for p in cores:
                t_orig = policy.simulate(graph_orig, profile, p).makespan
                t_new = policy.simulate(graph_new, profile, p).makespan
                speedups.append(t_orig / t_new)
            per_b[b] = speedups
        results[profile.name] = per_b
    return results


def render(result) -> str:
    return "\n\n".join(
        format_series_table(
            f"Fig. 5 — rerooting speedup Sp vs #cores ({platform})",
            "b",
            CORES,
            {str(b): sp for b, sp in per_b.items()},
        )
        for platform, per_b in result.items()
    )


def verdicts(result) -> List[Tuple[str, bool]]:
    curves = [sp for per_b in result.values() for sp in per_b.values()]
    return [
        (
            "no rerooting benefit on one core: |Sp - 1| < 0.05",
            all(abs(sp[0] - 1.0) < 0.05 for sp in curves),
        ),
        (
            "Sp saturates near 2 once P > b: Sp > 1.85 at 8 cores for b <= 4",
            all(
                sp[-1] > 1.85
                for per_b in result.values()
                for b, sp in per_b.items()
                if b <= 4
            ),
        ),
        (
            "Sp never exceeds 2: max Sp <= 2.05",
            all(max(sp) <= 2.05 for sp in curves),
        ),
        (
            "Sp at 8 cores is no lower than at one",
            all(sp[-1] >= sp[0] for sp in curves),
        ),
        (
            "larger b needs more threads: at P = 2, b = 8 gains less than b = 1",
            all(per_b[8][1] < per_b[1][1] for per_b in result.values()),
        ),
    ]

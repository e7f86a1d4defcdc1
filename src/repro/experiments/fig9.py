"""Fig. 9: speedup of the proposed method under parameter sweeps.

Starting from junction tree 1 (N=512, w_C=20, r=2, k=4) the paper varies
one parameter at a time: (a) the number of cliques N, (b) the clique width
w_C, (c) the number of states r, and (d) the average number of children k.
All configurations scale almost linearly except small potential tables
(w_C=10, r=2), where per-task scheduling overhead dominates the ~1024-entry
tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.tables import format_series_table
from repro.jt.generation import synthetic_tree
from repro.jt.rerooting import reroot_optimally
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import XEON, PlatformProfile
from repro.tasks.dag import build_task_graph

CORES = (1, 2, 4, 8)

# JT1's parameters, the sweep baseline.
BASE = {"num_cliques": 512, "clique_width": 20, "states": 2, "avg_children": 4}

SWEEPS: Dict[str, Tuple[str, Sequence]] = {
    "a: number of cliques N": ("num_cliques", (128, 256, 512, 1024)),
    "b: clique width w_C": ("clique_width", (10, 15, 20)),
    "c: number of states r": ("states", (2, 3)),
    "d: avg children k": ("avg_children", (2, 4, 8)),
}


def _speedups(
    params: Dict, cores: Sequence[int], profile: PlatformProfile, seed: int
) -> List[float]:
    tree = synthetic_tree(seed=seed, **params)
    tree, _, _ = reroot_optimally(tree)
    graph = build_task_graph(tree)
    policy = CollaborativePolicy()
    base = policy.simulate(graph, profile, 1).makespan
    return [base / policy.simulate(graph, profile, p).makespan for p in cores]


def run(
    cores: Sequence[int] = CORES,
    profile: PlatformProfile = XEON,
    seed: int = 0,
    panels: Sequence[str] = tuple(SWEEPS),
) -> Dict[str, Dict[str, List[float]]]:
    """``{panel: {"param=value": [speedup per core count]}}``.

    Panel (c) sweeps the state count at width 10 (the paper's small-table
    regime) so the r=2 row exposes the overhead-dominated case the text
    calls out.
    """
    results: Dict[str, Dict[str, List[float]]] = {}
    for panel in panels:
        param, values = SWEEPS[panel]
        rows: Dict[str, List[float]] = {}
        for value in values:
            params = dict(BASE)
            params[param] = value
            if param == "states":
                # r = 3 at width 20 is astronomically large; the paper's
                # state sweep is read against the small-table finding, so
                # sweep r at the width-10 configuration.
                params["clique_width"] = 10
            rows[f"{param}={value}"] = _speedups(params, cores, profile, seed)
        results[panel] = rows
    return results


def render(result) -> str:
    return "\n\n".join(
        format_series_table(
            f"Fig. 9({panel}) — proposed method speedup vs #cores "
            "(Intel Xeon-like)",
            "configuration",
            CORES,
            rows,
        )
        for panel, rows in result.items()
    )


def verdicts(result) -> List[Tuple[str, bool]]:
    n, w, r, k = (
        {name: sp[-1] for name, sp in result[panel].items()}
        for panel in SWEEPS
    )
    return [
        ("every N scales above 7 at 8 cores", all(s > 7.0 for s in n.values())),
        ("w_C = 20 scales above 7 at 8 cores", w["clique_width=20"] > 7.0),
        (
            "w_C = 10 at r = 2 (1024-entry tables) is overhead-bound: < 6.0",
            w["clique_width=10"] < 6.0,
        ),
        ("r = 3 scales better than r = 2", r["states=3"] > r["states=2"]),
        ("every k scales above 6.5 at 8 cores", all(s > 6.5 for s in k.values())),
    ]

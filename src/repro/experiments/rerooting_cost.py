"""Section 7's rerooting-overhead measurements.

The paper reports that rerooting a 512-clique junction tree took 24 µs
against an overall execution time five orders larger, and that Algorithm 1
is ``O(w_C N)`` versus the straightforward method's ``O(w_C N^2)``.  We
measure real wall-clock of both root-selection implementations at several
tree sizes and the ratio of rerooting time to (simulated) propagation time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.jt.generation import synthetic_tree
from repro.jt.rerooting import select_root, select_root_bruteforce
from repro.simcore.policies import CollaborativePolicy
from repro.simcore.profiles import OPTERON
from repro.tasks.dag import build_task_graph


@dataclass
class RerootingCostResult:
    """Wall-clock of both root selectors plus the overhead fraction.

    ``fast_seconds`` / ``brute_seconds`` are real Python wall-clock times
    (used for the O(N) vs O(N^2) scaling claim).  ``modeled_fraction``
    compares the *modeled* cost of Algorithm 1 (``w_C * N`` operations on
    the simulated platform) to the simulated propagation makespan — the
    apples-to-apples version of the paper's "24 µs out of the overall
    execution time" observation.
    """

    fast_seconds: Dict[int, float] = field(default_factory=dict)
    brute_seconds: Dict[int, float] = field(default_factory=dict)
    modeled_fraction: Dict[int, float] = field(default_factory=dict)


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(
    sizes: Sequence[int] = (64, 128, 256, 512),
    clique_width: int = 15,
    seed: int = 0,
) -> RerootingCostResult:
    result = RerootingCostResult()
    for n in sizes:
        tree = synthetic_tree(
            n, clique_width=clique_width, states=2, avg_children=4, seed=seed
        )
        result.fast_seconds[n] = _time(lambda: select_root(tree))
        result.brute_seconds[n] = _time(lambda: select_root_bruteforce(tree))
        graph = build_task_graph(tree)
        propagation = CollaborativePolicy().simulate(graph, OPTERON, 8)
        modeled_cost = clique_width * n / OPTERON.flops_per_second
        result.modeled_fraction[n] = modeled_cost / max(
            propagation.makespan, 1e-12
        )
    return result


def render(result: RerootingCostResult) -> str:
    lines = [
        "Rerooting cost — Algorithm 1 vs brute force (measured wall clock)",
        f"{'N':>5}  {'Alg.1 (ms)':>11}  {'brute (ms)':>11}  "
        f"{'brute/Alg.1':>11}  {'modeled overhead':>17}",
        "-" * 65,
    ]
    for n, frac in result.modeled_fraction.items():
        fast = result.fast_seconds[n] * 1e3
        brute = result.brute_seconds[n] * 1e3
        lines.append(
            f"{n:>5}  {fast:>11.3f}  {brute:>11.3f}  "
            f"{brute / max(fast, 1e-9):>11.1f}  {frac:>16.2e}"
        )
    return "\n".join(lines)


def verdicts(result: RerootingCostResult) -> List[Tuple[str, bool]]:
    ratios = [
        result.brute_seconds[n] / result.fast_seconds[n]
        for n in result.fast_seconds
    ]
    return [
        (
            "O(N) vs O(N^2): the brute-force / Algorithm 1 ratio grows "
            "superlinearly with N (with slack)",
            ratios[-1] > 4 * ratios[0] * 0.5,
        ),
        ("brute force > 20x slower at the largest N", ratios[-1] > 20),
        (
            "rerooting is negligible against propagation: modeled "
            "overhead < 1e-3",
            all(f < 1e-3 for f in result.modeled_fraction.values()),
        ),
    ]

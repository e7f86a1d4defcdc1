"""The paper's evaluation (Section 7), reproduced on the multicore simulator.

Every experiment module has the same three functions: ``run()`` produces
the figure's data series at the size EXPERIMENTS.md reports, ``render``
turns them into the text tables, and ``verdicts`` states the paper-shape
claims the reproduction is held to.  :data:`EXPERIMENTS` lists them; the
CLI (``repro experiment``), the tier-1 test ``test_paper_claims_hold`` and
``tools/make_experiments_md.py`` are three loops over that table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.experiments import (
    ablations,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    manycore,
    rerooting_cost,
    robustness,
)


class Experiment(NamedTuple):
    """One row of :data:`EXPERIMENTS`."""

    run: Callable[[], Any]
    render: Callable[[Any], str]
    verdicts: Callable[[Any], List[Tuple[str, bool]]]

    def check(self, result) -> List[str]:
        """The claims ``result`` breaks; empty when the paper's shape holds."""
        return [claim for claim, holds in self.verdicts(result) if not holds]


EXPERIMENTS: Dict[str, Experiment] = {
    name: Experiment(module.run, module.render, module.verdicts)
    for name, module in (
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("rerooting-cost", rerooting_cost),
        ("ablations", ablations),
        ("manycore", manycore),
        ("robustness", robustness),
    )
}

__all__ = ["EXPERIMENTS", "Experiment"]

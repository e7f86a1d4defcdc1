"""Experiment runners: the paper's claims at full size, small-parameter
sanity runs and table formatting."""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.fig5 import run as run_fig5
from repro.experiments.fig6 import run as run_fig6
from repro.experiments.fig7 import run as run_fig7
from repro.experiments.fig8 import run as run_fig8
from repro.experiments.fig9 import run as run_fig9
from repro.experiments.rerooting_cost import run as run_rerooting_cost
from repro.experiments.tables import format_series_table
from repro.simcore.profiles import XEON

SMALL_CORES = (1, 2, 4)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_paper_claims_hold(name):
    """Section 7's shapes (7.4x / 7.1x at 8 cores, Sp -> 2, PNL slowing
    past 4 processors, ...) at the sizes EXPERIMENTS.md reports."""
    experiment = EXPERIMENTS[name]
    assert experiment.check(experiment.run()) == []


class TestFig5Runner:
    def test_structure_and_saturation(self):
        results = run_fig5(
            branch_counts=(1, 2),
            cores=SMALL_CORES,
            platforms=(XEON,),
            num_cliques=61,
            clique_width=6,
        )
        per_b = results[XEON.name]
        assert set(per_b) == {1, 2}
        for speedups in per_b.values():
            assert len(speedups) == len(SMALL_CORES)
            assert speedups[0] == pytest.approx(1.0, abs=0.02)
            assert max(speedups) <= 2.05


class TestFig6Runner:
    def test_times_positive_and_keyed(self):
        results = run_fig6(trees=(3,), processors=(1, 2, 4))
        assert set(results) == {"Junction tree 3"}
        assert all(t > 0 for t in results["Junction tree 3"])


class TestFig7Runner:
    def test_rows_per_tree_and_method(self):
        results = run_fig7(trees=(3,), cores=SMALL_CORES, platforms=(XEON,))
        rows = results[XEON.name]
        assert set(rows) == {
            "JT3/openmp",
            "JT3/data-parallel",
            "JT3/collaborative",
        }
        for speedups in rows.values():
            assert speedups[0] == pytest.approx(1.0)


class TestFig8Runner:
    def test_per_thread_lists(self):
        result = run_fig8(which_tree=3, thread_counts=(1, 2, 4))
        assert set(result.sched_ratio) == {1, 2, 4}
        for p in (1, 2, 4):
            assert len(result.compute_per_thread[p]) == p
            assert result.load_imbalance[p] >= 1.0


class TestFig9Runner:
    def test_single_panel(self):
        results = run_fig9(
            cores=SMALL_CORES, panels=("d: avg children k",)
        )
        rows = results["d: avg children k"]
        assert set(rows) == {
            "avg_children=2",
            "avg_children=4",
            "avg_children=8",
        }


class TestRerootingCostRunner:
    def test_fast_beats_brute_and_fraction_small(self):
        result = run_rerooting_cost(sizes=(64, 128))
        for n in (64, 128):
            assert result.fast_seconds[n] < result.brute_seconds[n]
            assert result.modeled_fraction[n] < 0.01


class TestTableFormatting:
    def test_alignment_and_content(self):
        table = format_series_table(
            "Title", "row", (1, 2), {"alpha": [1.0, 2.5], "b": [3.0, 4.0]}
        )
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "alpha" in table and "2.50" in table
        # Header and data rows align on the same width.
        assert len(lines[1]) == len(lines[3])

    def test_custom_format(self):
        table = format_series_table(
            "T", "r", (1,), {"x": [0.123456]}, fmt="{:.4f}"
        )
        assert "0.1235" in table

"""Tests for ExecutionStats metrics and the seeded RNG helpers."""

import numpy as np
import pytest

from repro.sched.stats import ExecutionStats
from repro.util.rng import make_rng, spawn_rngs


class TestExecutionStats:
    def test_totals(self):
        stats = ExecutionStats(
            num_threads=2, compute_time=[1.0, 3.0], sched_time=[0.5, 0.5]
        )
        assert stats.total_compute() == 4.0
        assert stats.total_sched() == 1.0

    def test_sched_ratio(self):
        stats = ExecutionStats(
            num_threads=1, compute_time=[9.0], sched_time=[1.0]
        )
        assert stats.sched_ratio() == pytest.approx(0.1)

    def test_sched_ratio_empty_is_zero(self):
        assert ExecutionStats().sched_ratio() == 0.0

    def test_load_imbalance(self):
        stats = ExecutionStats(
            num_threads=2, compute_time=[1.0, 3.0], sched_time=[0, 0]
        )
        assert stats.load_imbalance() == pytest.approx(1.5)

    def test_load_imbalance_degenerate_cases(self):
        assert ExecutionStats().load_imbalance() == 1.0
        zero = ExecutionStats(num_threads=2, compute_time=[0.0, 0.0])
        assert zero.load_imbalance() == 1.0

    def test_load_imbalance_excludes_master_slot(self):
        # Process-executor shape: two balanced workers plus a mostly-idle
        # trailing master slot.  The master must not deflate the mean.
        stats = ExecutionStats(
            num_threads=2,
            compute_time=[2.0, 2.0, 0.1],
            master_slot=2,
        )
        assert stats.worker_slots() == [0, 1]
        assert stats.load_imbalance() == pytest.approx(1.0)
        # Without the master marker all three slots count, as before.
        unmarked = ExecutionStats(
            num_threads=2, compute_time=[2.0, 2.0, 0.1]
        )
        assert unmarked.worker_slots() == [0, 1, 2]
        assert unmarked.load_imbalance() > 1.0

    def test_load_imbalance_all_workers_idle_with_master(self):
        # Everything ran inline on the master: worker compute is all zero,
        # which must read as "balanced", not divide by zero.
        stats = ExecutionStats(
            num_threads=2,
            compute_time=[0.0, 0.0, 5.0],
            master_slot=2,
        )
        assert stats.load_imbalance() == 1.0

    def test_per_worker_summary_marks_master_role(self):
        stats = ExecutionStats(
            num_threads=2,
            compute_time=[1.0, 2.0, 0.5],
            sched_time=[0.1, 0.2, 0.0],
            tasks_per_thread=[3, 4, 1],
            worker_pids=[101, 102, 100],
            master_slot=2,
        )
        rows = stats.per_worker_summary()
        assert [r["role"] for r in rows] == ["worker", "worker", "master"]
        assert [r["pid"] for r in rows] == [101, 102, 100]

    def test_per_worker_summary_tolerates_short_lists(self):
        # The per-slot lists can disagree in length (thread executors
        # leave worker_pids empty, and a hand-built stats object may fill
        # only some lists).  Summary rows must not IndexError.
        stats = ExecutionStats(
            num_threads=2,
            compute_time=[1.0, 2.0, 0.5, 0.7],
            sched_time=[0.1],
            tasks_per_thread=[3, 4],
            worker_pids=[101],
            master_slot=2,
        )
        rows = stats.per_worker_summary()
        assert len(rows) == 4
        assert rows[0]["pid"] == 101 and rows[0]["sched_time"] == 0.1
        for row in rows[1:]:
            assert row["pid"] is None
            assert row["sched_time"] == 0.0
        assert [r["tasks"] for r in rows] == [3, 4, 0, 0]
        assert rows[2]["role"] == "master"


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(5).random()
        b = make_rng(5).random()
        assert a == b

    def test_make_rng_passes_generator_through(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_make_rng_none_gives_fresh_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_spawn_rngs_independent_and_reproducible(self):
        a = spawn_rngs(7, 3)
        b = spawn_rngs(7, 3)
        assert len(a) == 3
        for x, y in zip(a, b):
            assert x.random() == y.random()
        # Streams differ from each other.
        fresh = spawn_rngs(7, 2)
        assert fresh[0].random() != fresh[1].random()

    def test_spawn_rngs_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


"""Fault-injection, crash-recovery, and degradation-cascade tests.

Covers the fault-tolerant execution layer end to end:

* :class:`~repro.sched.faults.FaultPlan` one-shot semantics and validation.
* :class:`~repro.sched.faults.TaskExecutionError` attribution + pickling
  (``concurrent.futures`` round-trips worker exceptions through pickle).
* The numerical health guard (:func:`~repro.sched.faults.scan_tables`).
* :class:`~repro.sched.process.ProcessSharedMemoryExecutor` faults:
  SIGKILLed workers (injected and external), failing tasks, slow and
  hung tasks under a whole-run deadline.  The executor only fails; the
  recovery ladder finishes each run, asserted against the serial oracle
  to 1e-9.
* :class:`~repro.sched.resilient.ResilientExecutor`: the degradation
  cascade, NaN quarantine, and the log-space underflow rescue.
* The simulator's fault hooks (``sim_kill_core`` / ``sim_delay_task``).

Pool creation is expensive; the number of process-executor ``run()``
calls is kept deliberately small.
"""

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.inference.engine import InferenceEngine
from repro.jt.generation import synthetic_tree
from repro.potential.table import PotentialTable
from repro.sched.core import CollaborativeExecutor
from repro.sched.faults import (
    FaultPlan,
    HealthReport,
    TaskExecutionError,
    check_state_health,
    corrupt_array,
    scan_tables,
)
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.resilient import DegradationRecord, ResilientExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


def _workload(num_cliques=8, width=3, states=2, seed=11, evidence=None):
    tree = synthetic_tree(
        num_cliques, clique_width=width, states=states, avg_children=2,
        seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    graph = build_task_graph(tree)
    reference = PropagationState(tree, evidence)
    SerialExecutor().run(graph, reference)
    return tree, graph, reference


def _assert_matches(tree, reference, state):
    for i in range(tree.num_cliques):
        np.testing.assert_allclose(
            state.potentials[i].values,
            reference.potentials[i].values,
            rtol=1e-9,
            atol=1e-12,
        )
    assert np.isclose(state.likelihood(), reference.likelihood(), rtol=1e-9)


# --------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_faults_are_one_shot(self):
        plan = FaultPlan(
            kill_before_dispatch={3: 1},
            delay_task={7: 0.5},
            corrupt_task={2: "nan"},
            sim_kill_core={4: 0},
            sim_delay_task={9: 1.0},
        )
        assert plan.take_kill(3) == 1
        assert plan.take_kill(3) is None
        assert plan.take_delay(7) == 0.5
        assert plan.take_delay(7) == 0.0
        assert plan.take_corruption(2) == "nan"
        assert plan.take_corruption(2) is None
        assert plan.take_sim_kill(4) == 0
        assert plan.take_sim_kill(4) is None
        assert plan.take_sim_delay(9) == 1.0
        assert plan.take_sim_delay(9) == 0.0

    def test_unplanned_faults_never_fire(self):
        plan = FaultPlan(delay_task={7: 0.5})
        assert plan.take_kill(0) is None
        assert plan.take_delay(6) == 0.0
        assert plan.take_corruption(7) is None
        assert not plan.take_failure(7)

    def test_failure_budget_counts_down(self):
        plan = FaultPlan(fail_task={5: 2})
        assert plan.take_failure(5)
        assert plan.take_failure(5)
        assert not plan.take_failure(5)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(delay_task={0: 1.0}).empty

    def test_validation(self):
        with pytest.raises(ValueError, match="corruption mode"):
            FaultPlan(corrupt_task={0: "gremlins"})
        with pytest.raises(ValueError, match="delay"):
            FaultPlan(delay_task={0: -1.0})
        with pytest.raises(ValueError, match="fail count"):
            FaultPlan(fail_task={0: 0})

    def test_torn_write_plan_validates(self):
        with pytest.raises(ValueError):
            FaultPlan(torn_write={1: 0})
        plan = FaultPlan(torn_write={4: 2})
        assert plan.take_torn(4) == 2
        assert plan.take_torn(4) is None  # one-shot


class TestTaskExecutionError:
    def test_pickle_round_trip_keeps_attribution(self):
        err = TaskExecutionError(
            "task 3 (divide, collect, edge (1, 2)) failed: boom",
            tid=3, kind="divide", phase="collect", edge=(1, 2), chunk=(0, 8),
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, TaskExecutionError)
        assert clone.tid == 3
        assert clone.kind == "divide"
        assert clone.phase == "collect"
        assert clone.edge == (1, 2)
        assert clone.chunk == (0, 8)
        assert str(clone) == str(err)


class TestCorruptArray:
    def test_modes(self):
        for mode, check in [
            ("nan", lambda a: np.isnan(a).all()),
            ("inf", lambda a: np.isinf(a).all()),
            ("garbage", lambda a: (np.abs(a) == 1e300).all()),
        ]:
            flat = np.ones(6)
            corrupt_array(flat, mode)
            assert check(flat), mode


# --------------------------------------------------------------------- #
# Health guard
# --------------------------------------------------------------------- #


def _table(values):
    values = np.asarray(values, dtype=float)
    return PotentialTable((0,), (values.size,), values)


class TestHealthScan:
    def test_healthy_tables(self):
        report = scan_tables({0: _table([0.5, 0.5]), 1: _table([1.0, 0.0])})
        assert report.healthy
        assert not report.underflowed
        assert report.tables_scanned == 2
        assert "healthy" in report.summary()

    def test_detects_nan_inf_underflow(self):
        report = scan_tables({
            "a": _table([np.nan, 1.0]),
            "b": _table([np.inf, 1.0]),
            "c": _table([0.0, 0.0]),
            "d": _table([0.2, 0.8]),
        })
        assert report.nan_tables == ["a"]
        assert report.inf_tables == ["b"]
        assert report.underflowed_tables == ["c"]
        assert not report.healthy
        assert report.underflowed
        summary = report.summary()
        assert "NaN" in summary and "Inf" in summary and "underflow" in summary

    def test_check_state_health_scans_potentials(self):
        tree, graph, _ = _workload(num_cliques=4, seed=3)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        assert check_state_health(state).healthy

    @pytest.mark.parametrize("seed", range(6))
    def test_state_scan_equals_the_per_table_scan(self, seed):
        """The one-pass scan over the buffer's clique region reports what
        ``scan_tables(state.potentials)`` reports, table for table and in
        order: NaN before inf before all-zero, and -0.0 counts as zero."""
        tree, graph, _ = _workload(num_cliques=9, width=4, seed=seed)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        rng = np.random.default_rng(seed)
        for i, table in state.potentials.items():
            flat = table.values.reshape(-1)
            salt = rng.integers(7)
            if salt == 1:
                flat[rng.integers(flat.size)] = np.nan
            elif salt == 2:
                flat[rng.integers(flat.size)] = rng.choice([np.inf, -np.inf])
            elif salt == 3:
                flat[...] = 0.0
            elif salt == 4:
                flat[...] = -0.0
            elif salt == 5:
                flat[...] = 0.0
                flat[-1] = np.nan
                flat[0] = np.inf
            elif salt == 6:
                flat[-1] = -0.0
        scanned = check_state_health(state)
        assert scanned == scan_tables(state.potentials)
        assert all(type(key) is int for key in (
            scanned.nan_tables + scanned.inf_tables
            + scanned.underflowed_tables
        ))

    def test_state_scan_flags_each_kind(self):
        tree, graph, _ = _workload(num_cliques=5, seed=3)
        state = PropagationState(tree)
        SerialExecutor().run(graph, state)
        state.potentials[0].values.reshape(-1)[-1] = np.nan
        state.potentials[1].values.reshape(-1)[0] = -np.inf
        state.potentials[2].values[...] = -0.0
        report = check_state_health(state)
        assert report == scan_tables(state.potentials)
        assert (report.nan_tables, report.inf_tables) == ([0], [1])
        assert report.underflowed_tables == [2]
        assert report.tables_scanned == tree.num_cliques

    def test_empty_report_is_healthy(self):
        assert HealthReport().healthy


# --------------------------------------------------------------------- #
# Process-executor crash recovery
# --------------------------------------------------------------------- #


class TestProcessRecovery:
    """The process executor does not recover on its own: every fault ends
    its run with an error and leaves the caller's state as it was, and
    the recovery ladder finishes the run exactly on the next tier."""

    def test_injected_worker_kill_recovers_and_matches_serial(self):
        tree, graph, reference = _workload(seed=17)
        plan = FaultPlan(kill_before_dispatch={2: 0})
        primary = ProcessSharedMemoryExecutor(
            num_workers=2, inline_threshold=0, fault_plan=plan
        )
        state = PropagationState(tree)
        stats = ResilientExecutor(primary).run(graph, state)
        _assert_matches(tree, reference, state)
        assert plan._taken_kills == {2}
        (record,) = stats.degradations
        assert record.from_executor == "ProcessSharedMemoryExecutor"
        assert record.to_executor == "SerialExecutor"
        assert "BrokenProcessPool" in record.reason
        assert stats.completed_executor == "SerialExecutor"

    def test_injected_kill_fails_the_run_and_leaves_the_state(self):
        tree, graph, _ = _workload(seed=17)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(kill_before_dispatch={2: 0}),
        )
        state = PropagationState(tree)
        before, written = state.buffer.copy(), set(state._inter)
        with pytest.raises(BrokenProcessPool, match="SIGKILL"):
            executor.run(graph, state)
        # The arena is copied back only after a clean run.
        assert np.array_equal(state.buffer, before, equal_nan=True)
        assert set(state._inter) == written
        assert not mp.active_children()

    def test_external_sigkill_mid_run_recovers(self):
        tree, graph, reference = _workload(seed=29)
        # The delay stretches the run so the external kill lands mid-flight
        # (and the plan switches the executor into eager-spawn mode, so
        # worker pids are known).
        delayed_tid = graph.tasks[0].tid
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(delay_task={delayed_tid: 1.5}),
        )
        state = PropagationState(tree)
        result = {}

        def target():
            result["stats"] = ResilientExecutor(executor).run(graph, state)

        thread = threading.Thread(target=target)
        thread.start()
        deadline = time.monotonic() + 10.0
        killed = False
        while time.monotonic() < deadline:
            pids = executor.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                killed = True
                break
            time.sleep(0.01)
        thread.join(timeout=60.0)
        assert killed, "never saw a live worker pid to kill"
        assert not thread.is_alive()
        stats = result["stats"]
        _assert_matches(tree, reference, state)
        (record,) = stats.degradations
        assert record.from_executor == "ProcessSharedMemoryExecutor"
        assert not mp.active_children()

    def test_slow_task_finishes_late_and_matches_serial(self):
        """A delayed task is not a fault to recover from: the run waits
        for it, and the answer is exact."""
        tree, graph, reference = _workload(seed=41)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(delay_task={graph.tasks[1].tid: 0.3}),
        )
        state = PropagationState(tree)
        stats = executor.run(graph, state)
        _assert_matches(tree, reference, state)
        assert stats.wall_time >= 0.3

    def test_whole_run_deadline_kills_a_hung_task(self):
        """The whole-run deadline bounds a hang: the run is refused on
        time, its workers are killed rather than waited for, and the
        ladder neither steps down nor leaves the state changed."""
        tree, graph, _ = _workload(seed=43)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(delay_task={graph.tasks[0].tid: 30.0}),
        )
        state = PropagationState(tree)
        before = state.buffer.copy()
        started = time.monotonic()
        with pytest.raises(TaskExecutionError) as info:
            ResilientExecutor(executor).run(
                graph, state, deadline=started + 0.5
            )
        assert time.monotonic() - started < 10.0
        assert info.value.phase == "deadline"
        assert info.value.degradations == []
        assert np.array_equal(state.buffer, before, equal_nan=True)
        assert not mp.active_children()

    def test_exhausted_retries_raise_with_attribution(self):
        """The executor keeps no retry budget: a task that keeps failing
        ends the run at its first failure, attributed to that task."""
        tree, graph, _ = _workload(num_cliques=5, seed=67)
        failing = graph.tasks[0]
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(fail_task={failing.tid: 5}),
        )
        with pytest.raises(TaskExecutionError) as excinfo:
            executor.run(graph, PropagationState(tree))
        assert excinfo.value.tid == failing.tid
        assert f"task {failing.tid}" in str(excinfo.value)
        assert excinfo.value.phase == failing.phase
        assert not mp.active_children()

    def test_fail_fast_without_retry_budget(self):
        tree, graph, _ = _workload(num_cliques=5, seed=71)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(fail_task={graph.tasks[0].tid: 1}),
        )
        with pytest.raises(TaskExecutionError):
            executor.run(graph, PropagationState(tree))

    def test_injected_failure_steps_down_and_matches_serial(self):
        tree, graph, reference = _workload(seed=53)
        primary = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(fail_task={graph.tasks[0].tid: 1}),
        )
        state = PropagationState(tree)
        stats = ResilientExecutor(primary).run(graph, state)
        _assert_matches(tree, reference, state)
        (record,) = stats.degradations
        assert "injected task failure" in record.reason

    def test_partitioned_kill_recovers_and_matches_serial(self):
        evidence = {0: 1}
        tree, graph, reference = _workload(
            num_cliques=8, width=4, seed=83, evidence=evidence
        )
        plan = FaultPlan(kill_before_dispatch={10: 1})
        primary = ProcessSharedMemoryExecutor(
            num_workers=2,
            partition_threshold=8,
            inline_threshold=0,
            fault_plan=plan,
        )
        state = PropagationState(tree, evidence)
        stats = ResilientExecutor(primary).run(graph, state)
        _assert_matches(tree, reference, state)
        assert plan._taken_kills == {10}
        assert stats.degraded()


# --------------------------------------------------------------------- #
# ResilientExecutor: the ladder, quarantine, log-space rescue
# --------------------------------------------------------------------- #


class _AlwaysRaises:
    """A tier that always fails (stand-in for an unrecoverable executor)."""

    def __init__(self, message="synthetic tier failure"):
        self.message = message

    def run(self, graph, state, tracer=None, deadline=None):
        raise RuntimeError(self.message)


class TestResilientExecutor:
    def test_no_degradation_on_clean_run(self):
        tree, graph, reference = _workload(num_cliques=4, seed=5)
        state = PropagationState(tree)
        stats = ResilientExecutor(SerialExecutor()).run(graph, state)
        _assert_matches(tree, reference, state)
        assert stats.degradations == []
        assert not stats.degraded()
        assert "healthy" in stats.health

    def test_failing_primary_degrades_to_serial(self):
        tree, graph, reference = _workload(num_cliques=4, seed=7)
        state = PropagationState(tree)
        stats = ResilientExecutor(_AlwaysRaises("pool exploded")).run(
            graph, state
        )
        _assert_matches(tree, reference, state)
        assert stats.degraded()
        record = stats.degradations[0]
        assert record.from_executor == "_AlwaysRaises"
        assert record.to_executor == "SerialExecutor"
        assert "pool exploded" in record.reason

    def test_nan_result_is_quarantined_and_rerun(self):
        tree, graph, reference = _workload(seed=13)
        primary = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(corrupt_task={graph.tasks[0].tid: "nan"}),
        )
        state = PropagationState(tree)
        stats = ResilientExecutor(primary).run(graph, state)
        # The corrupted tier's result never leaks into the final state.
        _assert_matches(tree, reference, state)
        assert stats.degraded()
        assert any("unhealthy" in r.reason for r in stats.degradations)
        assert "healthy" in stats.health

    def test_every_tier_failing_raises(self):
        tree, graph, _ = _workload(num_cliques=4, seed=19)
        # A NaN prior poisons every tier's result, the serial last one too.
        tree.potentials[0].values[...] = np.nan
        resilient = ResilientExecutor(
            _AlwaysRaises("a"), fallbacks=[_AlwaysRaises("b")]
        )
        state = PropagationState(tree)
        before = state.buffer.copy()
        with pytest.raises(RuntimeError, match="every executor tier") as info:
            resilient.run(graph, state)
        steps = [
            (r.from_executor, r.to_executor) for r in info.value.degradations
        ]
        assert steps == [
            ("_AlwaysRaises", "_AlwaysRaises"),
            ("_AlwaysRaises", "SerialExecutor"),
            ("SerialExecutor", "none"),
        ]
        # The failed run leaves the state as it found it.
        assert np.array_equal(state.buffer, before, equal_nan=True)

    def test_ladder_always_ends_at_serial(self):
        ladder = ResilientExecutor(
            _AlwaysRaises(), fallbacks=[_AlwaysRaises()]
        )
        assert [type(t).__name__ for t in ladder.tiers] == [
            "_AlwaysRaises", "_AlwaysRaises", "SerialExecutor",
        ]
        assert len(ResilientExecutor().tiers) == 1
        assert len(ResilientExecutor(fallbacks=[SerialExecutor()]).tiers) == 2

    def test_step_down_restores_buffer_and_written_set(self):
        """A tier that wrote intermediates before dying leaves neither its
        bytes nor its written-slot marks for the next tier to build on."""
        tree, graph, reference = _workload(num_cliques=6, seed=29)

        class DiesHalfway:
            def run(self, graph, state, tracer=None, deadline=None):
                order = graph.topological_order()
                for tid in order[: len(order) // 2]:
                    state.execute(graph.tasks[tid])
                raise RuntimeError("died halfway")

        state = PropagationState(tree)
        seen = []

        class Recorder(SerialExecutor):
            def run(self, graph, state, **kw):
                seen.append((state.buffer.copy(), set(state._inter)))
                return super().run(graph, state, **kw)

        initial, initial_written = state.buffer.copy(), set(state._inter)
        stats = ResilientExecutor(
            DiesHalfway(), fallbacks=[Recorder()]
        ).run(graph, state)
        ((buffer, written),) = seen
        assert np.array_equal(buffer, initial)
        assert written == initial_written
        assert len(stats.degradations) == 1
        _assert_matches(tree, reference, state)

    def test_underflow_triggers_logspace_rescue(self):
        tree, graph, reference = _workload(num_cliques=6, seed=23)
        # Scale every clique potential so the joint underflows float64.
        for i, table in tree.potentials.items():
            tree.potentials[i] = PotentialTable(
                table.variables, table.cardinalities, table.values * 1e-300
            )
        state = PropagationState(tree)
        stats = ResilientExecutor(SerialExecutor()).run(graph, state)
        assert any(r.to_executor == "logspace" for r in stats.degradations)
        assert stats.log_likelihood is not None
        assert np.isfinite(stats.log_likelihood)
        # Rescued normalized marginals match the unscaled reference.
        for i in range(tree.num_cliques):
            np.testing.assert_allclose(
                state.clique_marginal(i).values,
                reference.clique_marginal(i).values,
                rtol=1e-9,
                atol=1e-12,
            )

    def test_rescued_state_does_not_seed_incremental_reuse(self):
        """A log-space-rescued state holds the underflowed run's zero
        separators and messages next to rescued potentials: reusing it
        incrementally answered ``[0, 0]``.  The next query must
        repropagate in full, under the resilience propagate() asked for,
        and stay exact."""
        tree, _, _ = _workload(num_cliques=6, seed=23)
        reference = InferenceEngine(tree.copy())
        for i, table in tree.potentials.items():
            tree.potentials[i] = PotentialTable(
                table.variables, table.cardinalities, table.values * 1e-300
            )
        engine = InferenceEngine(tree)
        engine.propagate(resilience=True)
        assert any(
            r.to_executor == "logspace" for r in engine.last_stats.degradations
        )
        variables = sorted({v for c in tree.cliques for v in c.variables})
        engine.observe(variables[0], 1)
        reference.observe(variables[0], 1)
        reference.propagate()
        for var in variables[1:]:
            np.testing.assert_allclose(
                engine.marginal(var), reference.marginal(var),
                rtol=1e-9, atol=1e-12,
            )
        assert not engine.last_stats.incremental
        assert any(
            r.to_executor == "logspace" for r in engine.last_stats.degradations
        )

    def test_impossible_evidence_is_not_rescued(self):
        """P(e) = 0 underflows every table too, but there is no posterior
        to rescue: the zeros stay and a degradation says why, instead of
        a uniform "posterior" normalized out of -inf."""
        from repro.models import asia

        bn, _ = asia()
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({3: 1, 5: 0})  # lung = yes, either = no
        engine.propagate(resilience=True)
        stats = engine.last_stats
        assert stats.log_likelihood is None
        assert "underflow" in stats.health
        assert any(
            "probability zero" in r.reason for r in stats.degradations
        )
        assert engine.likelihood() == 0.0
        assert not np.any(engine.marginal(7))  # dysp: no mass, not [.5, .5]

    def test_degradation_record_str(self):
        record = DegradationRecord("A", "B", "because")
        assert str(record) == "A -> B: because"


# --------------------------------------------------------------------- #
# Acceptance: kill + slow task under a deadline, finished by the ladder
# --------------------------------------------------------------------- #


class TestAcceptance:
    def test_kill_plus_deadline_recovers_within_tolerance(self):
        tree, graph, reference = _workload(seed=97)
        delayed_tid = graph.tasks[2].tid
        primary = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(
                kill_before_dispatch={1: 0},
                delay_task={delayed_tid: 0.2},
            ),
        )
        state = PropagationState(tree)
        stats = ResilientExecutor(
            primary, fallbacks=[CollaborativeExecutor(num_threads=2)]
        ).run(graph, state, deadline=time.monotonic() + 60.0)
        _assert_matches(tree, reference, state)
        # The killed tier never served: the next tier finished the run
        # inside the deadline.
        assert [r.from_executor for r in stats.degradations] == [
            "ProcessSharedMemoryExecutor"
        ]
        assert stats.completed_executor == "CollaborativeExecutor"

    def test_forced_degradation_is_reported(self):
        tree, graph, reference = _workload(num_cliques=5, seed=101)
        state = PropagationState(tree)
        stats = ResilientExecutor(
            _AlwaysRaises(), fallbacks=[SerialExecutor()]
        ).run(graph, state)
        _assert_matches(tree, reference, state)
        assert len(stats.degradations) == 1


# --------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------- #


class TestEngineResilience:
    def test_propagate_resilience_flag_wraps_executor(self):
        from repro import InferenceEngine, random_network

        bn = random_network(12, seed=2)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({0: 1})
        engine.propagate(_AlwaysRaises(), resilience=True)
        assert engine.last_stats.degraded()
        baseline = InferenceEngine.from_network(bn)
        baseline.set_evidence({0: 1})
        baseline.propagate()
        np.testing.assert_allclose(
            engine.marginal(5), baseline.marginal(5), rtol=1e-9
        )

    def test_trace_labels_executor_that_completed_the_run(self):
        # A degradation cascade must not leave the trace labeled with the
        # *requested* executor's name and partition threshold.
        from repro import InferenceEngine, random_network

        class _RaisingWithThreshold(_AlwaysRaises):
            partition_threshold = 4096

        bn = random_network(12, seed=2)
        engine = InferenceEngine.from_network(bn)
        engine.set_evidence({0: 1})
        engine.propagate(
            _RaisingWithThreshold(), resilience=True, trace=True
        )
        trace = engine.last_trace
        assert engine.last_stats.degraded()
        assert engine.last_stats.completed_executor == "SerialExecutor"
        assert trace.executor == "SerialExecutor"
        assert trace.meta["requested_executor"] == "_RaisingWithThreshold"
        # SerialExecutor has no partition threshold; the requested tier's
        # value must not survive in the metadata.
        assert "partition_threshold" not in trace.meta
        assert any(
            "SerialExecutor" in entry for entry in trace.meta["degradations"]
        )

    def test_trace_labels_survive_clean_resilient_run(self):
        from repro import InferenceEngine, random_network
        from repro.sched import CollaborativeExecutor

        bn = random_network(12, seed=6)
        engine = InferenceEngine.from_network(bn)
        executor = CollaborativeExecutor(
            num_threads=2, partition_threshold=512
        )
        engine.propagate(executor, resilience=True, trace=True)
        assert engine.last_stats.degradations == []
        assert engine.last_trace.executor == "CollaborativeExecutor"
        assert engine.last_trace.meta["partition_threshold"] == 512
        assert "requested_executor" not in engine.last_trace.meta


# --------------------------------------------------------------------- #
# Simulator fault hooks
# --------------------------------------------------------------------- #


class TestSimulatorFaults:
    @pytest.fixture(scope="class")
    def graph(self):
        tree = synthetic_tree(
            10, clique_width=3, states=2, avg_children=2, seed=9
        )
        tree.initialize_potentials(np.random.default_rng(9))
        return build_task_graph(tree)

    def test_core_kill_stretches_makespan(self, graph):
        from repro.simcore.machine import Machine
        from repro.simcore.policies import CollaborativePolicy
        from repro.simcore.profiles import XEON

        machine = Machine(XEON, 4)
        base = machine.run(CollaborativePolicy(), graph)
        faulty = machine.run(
            CollaborativePolicy(), graph,
            fault_plan=FaultPlan(sim_kill_core={1: 0}),
        )
        assert faulty.cores_lost == 1
        assert faulty.faults_injected == 1
        assert faulty.makespan >= base.makespan
        # Every task still executes: work reschedules onto survivors.
        assert faulty.tasks_executed == base.tasks_executed

    def test_simulator_never_kills_last_core(self, graph):
        from repro.simcore.machine import Machine
        from repro.simcore.policies import WorkStealingPolicy
        from repro.simcore.profiles import XEON

        machine = Machine(XEON, 2)
        base = machine.run(WorkStealingPolicy(), graph)
        result = machine.run(
            WorkStealingPolicy(), graph,
            fault_plan=FaultPlan(sim_kill_core={0: 0, 1: 1, 2: 0}),
        )
        # Three kills planned, but the simulator refuses to take the last
        # core: only the first lands.
        assert result.cores_lost == 1
        assert result.tasks_executed == base.tasks_executed

    def test_sim_delay_adds_duration(self, graph):
        from repro.simcore.machine import Machine
        from repro.simcore.policies import CollaborativePolicy
        from repro.simcore.profiles import XEON

        machine = Machine(XEON, 2)
        base = machine.run(CollaborativePolicy(), graph)
        faulty = machine.run(
            CollaborativePolicy(), graph,
            fault_plan=FaultPlan(sim_delay_task={0: 0.25}),
        )
        assert faulty.faults_injected == 1
        # Other cores overlap the stall, so the delay is a lower bound on
        # the makespan, not an additive term.
        assert faulty.makespan >= 0.25
        assert faulty.makespan > base.makespan

    def test_fault_free_plan_changes_nothing(self, graph):
        from repro.simcore.machine import Machine
        from repro.simcore.policies import CollaborativePolicy
        from repro.simcore.profiles import XEON

        machine = Machine(XEON, 4)
        base = machine.run(CollaborativePolicy(), graph)
        with_plan = machine.run(
            CollaborativePolicy(), graph, fault_plan=FaultPlan()
        )
        assert with_plan.makespan == base.makespan
        assert with_plan.cores_lost == 0
        assert with_plan.faults_injected == 0

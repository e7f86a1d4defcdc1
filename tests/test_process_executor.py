"""Unit tests for the shared-memory process executor.

The differential harness (``test_differential_executors.py``) already
cross-checks ProcessSharedMemoryExecutor against every other executor on
randomized trees; here we pin down its own contract: constructor
validation, stats accounting (inline vs. pooled work, shared-memory
footprint, worker pids), partitioned execution, evidence handling, and
the spawn start method.  Pool creation is expensive, so the number of
``run()`` calls is kept deliberately small.
"""

import multiprocessing as mp
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.integrity import TornWriteError
from repro.jt.generation import synthetic_tree
from repro.sched.faults import FaultPlan
from repro.sched.process import ProcessSharedMemoryExecutor
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


class TestValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            ProcessSharedMemoryExecutor(num_workers=0)

    def test_rejects_bad_partition_threshold(self):
        with pytest.raises(ValueError, match="partition_threshold"):
            ProcessSharedMemoryExecutor(partition_threshold=0)

    def test_rejects_bad_max_chunks(self):
        with pytest.raises(ValueError, match="max_chunks"):
            ProcessSharedMemoryExecutor(max_chunks=1)

    def test_rejects_negative_inline_threshold(self):
        with pytest.raises(ValueError, match="inline_threshold"):
            ProcessSharedMemoryExecutor(inline_threshold=-1)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="start_method"):
            ProcessSharedMemoryExecutor(start_method="teleport")

    def test_defaults_to_fork_where_available(self):
        ex = ProcessSharedMemoryExecutor()
        if "fork" in mp.get_all_start_methods():
            assert ex.start_method == "fork"
        else:
            assert ex.start_method in mp.get_all_start_methods()


class TestExecution:
    def test_matches_serial_with_stats_accounting(self):
        tree, graph, reference = _workload()
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, inline_threshold=4
        )
        state = PropagationState(tree)
        stats = executor.run(graph, state)
        _assert_matches(tree, reference, state)
        assert stats.tasks_executed == graph.num_tasks
        # Inline + pooled tasks account for every task exactly once.
        assert sum(stats.tasks_per_thread) == graph.num_tasks
        assert stats.tasks_per_thread[-1] == stats.tasks_inline
        assert stats.shared_bytes > 0
        # The trailing slot is the master; pool slots that did work have
        # distinct worker pids.
        assert stats.worker_pids[-1] == os.getpid()
        pool_pids = [pid for pid in stats.worker_pids[:-1] if pid]
        assert len(pool_pids) == len(set(pool_pids))
        assert os.getpid() not in pool_pids

    def test_partitioned_run_matches_serial_with_evidence(self):
        evidence = {0: 1, 3: 0}
        tree, graph, reference = _workload(
            num_cliques=10, width=4, seed=23, evidence=evidence
        )
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, partition_threshold=8, inline_threshold=0
        )
        state = PropagationState(tree, evidence)
        stats = executor.run(graph, state)
        _assert_matches(tree, reference, state)
        assert stats.tasks_executed == graph.num_tasks
        # inline_threshold=0 forces everything through the pool.
        assert stats.tasks_inline == 0
        assert stats.tasks_per_thread[-1] == 0

    def test_single_clique_tree_is_a_no_op(self):
        tree = synthetic_tree(1, clique_width=3, states=2, seed=5)
        tree.initialize_potentials(np.random.default_rng(5))
        graph = build_task_graph(tree)
        state = PropagationState(tree)
        stats = ProcessSharedMemoryExecutor(num_workers=2).run(graph, state)
        assert graph.num_tasks == 0
        assert stats.tasks_executed == 0

    def test_executor_is_reusable(self):
        tree, graph, reference = _workload(num_cliques=6, seed=31)
        executor = ProcessSharedMemoryExecutor(num_workers=2)
        for _ in range(2):
            state = PropagationState(tree)
            stats = executor.run(graph, state)
            _assert_matches(tree, reference, state)
            assert stats.tasks_executed == graph.num_tasks

    @pytest.mark.skipif(
        "spawn" not in mp.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_start_method_matches_serial(self):
        tree, graph, reference = _workload(num_cliques=6, seed=47)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, start_method="spawn", inline_threshold=4
        )
        state = PropagationState(tree)
        stats = executor.run(graph, state)
        _assert_matches(tree, reference, state)
        assert stats.tasks_executed == graph.num_tasks

    def test_per_worker_summary_reports_all_slots(self):
        tree, graph, _ = _workload(num_cliques=4, seed=61)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2, inline_threshold=4
        )
        stats = executor.run(graph, PropagationState(tree))
        summary = stats.per_worker_summary()
        assert len(summary) == 3  # 2 pool slots + trailing master slot
        assert sum(row["tasks"] for row in summary) == graph.num_tasks


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)
class TestArenaLifetime:
    """The arena is created per run and must not outlive it — however the
    run ends."""

    @pytest.mark.parametrize(
        "faults,error",
        [
            (None, None),
            (dict(kill_before_dispatch={1: 0}), BrokenProcessPool),
            (dict(torn_write={1: 4}), TornWriteError),
        ],
        ids=["clean", "injected-kill", "torn-write"],
    )
    def test_no_shared_memory_segment_survives_a_run(
        self, faults, error, monkeypatch
    ):
        from repro.sched import process

        created = []

        class Recording(process.shared_memory.SharedMemory):
            def __init__(self, name=None, create=False, size=0):
                super().__init__(name=name, create=create, size=size)
                if create:
                    created.append(self.name)

        monkeypatch.setattr(process.shared_memory, "SharedMemory", Recording)
        tree, graph, reference = _workload(num_cliques=6, seed=71)
        executor = ProcessSharedMemoryExecutor(
            num_workers=2,
            inline_threshold=0,
            fault_plan=FaultPlan(**faults) if faults else None,
        )
        state = PropagationState(tree)
        if error is None:
            executor.run(graph, state)
            _assert_matches(tree, reference, state)
        else:
            with pytest.raises(error):
                executor.run(graph, state)
        assert len(created) == 1
        assert not os.path.exists(os.path.join("/dev/shm", created[0]))

"""Wall-clock benchmarks of the real executors.

These measure actual Python execution of evidence propagation — the
functional twins of the simulated policies.  The *threaded* executors are
GIL-bound, so their numbers quantify scheduling overhead; the
shared-memory **process** executor escapes the GIL and is measured for
genuine multicore speedup over the serial baseline.

Run as a script to record a serial-vs-process speedup curve::

    PYTHONPATH=src python benchmarks/bench_real_executors.py --workers 4

Results land in ``benchmarks/results/real_executors.json``.  ``--smoke``
shrinks the workload for CI: it verifies the process executor end-to-end
(beliefs equal to serial within 1e-9) on 2 workers in a few seconds.
"""

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree
from repro.sched import (
    CollaborativeExecutor,
    DataParallelExecutor,
    LevelParallelExecutor,
)
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState


@pytest.fixture(scope="module")
def workload():
    tree = synthetic_tree(
        64, clique_width=8, states=2, avg_children=3, seed=77
    )
    tree.initialize_potentials(np.random.default_rng(77))
    graph = build_task_graph(tree)
    return tree, graph


def test_serial_executor_wall_clock(benchmark, workload):
    tree, graph = workload
    stats = benchmark(lambda: SerialExecutor().run(graph, PropagationState(tree)))
    assert stats.tasks_executed == graph.num_tasks


def test_collaborative_executor_wall_clock(benchmark, workload):
    tree, graph = workload
    executor = CollaborativeExecutor(num_threads=4, partition_threshold=4096)
    stats = benchmark(lambda: executor.run(graph, PropagationState(tree)))
    assert stats.tasks_executed == graph.num_tasks


def test_level_parallel_executor_wall_clock(benchmark, workload):
    tree, graph = workload
    executor = LevelParallelExecutor(num_threads=4)
    stats = benchmark(lambda: executor.run(graph, PropagationState(tree)))
    assert stats.tasks_executed == graph.num_tasks


def test_data_parallel_executor_wall_clock(benchmark, workload):
    tree, graph = workload
    executor = DataParallelExecutor(num_threads=4)
    stats = benchmark(lambda: executor.run(graph, PropagationState(tree)))
    assert stats.tasks_executed == graph.num_tasks


def test_process_executor_wall_clock(benchmark, workload):
    tree, graph = workload
    executor = ProcessSharedMemoryExecutor(
        num_workers=2, partition_threshold=16384
    )
    stats = benchmark(lambda: executor.run(graph, PropagationState(tree)))
    assert stats.tasks_executed == graph.num_tasks


def test_task_graph_construction_wall_clock(benchmark):
    tree = synthetic_tree(
        512, clique_width=15, states=2, avg_children=4, seed=3
    )
    graph = benchmark(lambda: build_task_graph(tree))
    assert graph.num_tasks == 8 * (tree.num_cliques - 1)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="real multicore speedup needs at least 4 cores",
)
def test_process_speedup_on_multicore():
    """Acceptance: >= 1.5x over serial on 4 workers for a large tree."""
    record = measure_real_speedup(workers=4)
    assert record["beliefs_match"]
    assert record["speedup"] >= 1.5, record


# --------------------------------------------------------------------- #
# Script mode: record the serial-vs-process speedup curve
# --------------------------------------------------------------------- #


def _build_workload(num_cliques, clique_width, states, seed):
    tree = synthetic_tree(
        num_cliques,
        clique_width=clique_width,
        states=states,
        avg_children=3,
        width_jitter=1,
        seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree, build_task_graph(tree)


def _time_run(executor, graph, tree, repeats):
    best, state = float("inf"), None
    for _ in range(repeats):
        state = PropagationState(tree)
        t0 = time.perf_counter()
        executor.run(graph, state)
        best = min(best, time.perf_counter() - t0)
    return best, state


def measure_real_speedup(
    workers=4,
    num_cliques=24,
    clique_width=18,
    states=2,
    delta=262144,
    inline_threshold=8192,
    repeats=3,
    seed=2009,
):
    """Serial vs. process-executor wall clock on one large junction tree.

    Returns a JSON-serializable record including the speedup and whether
    the process executor's beliefs matched serial to 1e-9.
    """
    tree, graph = _build_workload(num_cliques, clique_width, states, seed)
    serial_s, ref = _time_run(SerialExecutor(), graph, tree, repeats)
    process = ProcessSharedMemoryExecutor(
        num_workers=workers,
        partition_threshold=delta,
        inline_threshold=inline_threshold,
    )
    process_s, state = _time_run(process, graph, tree, repeats)
    match = all(
        np.allclose(
            ref.potentials[i].values,
            state.potentials[i].values,
            rtol=1e-9,
            atol=1e-12,
        )
        for i in range(tree.num_cliques)
    )
    return {
        "workers": workers,
        "num_cliques": num_cliques,
        "clique_width": clique_width,
        "states": states,
        "partition_threshold": delta,
        "inline_threshold": inline_threshold,
        "num_tasks": graph.num_tasks,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_s,
        "process_seconds": process_s,
        "speedup": serial_s / process_s if process_s > 0 else float("inf"),
        "beliefs_match": bool(match),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record real serial-vs-process speedup"
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--cliques", type=int, default=24)
    parser.add_argument("--width", type=int, default=18)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload: verify correctness, report (not assert) speedup",
    )
    parser.add_argument(
        "--output",
        default=str(
            pathlib.Path(__file__).parent / "results" / "real_executors.json"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        record = measure_real_speedup(
            workers=args.workers,
            num_cliques=12,
            clique_width=12,
            delta=2048,
            inline_threshold=512,
            repeats=1,
        )
    else:
        record = measure_real_speedup(
            workers=args.workers,
            num_cliques=args.cliques,
            clique_width=args.width,
            repeats=args.repeats,
        )

    print(
        f"serial {record['serial_seconds']:.3f}s | "
        f"process[{record['workers']}w] {record['process_seconds']:.3f}s | "
        f"speedup {record['speedup']:.2f}x on {record['cpu_count']} cores | "
        f"beliefs match: {record['beliefs_match']}"
    )
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    existing = []
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except (json.JSONDecodeError, OSError):
            existing = []
    existing.append(record)
    out.write_text(json.dumps(existing, indent=2) + "\n")
    print(f"recorded -> {out}")

    if not record["beliefs_match"]:
        print("FAIL: process beliefs diverge from serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Observer cost: traced vs. untraced wall clock for each executor.

The span tracer (:mod:`repro.obs`) promises two bounds: the *disabled*
path costs nothing (executors never touch ``repro.obs`` when no tracer
is passed), and the *enabled* path appends one tuple per span to a
per-worker list — cheap enough that traced runs stay within a few
percent of untraced ones.  This benchmark pins both down so the perf
trajectory captures observer cost over time.

Run as a script to record the overhead table::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py

Results land in ``BENCH_trace.json`` at the repo root (one record per
executor: untraced/traced best-of-N wall time, overhead ratio, span
count).  ``--max-overhead 0.10`` turns the run into a gate — exit 1 if
any executor's traced wall time exceeds untraced by more than 10% — and
is what the CI trace-smoke job invokes.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.jt.generation import synthetic_tree
from repro.obs.tracer import Tracer
from repro.sched import CollaborativeExecutor, WorkStealingExecutor
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.serial import SerialExecutor
from repro.tasks.dag import build_task_graph
from repro.tasks.state import PropagationState

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_trace.json"


def _build_workload(num_cliques=64, clique_width=8, seed=77):
    tree = synthetic_tree(
        num_cliques, clique_width=clique_width, states=2, avg_children=3,
        seed=seed,
    )
    tree.initialize_potentials(np.random.default_rng(seed))
    return tree, build_task_graph(tree)


def _executors(workers):
    return [
        ("serial", lambda: SerialExecutor()),
        (
            "collaborative",
            lambda: CollaborativeExecutor(
                num_threads=workers, partition_threshold=4096
            ),
        ),
        (
            "workstealing",
            lambda: WorkStealingExecutor(
                num_threads=workers, partition_threshold=4096
            ),
        ),
        (
            "process",
            lambda: ProcessSharedMemoryExecutor(
                num_workers=workers, partition_threshold=16384
            ),
        ),
    ]


def _one_run(make_executor, graph, tree, traced):
    """One wall-clock measurement; returns (seconds, span_count)."""
    executor = make_executor()
    state = PropagationState(tree)
    tracer = Tracer() if traced else None
    t0 = time.perf_counter()
    if tracer is not None:
        stats = executor.run(graph, state, tracer=tracer)
    else:
        stats = executor.run(graph, state)
    elapsed = time.perf_counter() - t0
    spans = 0
    if tracer is not None:
        trace = tracer.finalize(
            graph=graph, stats=stats, executor=type(executor).__name__
        )
        spans = len(trace.spans)
    return elapsed, spans


def measure_trace_overhead(
    workers=2, num_cliques=64, clique_width=8, repeats=3, seed=77
):
    """Traced-vs-untraced wall clock for every executor on one workload.

    Runs untraced/traced back-to-back as interleaved *pairs* so scheduler
    drift on a loaded machine hits both legs alike.  ``overhead`` is the
    best-vs-best ratio; ``min_pair_overhead`` is the smallest per-pair
    ratio — systematic tracer cost shows up in every pair, a noisy
    neighbor does not, so that is what the CI gate checks.
    """
    tree, graph = _build_workload(num_cliques, clique_width, seed)
    records = []
    for name, make in _executors(workers):
        plain_s = traced_s = float("inf")
        min_pair = float("inf")
        spans = 0
        for _ in range(repeats):
            p, _ = _one_run(make, graph, tree, traced=False)
            t, spans = _one_run(make, graph, tree, traced=True)
            plain_s = min(plain_s, p)
            traced_s = min(traced_s, t)
            if p > 0:
                min_pair = min(min_pair, t / p - 1.0)
        records.append({
            "executor": name,
            "workers": 1 if name == "serial" else workers,
            "num_cliques": num_cliques,
            "clique_width": clique_width,
            "num_tasks": graph.num_tasks,
            "untraced_seconds": plain_s,
            "traced_seconds": traced_s,
            "overhead": traced_s / plain_s - 1.0 if plain_s > 0 else 0.0,
            "min_pair_overhead": min_pair if min_pair != float("inf") else 0.0,
            "spans": spans,
        })
    return records


# --------------------------------------------------------------------- #
# pytest-benchmark entry points (picked up by the benchmark suite)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def workload():
    return _build_workload()


def test_serial_traced_wall_clock(benchmark, workload):
    tree, graph = workload

    def run():
        tracer = Tracer()
        stats = SerialExecutor().run(
            graph, PropagationState(tree), tracer=tracer
        )
        return tracer.finalize(graph=graph, stats=stats, executor="Serial")

    trace = benchmark(run)
    assert trace.execute_spans()


def test_collaborative_traced_wall_clock(benchmark, workload):
    tree, graph = workload
    executor = CollaborativeExecutor(num_threads=4, partition_threshold=4096)

    def run():
        tracer = Tracer()
        stats = executor.run(graph, PropagationState(tree), tracer=tracer)
        return tracer.finalize(
            graph=graph, stats=stats, executor="Collaborative"
        )

    trace = benchmark(run)
    assert trace.execute_spans()


# --------------------------------------------------------------------- #
# Script mode: record BENCH_trace.json, optionally gate on overhead
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record traced-vs-untraced executor wall time"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cliques", type=int, default=64)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        help="fail (exit 1) if any executor's traced/untraced ratio "
        "exceeds 1 + MAX_OVERHEAD (e.g. 0.10 for the CI 10%% gate)",
    )
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    records = measure_trace_overhead(
        workers=args.workers,
        num_cliques=args.cliques,
        clique_width=args.width,
        repeats=args.repeats,
    )
    for r in records:
        print(
            f"{r['executor']:>14}: untraced {r['untraced_seconds']:.4f}s | "
            f"traced {r['traced_seconds']:.4f}s | "
            f"overhead {r['overhead']*100:+.1f}% "
            f"(min pair {r['min_pair_overhead']*100:+.1f}%) | "
            f"{r['spans']} spans"
        )

    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=2) + "\n")
    print(f"recorded -> {out}")

    if args.max_overhead is not None:
        over = [
            r for r in records if r["min_pair_overhead"] > args.max_overhead
        ]
        if over:
            for r in over:
                print(
                    f"FAIL: {r['executor']} tracing overhead "
                    f"{r['min_pair_overhead']*100:.1f}% in every pair "
                    f"exceeds {args.max_overhead*100:.0f}% budget",
                    file=sys.stderr,
                )
            return 1
        print(f"all executors within {args.max_overhead*100:.0f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Throughput of batched evidence propagation vs one-case-at-a-time.

Runs the same set of evidence cases through
:meth:`repro.inference.engine.InferenceEngine.propagate_batch` twice —
once as B independent single-case propagations, once as one batched
propagation with a leading batch axis — and records cases/second for
each, per executor.  The batched run amortizes the per-task Python and
scheduling overhead across all B columns of every numpy kernel, which
is where the speedup comes from; the numeric work is identical, and the
gate below insists the *answers* are identical too.

Run as a script to record the table::

    PYTHONPATH=src python benchmarks/bench_batch.py

Results land in ``BENCH_batch.json`` at the repo root.  ``--smoke``
shrinks the workload for CI and turns the run into a gate: exit 1 if
batched throughput is below 2x single-case at B=16 on the serial
executor, or if any batched column disagrees with a fresh serial
single-case run at 1e-9.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro import InferenceEngine, random_network
from repro.sched import CollaborativeExecutor
from repro.sched.serial import SerialExecutor

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_batch.json"
)

RTOL = 1e-9
ATOL = 1e-12


def _cases(num_vars, batch, seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(batch):
        delta = {}
        for var in rng.choice(num_vars, size=2, replace=False):
            if rng.integers(2):
                delta[int(var)] = int(rng.integers(2))
            else:
                delta[int(var)] = rng.uniform(0.2, 1.0, size=2)
        cases.append(delta)
    return cases


def _verify(bn, cases, state, failures, label):
    """Every batched column vs a fresh serial single-case run."""
    variables = sorted(
        {v for clique in state.jt.cliques for v in clique.variables}
    )
    for i, case in enumerate(cases):
        oracle = InferenceEngine.from_network(bn)
        exact = oracle.query(case)
        for var in variables:
            if not np.allclose(
                state.marginal(var)[i], exact[var], rtol=RTOL, atol=ATOL
            ):
                failures.append(
                    f"{label}: batched case {i} disagrees with serial "
                    f"single-case run on var {var}"
                )
                return


def measure(bn, cases, executor_name, executor_factory, repeats, failures,
            verify):
    """One executor row: single-case loop vs one batched propagation."""
    engine = InferenceEngine.from_network(bn)
    batch = len(cases)

    # Warm both code paths (graph builds, caches of chunk plans) so the
    # timed repeats measure steady-state propagation only.
    engine.propagate_batch([cases[0]], executor=executor_factory())
    engine.propagate_batch(cases, executor=executor_factory())

    single_best = float("inf")
    for _ in range(repeats):
        executor = executor_factory()
        t0 = time.perf_counter()
        for case in cases:
            engine.propagate_batch([case], executor=executor)
        single_best = min(single_best, time.perf_counter() - t0)

    batched_best = float("inf")
    state = None
    for _ in range(repeats):
        executor = executor_factory()
        t0 = time.perf_counter()
        state = engine.propagate_batch(cases, executor=executor)
        batched_best = min(batched_best, time.perf_counter() - t0)

    if verify:
        _verify(bn, cases, state, failures, executor_name)

    single_cps = batch / single_best
    batched_cps = batch / batched_best
    row = {
        "executor": executor_name,
        "batch": batch,
        "single_seconds": single_best,
        "batched_seconds": batched_best,
        "single_cases_per_s": single_cps,
        "batched_cases_per_s": batched_cps,
        "speedup": batched_cps / single_cps if single_cps > 0 else 0.0,
    }
    print(
        f"{executor_name:>13s}  B={batch:<3d} "
        f"single {single_cps:8.1f} cases/s  "
        f"batched {batched_cps:8.1f} cases/s  "
        f"speedup {row['speedup']:5.2f}x"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark batched evidence propagation"
    )
    parser.add_argument("--variables", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--batches", type=int, nargs="+", default=[4, 16, 64],
        help="batch sizes to sweep (16 is the gated size)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload and gate: serial batched throughput must "
        "be >= 2x single-case at B=16 and every column must match a "
        "fresh serial single-case run at 1e-9",
    )
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    num_vars = 20 if args.smoke else args.variables
    repeats = 3 if args.smoke else args.repeats
    batches = [16] if args.smoke else list(args.batches)
    executors = [
        ("serial", SerialExecutor),
        ("collaborative", lambda: CollaborativeExecutor(num_threads=2)),
    ]

    bn = random_network(
        num_vars, max_parents=3, edge_probability=0.6, seed=args.seed
    )
    failures = []
    rows = []
    for batch in batches:
        cases = _cases(num_vars, batch, args.seed + batch)
        for name, factory in executors:
            rows.append(
                measure(
                    bn, cases, name, factory, repeats, failures,
                    verify=args.smoke or batch == batches[0],
                )
            )

    gated = [
        r for r in rows if r["executor"] == "serial" and r["batch"] == 16
    ]
    if args.smoke:
        if not gated:
            failures.append("smoke run produced no serial B=16 row")
        elif gated[0]["speedup"] < 2.0:
            failures.append(
                f"batched throughput only {gated[0]['speedup']:.2f}x "
                "single-case at B=16 (gate: >= 2x)"
            )

    payload = {
        "variables": num_vars,
        "repeats": repeats,
        "seed": args.seed,
        "rows": rows,
        # Headline for dashboards: the gated configuration when present,
        # else the largest measured batch on the serial executor.
        "speedup_b16_serial": gated[0]["speedup"] if gated else None,
    }
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"recorded -> {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.smoke:
        print(
            "gate ok: batched >= 2x single-case at B=16, every column "
            "exact vs serial"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Throughput and tail latency of the concurrent inference service.

Drives a seeded multi-client closed-loop workload through
:class:`repro.serve.InferenceService` at increasing offered concurrency
and records, per concurrency level: throughput (served responses per
second), p50/p90/p99 latency (from the service tracer's serve spans),
the shed rate, and how much coalescing and caching absorbed.  One extra
scenario overloads a deliberately tiny admission queue to measure the
degraded-mode split (stale vs shed).

Run as a script to record the table::

    PYTHONPATH=src python benchmarks/bench_serve.py

Results land in ``BENCH_serve.json`` at the repo root.  ``--smoke``
shrinks the workload for CI and turns the run into a gate: exit 1 if any
response is silently wrong vs a serial oracle, if the service fails any
request in the fault-free workload, or if the overload scenario sheds
nothing (admission control not engaging).
"""

import argparse
import json
import pathlib
import random
import sys
import threading
import time

import numpy as np

from repro import InferenceEngine, random_network
from repro.jt.build import junction_tree_from_network
from repro.sched import CollaborativeExecutor
from repro.serve import EngineSessionPool, InferenceService, QueryRequest

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
)

ATOL = 1e-9


def _build(num_vars, sessions, seed):
    bn = random_network(
        num_vars, max_parents=3, edge_probability=0.6, seed=seed
    )
    pool = EngineSessionPool.from_junction_tree(
        junction_tree_from_network(bn), sessions=sessions
    )
    return bn, pool


def _schedule(rng, num_vars, requests):
    out = []
    for _ in range(requests):
        delta = {
            rng.randrange(num_vars): rng.randrange(2)
            for _ in range(rng.randrange(3))
        }
        out.append(
            QueryRequest(
                delta=delta,
                vars=sorted(rng.sample(range(num_vars), 2)),
                deadline=60.0,
            )
        )
    return out


def _run_load(service, schedules):
    """Closed-loop clients: submit, wait, repeat.  Returns (req, resp)s."""
    results = []
    lock = threading.Lock()

    def client(cid):
        for request in schedules[cid]:
            response = service.submit(request).result(120.0)
            with lock:
                results.append((request, response))

    threads = [
        threading.Thread(target=client, args=(cid,))
        for cid in range(len(schedules))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _verify(bn, results, failures):
    """Exactness of every ok response against a fresh serial oracle."""
    oracle = InferenceEngine.from_network(bn)
    memo = {}
    for request, response in results:
        if response.status != "ok":
            continue
        sig = request.signature()
        if sig not in memo:
            oracle.set_evidence(request.evidence())
            oracle.propagate(incremental=False)
            memo[sig] = {v: oracle.marginal(v) for v in request.vars}
        else:
            for v in request.vars:
                if v not in memo[sig]:
                    oracle.set_evidence(request.evidence())
                    oracle.propagate(incremental=False)
                    memo[sig][v] = oracle.marginal(v)
        for v in request.vars:
            if not np.allclose(response.marginals[v], memo[sig][v],
                               atol=ATOL):
                failures.append(
                    f"wrong marginal for var {v} (tier {response.executor})"
                )


def measure_throughput(num_vars, sessions, clients, per_client, seed,
                       failures):
    """One concurrency level: clients closed-loop against a fresh service."""
    bn, pool = _build(num_vars, sessions, seed)
    service = InferenceService(
        pool,
        fallback=CollaborativeExecutor(num_threads=2),
        max_queue=max(2 * clients, 8),
        workers=sessions,
    )
    rng = random.Random(seed)
    schedules = [
        _schedule(random.Random(rng.randrange(1 << 30)), num_vars, per_client)
        for _ in range(clients)
    ]
    t0 = time.perf_counter()
    results = _run_load(service, schedules)
    elapsed = time.perf_counter() - t0
    report = service.drain()
    _verify(bn, results, failures)
    if report.failed:
        failures.append(
            f"{report.failed} failed responses in a fault-free workload"
        )
    return {
        "clients": clients,
        "requests": clients * per_client,
        "seconds": elapsed,
        "throughput_rps": report.served / elapsed if elapsed > 0 else 0.0,
        "served_ok": report.served_ok,
        "coalesced": report.coalesced,
        "cache_served": report.tier_counts.get("cache", 0),
        "shed": report.shed,
        "deadline_missed": report.deadline_missed,
        "failed": report.failed,
        "shed_rate": report.shed_rate,
        "latency": report.latency,
    }


def measure_overload(num_vars, sessions, seed, failures, bursts=120):
    """Tiny queue + open-loop burst: the degraded-mode split."""
    bn, pool = _build(num_vars, sessions, seed)
    service = InferenceService(
        pool,
        fallback=CollaborativeExecutor(num_threads=2),
        max_queue=2,
        workers=sessions,
    )
    rng = random.Random(seed + 1)
    # Prime the stale store so overload has a degraded answer to give.
    service.query(vars=list(range(num_vars)), deadline=60.0)
    futures = []
    for i in range(bursts):
        futures.append(service.submit(QueryRequest(
            delta={rng.randrange(num_vars): rng.randrange(2)},
            vars=[rng.randrange(num_vars)],
            deadline=60.0,
            max_staleness=60.0 if i % 2 == 0 else None,
        )))
    responses = [f.result(120.0) for f in futures]
    report = service.drain()
    statuses = {}
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
    if report.shed == 0:
        failures.append(
            "overload burst shed nothing — admission control not engaging"
        )
    if any(r.status == "failed" for r in responses):
        failures.append("failed responses during overload burst")
    return {
        "bursts": bursts,
        "max_queue": 2,
        "statuses": statuses,
        "served_stale": report.served_stale,
        "shed": report.shed,
        "shed_rate": report.shed_rate,
        "queue_high_water": report.queue_high_water,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the concurrent inference service"
    )
    parser.add_argument("--variables", type=int, default=30)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--per-client", type=int, default=25)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload and gate: every ok response must match "
        "the serial oracle, no failed responses, overload must shed",
    )
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    per_client = 8 if args.smoke else args.per_client
    client_levels = (2, 4) if args.smoke else (1, 2, 4, 8)
    failures = []

    levels = []
    for clients in client_levels:
        row = measure_throughput(
            args.variables, args.sessions, clients, per_client, args.seed,
            failures,
        )
        levels.append(row)
        lat = row["latency"]
        print(
            f"{clients:2d} clients: {row['throughput_rps']:8.1f} resp/s | "
            f"p50 {lat.get('p50', 0)*1e3:7.2f} ms  "
            f"p99 {lat.get('p99', 0)*1e3:7.2f} ms | "
            f"coalesced {row['coalesced']:3d}  cache {row['cache_served']:3d}"
            f"  shed {row['shed']:3d}"
        )

    overload = measure_overload(
        args.variables, args.sessions, args.seed, failures,
        bursts=40 if args.smoke else 120,
    )
    print(
        f"overload (queue=2): {overload['statuses']} "
        f"(shed rate {overload['shed_rate']*100:.1f}%)"
    )

    payload = {
        "variables": args.variables,
        "sessions": args.sessions,
        "per_client": per_client,
        "seed": args.seed,
        "levels": levels,
        "overload": overload,
        # Headline row for dashboards: the highest concurrency level.
        "throughput_rps": levels[-1]["throughput_rps"],
        "p50_seconds": levels[-1]["latency"].get("p50", 0.0),
        "p99_seconds": levels[-1]["latency"].get("p99", 0.0),
        "shed_rate": overload["shed_rate"],
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
        print("gate ok: every response exact or explicitly refused; "
              "overload shed as designed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

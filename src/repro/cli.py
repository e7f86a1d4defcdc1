"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
* ``demo`` — a short end-to-end inference demo on a random network.
* ``query`` — build a random network, absorb evidence, print a marginal.
* ``experiment {fig5,...,fig9,rerooting-cost,ablations,...,all}`` —
  regenerate the paper's evaluation tables and check the paper-shape
  claims on them (exit 1 when one fails).
* ``trace {report,gantt,validate} FILE`` — inspect a trace ``demo
  --trace`` recorded.
* ``serve-demo`` / ``stream-demo`` — a seeded client burst through the
  request service (or the model registry) / the streaming service, then
  the drain report.
* ``recover DIR`` — replay a durable root's journals and report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _make_executor(
    name: str, threads: int, partition_threshold=None, **fault_kwargs
):
    """Instantiate one of the registered executors by CLI name.

    ``fault_kwargs`` (fault_plan / inline_threshold) configure the
    process executor's fault injection; the thread and serial executors
    have no crash surface, so the kwargs are rejected there.
    """
    from repro.sched import (
        CollaborativeExecutor,
        ProcessSharedMemoryExecutor,
        SerialExecutor,
        WorkStealingExecutor,
    )

    if name != "process" and any(
        v is not None for v in fault_kwargs.values()
    ):
        raise ValueError("fault-injection options need --executor process")
    if name == "serial":
        return SerialExecutor()
    if name == "collaborative":
        return CollaborativeExecutor(
            num_threads=threads, partition_threshold=partition_threshold
        )
    if name == "workstealing":
        return WorkStealingExecutor(
            num_threads=threads, partition_threshold=partition_threshold
        )
    if name == "process":
        kwargs = {k: v for k, v in fault_kwargs.items() if v is not None}
        return ProcessSharedMemoryExecutor(
            num_workers=threads,
            partition_threshold=partition_threshold,
            **kwargs,
        )
    raise ValueError(f"unknown executor {name!r}")


EXECUTOR_CHOICES = ("serial", "collaborative", "workstealing", "process")


def _cmd_demo(args) -> int:
    from repro import InferenceEngine, random_network

    bn = random_network(
        args.variables, max_parents=3, edge_probability=0.6, seed=args.seed
    )
    engine = InferenceEngine.from_network(bn)
    print(
        f"{bn.num_variables}-variable network -> "
        f"{engine.jt.num_cliques} cliques, "
        f"{engine.task_graph.num_tasks} tasks"
    )
    engine.set_evidence({0: 1})
    fault_plan = None
    if args.inject_kill is not None:
        from repro.sched import FaultPlan

        if not args.resilience:
            raise ValueError(
                "--inject-kill needs --resilience: the process executor "
                "does not recover on its own, the recovery ladder does"
            )
        fault_plan = FaultPlan(kill_before_dispatch={args.inject_kill: 0})
    executor = _make_executor(
        args.executor,
        args.threads,
        args.partition_threshold,
        fault_plan=fault_plan,
        # A demo network's tables sit under the inline threshold; force
        # real dispatches so the injected fault has a worker to hit.
        inline_threshold=0 if fault_plan is not None else None,
    )
    print(f"executor: {args.executor} ({args.threads} workers)")
    if fault_plan is not None:
        print(f"fault injection: kill a worker before dispatch "
              f"{args.inject_kill}")
    engine.propagate(
        executor,
        resilience=args.resilience or None,
        trace=getattr(args, "trace", None),
    )
    target = bn.num_variables - 1
    print(
        f"P(X{target} | X0=1) = "
        f"{np.round(engine.marginal(target), 4).tolist()}"
    )
    print(f"P(evidence) = {engine.likelihood():.6f}")
    for item in args.delta or []:
        var_text, _, state_text = item.partition("=")
        var = int(var_text)
        if state_text == "-":
            engine.retract(var)
            print(f"delta: retract X{var}")
        else:
            engine.observe(var, int(state_text))
            print(f"delta: observe X{var}={state_text}")
        engine.propagate(executor, resilience=args.resilience or None)
        inc = engine.last_stats
        mode = "incremental" if inc.incremental else "full"
        print(
            f"  repropagated ({mode}): {inc.tasks_executed} tasks, "
            f"{inc.tasks_skipped} skipped of "
            f"{engine.task_graph.num_tasks}"
        )
        print(
            f"  P(X{target} | evidence) = "
            f"{np.round(engine.marginal(target), 4).tolist()}"
        )
    if args.delta:
        print(
            f"query cache: {engine.cache.hits} hits / "
            f"{engine.cache.misses} misses "
            f"(hit rate {engine.cache.hit_rate() * 100:.1f}%)"
        )
    stats = engine.last_stats
    if stats.degradations:
        print(
            f"recovery: {len(stats.degradations)} step(s) down the ladder, "
            f"completed on {stats.completed_executor}"
        )
        for record in stats.degradations:
            print(f"  degraded: {record}")
    if stats.health:
        print(f"health: {stats.health}")
    if getattr(args, "trace", None):
        trace = engine.last_trace
        print(trace.summary())
        print(
            f"trace written to {args.trace} "
            f"(open in https://ui.perfetto.dev or chrome://tracing; "
            f"inspect with `repro trace report {args.trace}`)"
        )
    return 0


def _serve_demo_registry(args) -> int:
    """Multi-model variant: a registry-fronted burst across N models and
    K tenants, with an optional memory budget forcing LRU evictions."""
    import random
    import threading

    from repro import random_network
    from repro.registry import ModelRegistry, RegistryService, TenantScheduler
    from repro.serve import QueryRequest

    budget = (
        int(args.budget_mb * 1e6) if args.budget_mb is not None else None
    )
    registry = ModelRegistry(
        memory_budget=budget,
        sessions=args.sessions,
        durable_root=args.durable_root,
    )
    model_ids = [f"model-{i}" for i in range(args.models)]
    for i, model_id in enumerate(model_ids):
        registry.register(
            model_id,
            loader=lambda s=args.seed + i: random_network(
                args.variables, max_parents=3, edge_probability=0.6, seed=s
            ),
        )
    service = RegistryService(
        registry,
        scheduler=TenantScheduler(capacity=max(8, 4 * args.tenants)),
        max_queue=args.max_queue,
    )
    budget_label = (
        f"{args.budget_mb:g} MB budget" if budget else "no budget"
    )
    print(
        f"{args.models} models x {args.variables} variables, "
        f"{args.tenants} tenants, {args.sessions} sessions/model, "
        f"{budget_label}"
    )
    if args.durable_root is not None:
        adopted = registry.stats()["recovered_models"]
        print(
            f"durable root {args.durable_root}: {adopted} of "
            f"{args.models} models adopted warm from previous artifacts"
        )

    def client(cid: int) -> None:
        rng = random.Random(args.seed * 1000 + cid)
        tenant = f"tenant-{cid % args.tenants}"
        for _ in range(args.requests):
            delta = {
                rng.randrange(args.variables): rng.randrange(2)
                for _ in range(rng.randrange(3))
            }
            vars_ = sorted(rng.sample(range(args.variables), 2))
            service.submit(
                QueryRequest(
                    delta=delta,
                    vars=vars_,
                    deadline=args.deadline,
                    max_staleness=args.max_staleness,
                    model_id=rng.choice(model_ids),
                    tenant=tenant,
                )
            ).result(120.0)

    clients = max(args.clients, args.tenants)
    threads = [
        threading.Thread(target=client, args=(cid,), name=f"client-{cid}")
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report = service.drain()
    print(report.format())
    return 0


def _cmd_serve_demo(args) -> int:
    """Stand up an InferenceService, fire a seeded client burst, report."""
    import random
    import threading

    from repro import random_network
    from repro.jt.build import junction_tree_from_network
    from repro.serve import EngineSessionPool, InferenceService, QueryRequest

    if args.models > 1 or args.durable_root is not None:
        # Durable artifacts live in the registry layer, so a durable
        # serve-demo always routes through it (one model is fine).
        return _serve_demo_registry(args)

    bn = random_network(
        args.variables, max_parents=3, edge_probability=0.6, seed=args.seed
    )
    pool = EngineSessionPool.from_junction_tree(
        junction_tree_from_network(bn), sessions=args.sessions
    )
    primary = fallback = None
    if args.executor == "process":
        primary = _make_executor("process", args.threads)
    elif args.executor != "serial":
        fallback = _make_executor(args.executor, args.threads)
    else:
        fallback = _make_executor("serial", 1)
    service = InferenceService(
        pool,
        primary=primary,
        fallback=fallback,
        max_queue=args.max_queue,
    )
    print(
        f"{bn.num_variables}-variable network, "
        f"{pool.num_sessions} sessions, tier: {args.executor}"
    )

    def client(cid: int) -> None:
        rng = random.Random(args.seed * 1000 + cid)
        for _ in range(args.requests):
            delta = {
                rng.randrange(args.variables): rng.randrange(2)
                for _ in range(rng.randrange(3))
            }
            vars_ = sorted(rng.sample(range(args.variables), 2))
            service.submit(
                QueryRequest(
                    delta=delta,
                    vars=vars_,
                    deadline=args.deadline,
                    max_staleness=args.max_staleness,
                )
            ).result(60.0)

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"client-{cid}")
        for cid in range(args.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report = service.drain()
    print(report.format())
    return 0


def _cmd_stream_demo(args) -> int:
    """Stream seeded evidence ticks through a StreamingService, report."""
    import random

    import numpy as np

    from repro.bn.dbn import make_hmm
    from repro.serve import StreamingService

    rng = np.random.default_rng(args.seed)

    def stochastic(shape, axis=-1):
        table = rng.random(shape) + 0.1
        return table / table.sum(axis=axis, keepdims=True)

    states, observations = args.states, args.observations
    dbn = make_hmm(
        states,
        observations,
        initial=stochastic(states, axis=0),
        transition=stochastic((states, states)),
        emission=stochastic((states, observations)),
    )
    service = StreamingService(
        dbn,
        window=args.window,
        retire=args.retire,
        workers=args.workers,
        max_pending=args.max_pending,
        default_deadline=args.deadline,
        durable_root=args.durable_root,
    )
    if service.recovery_report is not None and service.recovery_report.streams:
        print(service.recovery_report.format())
    print(
        f"{states}-state/{observations}-symbol HMM, "
        f"{args.streams} streams x {args.ticks} ticks, "
        f"window {args.window} (retire "
        f"{args.retire if args.retire is not None else args.window // 2}), "
        f"max pending {args.max_pending}"
    )
    handles = []
    for i in range(args.streams):
        name = f"stream-{i}"
        try:
            # A durable rerun already rebuilt the stream at recovery.
            handles.append(service._handle(name))
        except KeyError:
            handles.append(service.subscribe(name=name, query_vars=[0]))
    futures = []
    for i, handle in enumerate(handles):
        seq = random.Random(args.seed * 1000 + i)
        for _ in range(args.ticks):
            delta = (
                {} if seq.random() < 0.1
                else {1: seq.randrange(observations)}
            )
            futures.append((handle, service.push_tick(handle, delta)))
    last = {}
    for handle, future in futures:
        response = future.result(60.0)
        if response.ok:
            last[handle.name] = response
    for name in sorted(last):
        response = last[name]
        belief = ", ".join(f"{p:.4f}" for p in response.marginals[0])
        print(
            f"  {name}: t={response.t} "
            f"P(state) = [{belief}]"
            f"{'  (rolled)' if response.rolled else ''}"
        )
    report = service.drain()
    print(report.format())
    return 0


def _cmd_recover(args) -> int:
    """Replay a durable root's journals and print the recovery report."""
    import os

    from repro.durability import DurableModelStore, RecoveryManager
    from repro.serve import StreamingService

    manager = RecoveryManager(args.root)
    streams = manager.stream_names()
    store = DurableModelStore(args.root)
    manifest = store.manifest()
    if not streams and not manifest:
        print(f"nothing durable under {args.root}")
        return 0

    if streams:
        dbn = manager.load_template()
        if dbn is None:
            print(
                f"{args.root}: {len(streams)} stream journal(s) but no "
                f"_template.json — cannot rebuild the sessions",
                file=sys.stderr,
            )
            return 1
        service = StreamingService(
            dbn, workers=args.workers, durable_root=args.root
        )
        report = service.recovery_report
        print(report.format())
        service.drain()
    if manifest:
        print(f"models ({len(manifest)} durable):")
        for model_id in sorted(manifest):
            meta = manifest[model_id]
            print(
                f"  {model_id}: {meta['checkpoint_bytes']} checkpoint "
                f"bytes, cold compile was {meta['compile_seconds']*1e3:.1f} "
                f"ms — a fresh registry on this root adopts it warm"
            )
        print(f"  (root: {os.path.abspath(args.root)})")
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import PropagationTrace, validate_chrome_trace

    if args.trace_command == "validate":
        try:
            counts = validate_chrome_trace(args.file)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"{args.file}: invalid trace — {exc}")
            return 1
        print(
            f"{args.file}: valid Chrome trace — {counts['events']} events, "
            f"{counts['spans']} spans, {counts['counters']} counter "
            f"samples, {counts['rows']} rows"
        )
        return 0

    try:
        trace = PropagationTrace.load(args.file)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{args.file}: cannot load trace — {exc}")
        return 1
    if args.trace_command == "gantt":
        print(trace.summary())
        print()
        print("\n".join(trace.gantt(width=args.width)))
        return 0

    # report: metrics + observed-vs-predicted simcore calibration
    print(trace.summary())
    print()
    print(trace.metrics().format())
    print()
    try:
        report = trace.calibrate()
    except ValueError as exc:
        print(f"calibration skipped: {exc}")
        return 0
    print(report.format())
    return 0


def _cmd_query(args) -> int:
    from repro import InferenceEngine, random_network

    bn = random_network(
        args.variables, max_parents=3, edge_probability=0.6, seed=args.seed
    )
    engine = InferenceEngine.from_network(bn)
    evidence = {}
    for item in args.evidence or []:
        var, _, state = item.partition("=")
        evidence[int(var)] = int(state)
    engine.set_evidence(evidence)
    engine.propagate()
    print(
        f"P(X{args.target} | evidence) = "
        f"{np.round(engine.marginal(args.target), 6).tolist()}"
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import EXPERIMENTS

    names = list(EXPERIMENTS) if args.figure == "all" else [args.figure]
    failed = 0
    for name in names:
        experiment = EXPERIMENTS[name]
        result = experiment.run()
        print(experiment.render(result))
        for claim, holds in experiment.verdicts(result):
            print(f"  [{'ok' if holds else 'FAILED'}] {claim}")
            failed += not holds
        print()
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel evidence propagation (PACT 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end inference demo")
    demo.add_argument("--variables", type=int, default=20)
    demo.add_argument("--threads", type=int, default=4)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="collaborative",
        help="which executor propagates the evidence (process = "
        "shared-memory worker processes)",
    )
    demo.add_argument(
        "--partition-threshold",
        type=int,
        default=None,
        metavar="DELTA",
        help="split tasks whose table slice exceeds DELTA entries",
    )
    demo.add_argument(
        "--resilience",
        action="store_true",
        help="run the executor as the first tier of the recovery ladder "
        "(roll back, step down to serial) with numerical health guards",
    )
    demo.add_argument(
        "--inject-kill",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: SIGKILL one worker before the Nth task "
        "dispatch (process executor with --resilience only)",
    )
    demo.add_argument(
        "--delta",
        action="append",
        metavar="VAR=STATE|VAR=-",
        help="after the initial propagation, apply this evidence delta "
        "(VAR=- retracts) and repropagate incrementally; repeatable, "
        "applied in order, reports task savings and cache counters",
    )
    demo.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record a span trace of the propagation and write it as "
        "Chrome-trace JSON (open in Perfetto)",
    )

    serve = sub.add_parser(
        "serve-demo",
        help="concurrent inference service demo: seeded client burst, "
        "then a drain report",
    )
    serve.add_argument("--variables", type=int, default=25)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--clients", type=int, default=4)
    serve.add_argument("--requests", type=int, default=10,
                       metavar="N", help="requests per client")
    serve.add_argument("--sessions", type=int, default=2,
                       help="calibrated engine sessions in the pool")
    serve.add_argument("--threads", type=int, default=2,
                       help="workers inside the serving executor tier")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="admission bound (queued flights)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS", help="per-request deadline")
    serve.add_argument(
        "--max-staleness", type=float, default=None, metavar="SECONDS",
        help="accept cached answers this old instead of shedding",
    )
    serve.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="collaborative",
        help="serving tier (process = breaker-guarded primary with a "
        "thread-tier fallback)",
    )
    serve.add_argument(
        "--models", type=int, default=1, metavar="N",
        help="serve N distinct models through the model registry "
        "(on-demand compile, LRU eviction, per-model report breakdown); "
        "1 keeps the single-model service",
    )
    serve.add_argument(
        "--tenants", type=int, default=1, metavar="K",
        help="spread clients over K tenants with weighted fair "
        "admission (registry mode; per-tenant report breakdown)",
    )
    serve.add_argument(
        "--budget-mb", type=float, default=None, metavar="MB",
        help="global registry memory budget in megabytes; tight budgets "
        "force LRU evictions and checkpoint rehydrations (registry mode)",
    )
    serve.add_argument(
        "--durable-root", default=None, metavar="DIR",
        help="persist compiled-model artifacts under DIR and adopt any "
        "that survive there (routes through the registry; a rerun with "
        "the same DIR starts warm instead of recompiling)",
    )

    stream = sub.add_parser(
        "stream-demo",
        help="streaming DBN filtering demo: seeded evidence ticks over "
        "concurrent streams, then a drain report",
    )
    stream.add_argument("--states", type=int, default=4,
                        help="hidden states of the demo HMM")
    stream.add_argument("--observations", type=int, default=3,
                        help="observation symbols of the demo HMM")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--streams", type=int, default=3,
                        help="concurrent filtering streams")
    stream.add_argument("--ticks", type=int, default=12,
                        metavar="N", help="evidence ticks per stream")
    stream.add_argument("--window", type=int, default=6,
                        help="unrolled slices held per stream")
    stream.add_argument("--retire", type=int, default=None,
                        help="slices rolled into the prior per roll "
                        "(default window//2)")
    stream.add_argument("--workers", type=int, default=2,
                        help="worker threads shared by all streams")
    stream.add_argument("--max-pending", type=int, default=8,
                        help="per-stream tick-queue bound (backpressure)")
    stream.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS", help="per-tick deadline")
    stream.add_argument(
        "--durable-root", default=None, metavar="DIR",
        help="journal every admitted tick to a per-stream write-ahead "
        "log under DIR; a rerun (or `repro recover`) with the same DIR "
        "replays the journals and resumes the streams",
    )

    recover = sub.add_parser(
        "recover",
        help="scan a durable root, replay its stream journals, and "
        "print the recovery report",
    )
    recover.add_argument("root", metavar="DIR",
                         help="the durable root a previous serve-demo / "
                         "stream-demo wrote")
    recover.add_argument("--workers", type=int, default=2,
                         help="worker threads for the rebuilt service")

    trace = sub.add_parser(
        "trace", help="inspect a recorded propagation trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="metrics plus observed-vs-simcore-predicted calibration",
    )
    trace_report.add_argument("file", help="Chrome-trace JSON from --trace")
    trace_gantt = trace_sub.add_parser(
        "gantt", help="ASCII Gantt of the per-worker timelines"
    )
    trace_gantt.add_argument("file", help="Chrome-trace JSON from --trace")
    trace_gantt.add_argument("--width", type=int, default=72)
    trace_validate = trace_sub.add_parser(
        "validate", help="check the file against the Chrome trace format"
    )
    trace_validate.add_argument("file", help="Chrome-trace JSON to check")

    query = sub.add_parser("query", help="marginal query")
    query.add_argument("--variables", type=int, default=15)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--target", type=int, default=1)
    query.add_argument(
        "--evidence",
        nargs="*",
        metavar="VAR=STATE",
        help="evidence assignments, e.g. 0=1 3=0",
    )

    experiment = sub.add_parser(
        "experiment",
        help="regenerate a paper experiment and check its claims",
    )
    from repro.experiments import EXPERIMENTS

    experiment.add_argument("figure", choices=[*EXPERIMENTS, "all"])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "serve-demo": _cmd_serve_demo,
        "stream-demo": _cmd_stream_demo,
        "recover": _cmd_recover,
        "trace": _cmd_trace,
        "query": _cmd_query,
        "experiment": _cmd_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

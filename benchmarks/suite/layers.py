"""Per-layer metrics: the traced replay plus direct probes.

Layer = module name (``potential``, ``tasks``, ``sched``, ``inference``,
``jt``, ``registry``, ``integrity``, ``serve``, ``streaming``,
``durability``, ``obs``, ``simcore``).  Two sources:

* the **traced replay** — after a warm-up and an untraced replay of the
  same length, ``replay_ops`` ops run with one client and the recorder
  of :mod:`trace` installed.  ``<layer>.<fn>_ms`` values are
  milliseconds **per traced op** (total over the replay divided by the
  op count, so the layers add up to the op); a trace point that exists
  but is never reached on a workload reads 0.
* **direct probes** — median of >= 9 untraced calls into one public
  function on the workload's own model.  A probe that does not apply to
  the workload, or whose target no longer resolves, reads null.
"""

import io
import os
import shutil
import statistics
import time

import harness
import trace
from workloads import RESULT_TIMEOUT

REPEAT = 9
PRIMITIVES = ("marginalize", "divide", "extend", "multiply")
BACKENDS = {
    "serial": "repro:SerialExecutor",
    "collaborative": "repro:CollaborativeExecutor",
    "workstealing": "repro:WorkStealingExecutor",
    "process": "repro:ProcessSharedMemoryExecutor",
}


def median_seconds(fn, repeat=REPEAT, prepare=None):
    """Median wall seconds of ``fn(prepare())`` over ``repeat`` calls."""
    seconds = []
    for _ in range(repeat):
        arg = prepare() if prepare else None
        start = time.perf_counter()
        if prepare:
            fn(arg)
        else:
            fn()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def _latency_ms(log):
    return [1e3 * (e - s) for s, e in zip(log.start, log.end)]


# ------------------------------------------------------------------ #
# Direct probes
# ------------------------------------------------------------------ #


class ProbeContext:
    """What the probes of one workload share.

    ``get`` resolves a probe target by dotted name and remembers the
    ones that are gone; ``engine`` is a calibrated engine over the
    workload's model, built directly (no service in front of it);
    ``untraced`` is the client log of the untraced replay, which the
    serve and streaming overheads are differences against.
    """

    def __init__(self, workload, untraced):
        self.workload = workload
        self.untraced = untraced
        self.latency_ms = _latency_ms(untraced)
        self.missing = []
        self.engine = workload.direct_engine()
        self.engine.propagate()

    def get(self, target):
        found = trace.lookup(target)
        if found is None:
            self.missing.append(target)
        return found

    def served(self, tag, wanted):
        """Indexes of answered replay ops whose ``tag`` equals ``wanted``."""
        return [
            i for i, tags in enumerate(self.untraced.tags)
            if self.untraced.ok[i] and bool(tags.get(tag)) == wanted
        ]


def probe_tree(ctx):
    """Task count, junction-tree build (given a network) and reroot."""
    engine, network = ctx.engine, ctx.workload.network
    out = {"tasks.num_tasks": engine.task_graph.num_tasks}
    build = ctx.get("repro:junction_tree_from_network")
    if network is not None and build is not None:
        out["jt.build_ms"] = 1e3 * median_seconds(lambda: build(network))
    reroot = ctx.get("repro:reroot_optimally")
    if reroot is not None:
        out["jt.reroot_ms"] = 1e3 * median_seconds(lambda: reroot(engine.jt))
    return out


def probe_backends(ctx):
    """Each exported executor's ``run``, default arguments, full graph."""
    engine = ctx.engine
    state_cls = ctx.get("repro.tasks.state:PropagationState")
    out = {}
    for label, target in BACKENDS.items():
        cls = ctx.get(target)
        if cls is None or state_cls is None:
            continue
        executor = cls()
        try:
            executor.run(engine.task_graph, state_cls(engine.jt))  # warm
            out[f"sched.{label}.run_ms"] = 1e3 * median_seconds(
                lambda state: executor.run(engine.task_graph, state),
                prepare=lambda: state_cls(engine.jt),
            )
        finally:
            close = getattr(executor, "close", None)
            if callable(close):
                close()
    return out


def probe_observers(ctx):
    """Span-tracer overhead and simulator error on a full propagation."""
    engine = ctx.engine
    # plain, traced, traced, plain, ...: each kind follows the other as
    # often as itself, so what a call inherits from its predecessor
    # (allocator state, pending garbage) is not billed to one side.
    seconds = {None: [], True: []}
    for traced in [None, True, True, None] * ((REPEAT + 1) // 2):
        start = time.perf_counter()
        engine.propagate(incremental=False, trace=traced)
        seconds[traced].append(time.perf_counter() - start)
    base = statistics.median(seconds[None])
    out = {
        "obs.trace_overhead_share":
            (statistics.median(seconds[True]) - base) / base
    }
    calibrate = ctx.get("repro.obs:calibrate")
    if calibrate is not None and engine.last_trace is not None:
        report = calibrate(engine.last_trace)
        if report.measured_makespan > 0:
            out["simcore.predicted_over_measured"] = (
                report.predicted_makespan / report.measured_makespan
            )
    return out


def probe_registry(ctx):
    """Cold compile, rehydrate after eviction, resident acquire."""
    registry_cls = ctx.get("repro:ModelRegistry")
    if registry_cls is None:
        return {}

    def cold():
        registry = registry_cls()
        registry.register("probe", network=ctx.workload.network)
        return registry

    compiles = []
    for _ in range(REPEAT):
        registry = cold()
        try:
            start = time.perf_counter()
            registry.acquire("probe")
            compiles.append(time.perf_counter() - start)
        finally:
            registry.close()
    out = {"registry.compile_ms": 1e3 * statistics.median(compiles)}
    registry = cold()
    try:
        registry.acquire("probe")
        out["registry.rehydrate_ms"] = 1e3 * median_seconds(
            lambda _evicted: registry.acquire("probe"),
            prepare=lambda: registry.evict("probe"),
        )
        out["registry.acquire_hit_us"] = 1e6 * median_seconds(
            lambda: registry.acquire("probe"), repeat=200
        )
    finally:
        registry.close()
    return out


def probe_integrity(ctx):
    """Checkpoint save / load of one calibrated engine."""
    engine = ctx.engine
    buffer = io.BytesIO()
    engine.checkpoint(buffer)
    data = buffer.getvalue()
    return {
        "integrity.save_ms": 1e3 * median_seconds(
            lambda: engine.checkpoint(io.BytesIO())
        ),
        "integrity.load_ms": 1e3 * median_seconds(
            lambda: engine.restore(io.BytesIO(data))
        ),
        "integrity.checkpoint_bytes": len(data),
    }


def probe_serve_overhead(ctx):
    """Served-miss p50 minus the same requests on an engine, in-thread."""
    missed = ctx.served("cache", False)
    if not missed:
        return {}
    direct = []
    for index in missed[:100]:
        item = ctx.untraced.items[index]
        start = time.perf_counter()
        ctx.engine.set_evidence(item["delta"])
        ctx.engine.query(vars=item["vars"])
        direct.append(time.perf_counter() - start)
    served = statistics.median(ctx.latency_ms[i] for i in missed)
    return {"serve.overhead_ms": served - 1e3 * statistics.median(direct)}


def probe_streaming(ctx):
    """Direct ``FilteringSession`` ticks: plain, rolling, non-incremental."""
    workload = ctx.workload
    session_cls = ctx.get("repro.streaming:FilteringSession")
    if session_cls is None:
        return {}

    def drive(session, count):
        plain, rolled = [], []
        for item in workload.sequence(0, count):
            start = time.perf_counter()
            result = session.tick(dict(item))
            session.posteriors()
            (rolled if result.rolled else plain).append(
                time.perf_counter() - start
            )
        return plain, rolled

    # window 8, retire 4: 48 ticks roll ten times
    plain, rolled = drive(session_cls(workload.dbn), 48)
    full, _rolled = drive(session_cls(workload.dbn, incremental=False), 16)
    out = {
        "streaming.tick_ms": 1e3 * statistics.median(plain),
        "streaming.roll_tick_ms": 1e3 * statistics.median(rolled),
        "streaming.full_tick_ms": 1e3 * statistics.median(full),
    }
    in_service = ctx.served("rolled", False)
    if in_service:
        out["streaming.service_overhead_ms"] = (
            statistics.median(ctx.latency_ms[i] for i in in_service)
            - out["streaming.tick_ms"]
        )
    return out


def probe_durability(ctx):
    """Journal appends, rotation, bytes per tick, whole-service recovery."""
    workload = ctx.workload
    out = {}
    journal_cls = ctx.get("repro:TickJournal")
    if journal_cls is not None:
        root = workload.fresh_root()
        journal = journal_cls(root)
        try:
            deltas = workload.sequence(0, 50)
            seqs = iter(range(len(deltas)))
            out["durability.append_tick_us"] = 1e6 * median_seconds(
                lambda seq: journal.append_tick(seq, deltas[seq]),
                repeat=len(deltas), prepare=lambda: next(seqs),
            )
            seqs = iter(range(len(deltas)))
            out["durability.append_ack_us"] = 1e6 * median_seconds(
                lambda seq: journal.append_ack(seq, "ok", t=seq),
                repeat=len(deltas), prepare=lambda: next(seqs),
            )
            written = sum(
                os.path.getsize(os.path.join(root, name))
                for name in os.listdir(root)
            )
            out["durability.bytes_per_tick"] = written / len(deltas)
            session_cls = ctx.get("repro.streaming:FilteringSession")
            if session_cls is not None:
                session = session_cls(workload.dbn)
                for item in deltas[:10]:  # past the first window roll
                    session.tick(dict(item))
                snapshot = session.snapshot_state()
                out["durability.rotate_ms"] = 1e3 * median_seconds(
                    lambda: journal.rotate(snapshot, next_seq=len(deltas))
                )
        finally:
            journal.close()
            shutil.rmtree(root, ignore_errors=True)

    service_cls = ctx.get("repro.serve:StreamingService")
    if service_cls is not None:
        root = workload.fresh_root()
        try:
            service = service_cls(workload.dbn, durable_root=root)
            handle = service.subscribe(name="probe")
            for item in workload.sequence(0, 6):
                service.push_tick(handle, dict(item)).result(RESULT_TIMEOUT)
            service.drain()
            recoveries = []
            for _ in range(REPEAT):
                start = time.perf_counter()
                service = service_cls(workload.dbn, durable_root=root)
                recoveries.append(time.perf_counter() - start)
                service.drain()
            out["durability.recover_ms"] = 1e3 * statistics.median(recoveries)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return out


PROBES = {
    "tree": probe_tree,
    "backends": probe_backends,
    "observers": probe_observers,
    "registry": probe_registry,
    "integrity": probe_integrity,
    "serve_overhead": probe_serve_overhead,
    "streaming": probe_streaming,
    "durability": probe_durability,
}


def run_probes(workload, untraced):
    """Every direct probe ``workload.probes`` names; ``(metrics, missing)``."""
    ctx = ProbeContext(workload, untraced)
    out = {}
    for name in workload.probes:
        out.update(PROBES[name](ctx))
    return out, ctx.missing


# ------------------------------------------------------------------ #
# Traced replay
# ------------------------------------------------------------------ #


def _per_op(table, ops, name, key="self_ns"):
    row = table.get(name)
    return row[key] / ops / 1e6 if row else 0.0


def replay_metrics(recorder, spans, untraced, traced, report):
    """Per-layer metrics read off the traced (and untraced) replay."""
    table, ops, op_wall = trace.summarize(spans, recorder.child_cost_ns)
    gone = {name for _target, name in recorder.missing}
    out = {}

    def guarded(name, value):
        return None if name in gone else value

    primitive_self = primitive_calls = 0
    for fn in PRIMITIVES:
        name = f"potential.{fn}"
        out[f"{name}_ms"] = guarded(name, _per_op(table, ops, name))
        row = table.get(name, {"self_ns": 0, "calls": 0})
        primitive_self += row["self_ns"]
        primitive_calls += row["calls"]
    out["potential.calls"] = primitive_calls / ops
    out["potential.us_per_call"] = (
        primitive_self / primitive_calls / 1e3 if primitive_calls else None
    )

    flops_of = trace.lookup("repro.potential.primitives:primitive_flops")
    kinds = trace.lookup("repro.potential.primitives:PrimitiveKind")
    flops = moved = 0
    run_tasks = full_tasks = 0
    for span in spans:
        if span["op"] is None or span["note"] is None:
            continue
        layer, _, fn = span["name"].partition(".")
        if layer == "potential":
            read, written = span["note"]
            moved += 8 * (read + written)
            if flops_of is not None and kinds is not None:
                flops += flops_of(kinds(fn), read, written)
        elif layer == "sched":
            run_tasks += span["note"]
        elif span["name"] == "inference.propagate":
            full_tasks += span["note"]
    computable = flops_of is not None and kinds is not None
    out["potential.flops"] = flops / ops if computable else None
    out["potential.bytes"] = moved / ops

    for fn in ("build_graph", "state_init", "state_incremental"):
        name = f"tasks.{fn}"
        out[f"{name}_ms"] = guarded(name, _per_op(table, ops, name))

    sched_self = sum(
        row["self_ns"] for name, row in table.items()
        if name.startswith("sched.")
    )
    out["sched.run_self_ms"] = sched_self / ops / 1e6
    out["sched.per_task_us"] = sched_self / run_tasks / 1e3 if run_tasks else None

    out["inference.propagate_ms"] = guarded(
        "inference.propagate",
        _per_op(table, ops, "inference.propagate", "total_ns"),
    )
    out["inference.self_ms"] = sum(
        _per_op(table, ops, f"inference.{fn}")
        for fn in ("propagate", "query", "marginals_all")
    )
    for fn in ("plan", "query", "marginals_all"):
        name = f"inference.{fn}"
        out[f"{name}_ms"] = guarded(
            name, _per_op(table, ops, name, "total_ns")
        )
    out["inference.tasks_skipped_share"] = (
        1.0 - run_tasks / full_tasks if full_tasks else None
    )
    lookups = recorder.counts.get("inference.cache_lookup", [0, 0])
    out["inference.cache_hit_share"] = (
        lookups[1] / lookups[0] if lookups[0] else None
    )

    untraced_ms = _latency_ms(untraced)
    served = [i for i, ok in enumerate(untraced.ok) if ok]
    tagged = {tag for i in served for tag in untraced.tags[i]}
    if "cache" in tagged:
        hits = [i for i in served if untraced.tags[i]["cache"]]
        out["serve.cache_served_share"] = len(hits) / max(len(served), 1)
        out["serve.coalesced_share"] = sum(
            1 for i in served if untraced.tags[i]["coalesced"]
        ) / max(len(served), 1)
        out["serve.hit_p50_us"] = (
            1e3 * statistics.median(untraced_ms[i] for i in hits)
            if hits else None
        )
        out["serve.queue_high_water"] = getattr(
            report, "queue_high_water", None
        )
    if "rolled" in tagged:
        out["streaming.rolls"] = sum(
            1 for i in served if untraced.tags[i]["rolled"]
        )

    out["budget.unattributed_share"] = (
        table.get("op", {"self_ns": 0})["self_ns"] / op_wall
        if op_wall else None
    )
    base = statistics.median(untraced_ms)
    out["budget.span_overhead_share"] = (
        statistics.median(_latency_ms(traced)) - base
    ) / base
    out["client.samples"] = len(served)
    out["client.p95_ms"] = harness.percentile(
        [untraced_ms[i] for i in served], 95
    )
    out["client.p99_ms"] = harness.percentile(
        [untraced_ms[i] for i in served], 99
    )

    layers = {}
    for name, row in table.items():
        layer = name.partition(".")[0]
        layers[layer] = layers.get(layer, 0) + row["self_ns"]
    budget = {
        "ops": ops,
        "op_ms": op_wall / ops / 1e6 if ops else None,
        "layer_self_ms_per_op": {
            layer: ns / ops / 1e6 for layer, ns in sorted(layers.items())
        },
        "span_self_ms_per_op": {
            name: row["self_ns"] / ops / 1e6
            for name, row in sorted(table.items())
        },
        "span_calls_per_op": {
            name: row["calls"] / ops for name, row in sorted(table.items())
        },
    }
    return out, budget


def _slice(log, lo, hi):
    part = harness.ClientLog()
    for field in ("items", "start", "end", "cpu", "ok", "tags"):
        setattr(part, field, getattr(log, field)[lo:hi])
    return part


def traced_phase(workload):
    """The traced run of one workload.

    Returns ``(metrics, trace_doc, attempted, failed)``; ``metrics`` maps
    every per-layer name this workload can produce to a number or None.
    """
    calib_before = harness.calibrate()
    warm, count = harness.WARMUP_OPS, workload.replay_ops
    log = harness.ClientLog()
    items = workload.items(0)
    recorder = trace.Recorder()
    live = workload.build()
    try:
        harness.run_client(
            workload, live, 0, items, log, lambda index: index >= warm + count
        )
        recorder.install()
        try:
            harness.run_client(
                workload, live, 0, items, log,
                lambda index: index >= warm + 2 * count, recorder=recorder,
            )
        finally:
            recorder.uninstall()
    finally:
        report = workload.close(live)

    untraced = _slice(log, warm, warm + count)
    traced = _slice(log, warm + count, warm + 2 * count)
    spans = recorder.spans()
    metrics, budget = replay_metrics(
        recorder, spans, untraced, traced, report
    )
    probed, probe_missing = run_probes(workload, untraced)
    metrics.update(probed)
    missing = [target for target, _name in recorder.missing] + probe_missing
    metrics["trace.missing_points"] = len(missing)
    calib_after = harness.calibrate()
    metrics["machine.calib_ms"] = (calib_before + calib_after) / 2.0

    checked, wrong = harness.check_answers(workload, [log])
    attempted = len(log.ok)
    failed = min(attempted, log.ok.count(False) + wrong)
    trace_doc = {
        "budget": budget,
        "missing_points": missing,
        "oracle_checked": checked,
        "errors": log.errors,
        "span_fields": list(trace.Recorder.FIELDS),
        "spans": [list(span.values()) for span in spans],
    }
    return metrics, trace_doc, attempted, failed

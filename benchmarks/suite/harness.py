"""Closed-loop load generation and the end-to-end measurements.

One process, at most ``nproc`` = 2 client threads, each with one op
outstanding (closed loop: a client sends its next op only after the
previous one answered, so a slower system receives less load).  The
end-to-end numbers are taken with tracing off.
"""

import resource
import statistics
import threading
import time

import numpy as np

import oracle

SETUPS = 21         # cold set-ups per run; setup_s is their median
BLOCKS = 10         # equal slices of the window; rates are block medians
WARMUP_OPS = 12     # per client, enough for stream-durable to roll once
WARMUP_SECONDS = 1.0
ORACLE_DENSE = 64   # every op below this index is checked, then 1 in 16
ORACLE_STRIDE = 16


def calibrate():
    """Milliseconds of a fixed numpy + Python loop (best of 7).

    Run before and after each workload: when the two differ by more
    than 15 % the machine changed under the run and the history line is
    flagged ``noisy``.
    """
    values = np.linspace(0.0, 1.0, 1 << 16)
    best = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        total = 0.0
        for i in range(200):
            total += float((values * values + i).sum())
        acc = 0
        for i in range(200000):
            acc += i & 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def sampled(index):
    """Deterministic oracle sample: the first 64 ops, then 1 in 16."""
    return index < ORACLE_DENSE or index % ORACLE_STRIDE == 0


class ClientLog:
    """What one client thread did: one row per op, in issue order."""

    def __init__(self):
        self.items = []      # op inputs, index = op index
        self.start = []      # perf_counter at issue
        self.end = []        # perf_counter at answer
        self.cpu = []        # process CPU seconds at answer
        self.ok = []         # False when the op raised or was refused
        self.tags = []       # per-op tags the workload reports
        self.answers = {}    # op index -> marginals, oracle sample only
        self.errors = []


def _no_span(_name, fn):
    return fn


def run_client(workload, live, client, items, log, stop, recorder=None):
    """Issue ops back to back until ``stop(next op index)`` is true.

    With a ``recorder`` (the traced replay) each op runs inside an
    ``op`` span and the recorder's op id follows the op index.
    """
    span = recorder.span if recorder is not None else _no_span
    index = len(log.items)
    while not stop(index):
        item = next(items)
        log.items.append(item)
        if recorder is not None:
            recorder.op = index
        start = time.perf_counter()
        try:
            answer, tags = span("op", workload.op)(live, client, item, span)
            ok = True
        except Exception as exc:  # boundary: a raising op is a failed op
            answer, tags, ok = None, {}, False
            if len(log.errors) < 5:
                log.errors.append(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        log.start.append(start)
        log.end.append(end)
        log.cpu.append(time.process_time())
        log.ok.append(ok)
        log.tags.append(tags)
        if ok and sampled(index):
            log.answers[index] = answer
        index += 1
    if recorder is not None:
        recorder.op = None


def closed_loop(workload, live, seconds):
    """Warm up, then run every client for ``seconds``.

    Returns ``(logs, window_start, window_end)``.  Each client first
    completes WARMUP_OPS ops; the window opens WARMUP_SECONDS after the
    last client got there, and ops that started before it opened are
    warm-up.
    """
    clients = workload.clients
    logs = [ClientLog() for _ in range(clients)]
    warmed = threading.Barrier(clients + 1)
    window = {"end": float("inf")}

    def client_main(c):
        items = workload.items(c)
        run_client(workload, live, c, items, logs[c],
                   stop=lambda index: index >= WARMUP_OPS)
        warmed.wait()
        run_client(workload, live, c, items, logs[c],
                   stop=lambda _index: time.perf_counter() >= window["end"])

    threads = [
        threading.Thread(target=client_main, args=(c,), name=f"client-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    warmed.wait()
    start = time.perf_counter() + WARMUP_SECONDS
    window["end"] = start + seconds
    for thread in threads:
        thread.join()
    return logs, start, window["end"]


def check_answers(workload, logs):
    """Re-answer every sampled op by the oracle; returns (checked, wrong)."""
    checked = wrong = 0
    for client, log in enumerate(logs):
        wanted = set(log.answers)
        want = workload.expected(client, log.items, wanted)
        for index in sorted(wanted):
            checked += 1
            if not oracle.marginals_match(log.answers[index], want[index]):
                wrong += 1
    return checked, wrong


def measure_setup(workload):
    """Seconds from the generated model to the first checked answer.

    SETUPS cold set-ups in fresh objects (interpreter and imports warm);
    returns ``(median_seconds, all_seconds, wrong_answers)``.
    """
    item = next(workload.items(0))
    want = workload.expected(0, [item], {0})[0]
    seconds, wrong = [], 0
    for _ in range(SETUPS):
        start = time.perf_counter()
        live = workload.build()
        try:
            answer, _tags = workload.op(live, 0, item, _no_span)
        except Exception:  # boundary: counted as a wrong set-up below
            answer = None
        seconds.append(time.perf_counter() - start)
        workload.close(live)
        if answer is None or not oracle.marginals_match(answer, want):
            wrong += 1
    return statistics.median(seconds), seconds, wrong


def block_medians(ends, cpus, start, end):
    """Median ops/s and CPU-ms/op over BLOCKS equal slices of the window.

    ``ends``/``cpus`` are completion times and process-CPU readings of
    every answered op of the run (warm-up and stragglers included),
    merged over clients and sorted by time; the op count and CPU at a
    slice edge are interpolated between neighbouring completions, so a
    slice holding 20 ops is not quantised to 5 % steps.
    """
    edges = np.linspace(start, end, BLOCKS + 1)
    count_at = np.interp(edges, ends, np.arange(1, len(ends) + 1))
    cpu_at = np.interp(edges, ends, cpus)
    ops = np.diff(count_at)
    rate = ops / np.diff(edges)
    cpu_ms = np.diff(cpu_at) * 1e3 / np.maximum(ops, 1e-9)
    return float(np.median(rate)), float(np.median(cpu_ms)), rate


def percentile(latencies, q):
    """q-th percentile, or None unless ten samples lie beyond it."""
    if len(latencies) * (1.0 - q / 100.0) < 10:
        return None
    return float(np.percentile(latencies, q))


def end_to_end(workload, seconds):
    """The timed (untraced) phase of one workload.

    Returns ``(metrics, diagnostics, attempted, failed)``; metric values
    are plain floats keyed by the names BENCHMARK.json declares.
    """
    calib_before = calibrate()
    setup_s, setups, setup_wrong = measure_setup(workload)

    live = workload.build()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        logs, start, end = closed_loop(workload, live, seconds)
    finally:
        workload.close(live)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    # High-water mark of the system under test: read before the oracle
    # allocates its own tables.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    order = sorted(
        (log.end[i], log.cpu[i])
        for log in logs for i in range(len(log.end)) if log.ok[i]
    )
    ends = np.array([row[0] for row in order])
    cpus = np.array([row[1] for row in order])
    in_window = [
        (log.end[i] - log.start[i], log.ok[i])
        for log in logs
        for i in range(len(log.end))
        if log.start[i] >= start and log.end[i] <= end
    ]
    attempted = len(in_window)
    refused = sum(1 for _lat, ok in in_window if not ok)
    latencies = np.array([lat for lat, ok in in_window if ok]) * 1e3

    checked, wrong = check_answers(workload, logs)
    failed = min(attempted, refused + wrong + setup_wrong)

    ops_per_s, cpu_ms_per_op, rates = block_medians(ends, cpus, start, end)
    child_cpu = (
        children_after.ru_utime + children_after.ru_stime
        - children_before.ru_utime - children_before.ru_stime
    )
    cpu_ms_per_op += child_cpu * 1e3 / max(attempted, 1)
    calib_after = calibrate()

    metrics = {
        "ops_per_s": ops_per_s,
        "p50_ms": float(np.median(latencies)) if len(latencies) else 0.0,
        "cpu_ms_per_op": cpu_ms_per_op,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    diagnostics = {
        "samples": int(len(latencies)),
        "p95_ms": percentile(latencies, 95),
        "p99_ms": percentile(latencies, 99),
        "ops_per_s_whole_window": (attempted - refused) / seconds,
        "ops_per_s_blocks": [float(r) for r in rates],
        "setup_all_s": setups,
        "oracle_checked": checked,
        "oracle_wrong": wrong,
        "refused": refused,
        "errors": sorted({e for log in logs for e in log.errors})[:5],
        "calib_before_ms": calib_before,
        "calib_after_ms": calib_after,
        "noisy": abs(calib_after - calib_before)
        > 0.15 * min(calib_before, calib_after),
    }
    return metrics, diagnostics, attempted, failed

"""One benchmark suite: four workloads, end-to-end metrics, a layer budget.

Whole suite (each workload in its own fresh subprocess, history line per
workload, spans written out)::

    python benchmarks/suite/run.py --seed 3

One workload, the form the benchmark driver calls; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``)::

    python benchmarks/suite/run.py --workload prop-small --seed 3 \\
        --seconds 20 --trace 0

The metric names, units, directions and bounds are read from
``BENCHMARK.json``; see ``README.md`` next to this file for what each
one means and which layer should move which number.
"""

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
HISTORY = RESULTS / "suite_history.jsonl"
TRACE_FILE = RESULTS / "suite_trace.json"
SCHEMA = 1
BOTH = 2  # --trace 2: timed phase then traced phase in one process


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def show(title, specs, values, notes=None):
    print(f"-- {title}")
    for spec in specs:
        value = values.get(spec["name"])
        text = "null" if value is None else f"{value:.6g}"
        note = (notes or {}).get(spec["name"], "")
        print(f"{spec['name']:34s} {text:>12s} {spec['unit']:6s} "
              f"({spec['better']} is better){note}")


def result_line(specs, values, correct, attempted, failed):
    """The driver-facing line: every declared metric, as a number.

    The contract wants numbers, so a per-layer metric that does not
    apply to the workload (null in the history) is written as 0 here.
    """
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise SystemExit(f"metrics never measured: {missing}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            s["name"]: {
                "value": values[s["name"]]
                if values[s["name"]] is not None else 0.0,
                "unit": s["unit"],
            }
            for s in specs
        },
    })


def child_pids():
    """Pids of the live processes whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        state, ppid = stat.rpartition(")")[2].split()[:2]
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


def stop_children():
    """Stop every process this one started and wait until each has ended.

    The process executor's shared-memory arena starts multiprocessing's
    resource tracker, which ends only once its parent's pipe closes,
    that is *after* this process has exited; it is stopped here instead.
    Whatever else is still alive (a pool worker after a failed run) is
    killed; every child is reaped before this process returns.
    """
    try:
        from multiprocessing import resource_tracker
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if callable(stop):
            stop()
    except Exception:  # private API; the kill below covers its absence
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_workload(args, spec):
    """Measure one workload in this process; returns the exit code."""
    try:
        return _run_workload(args, spec)
    finally:
        stop_children()


def _run_workload(args, spec):
    import numpy

    import harness
    import layers
    from workloads import WORKLOADS

    RESULTS.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(RESULTS))
    print(f"== {workload.name}  seed {args.seed}  window {args.seconds} s  "
          f"clients {workload.clients}")
    record = {
        "schema": SCHEMA,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    attempted = failed = 0
    values = {}
    specs = []
    if args.trace in (0, BOTH):
        metrics, diagnostics, tried, bad = harness.end_to_end(
            workload, args.seconds
        )
        tails = ", ".join(
            f"{key} {diagnostics[key]:.4g}" if diagnostics[key] is not None
            else f"{key} n/a"
            for key in ("p95_ms", "p99_ms")
        )
        show("end to end (tracing off)", spec["end_to_end"], metrics,
             {"p50_ms": f"  n={diagnostics['samples']}; {tails}"})
        print(f"oracle: {diagnostics['oracle_checked']} ops re-answered, "
              f"{diagnostics['oracle_wrong']} wrong; "
              f"{diagnostics['refused']} refused; "
              f"noisy={diagnostics['noisy']}")
        record.update(end_to_end=metrics, diagnostics=diagnostics,
                      noisy=diagnostics["noisy"])
        attempted, failed = attempted + tried, failed + bad
        values.update(metrics)
        specs += spec["end_to_end"]
    if args.trace in (1, BOTH):
        metrics, trace_doc, tried, bad = layers.traced_phase(workload)
        metrics = {s["name"]: metrics.get(s["name"]) for s in spec["per_layer"]}
        show("per layer (traced replay, one client, and direct probes)",
             spec["per_layer"], metrics)
        budget = trace_doc["budget"]
        print(f"layer budget per traced op ({budget['op_ms']:.3f} ms): "
              + ", ".join(f"{layer} {ms:.3f}" for layer, ms
                          in budget["layer_self_ms_per_op"].items()))
        record.update(per_layer=metrics)
        attempted, failed = attempted + tried, failed + bad
        values.update(metrics)
        specs += spec["per_layer"]
        part = RESULTS / f"suite_trace.{workload.name}.json"
        part.write_text(json.dumps(trace_doc, separators=(",", ":")))
    correct = failed == 0 and attempted > 0
    record.update(attempted=attempted, failed=failed, correct=correct)
    if args.record:
        pathlib.Path(args.record).write_text(json.dumps(record))
    print(result_line(specs, values, correct, attempted, failed))
    return 0 if correct else 1


def run_suite(args, spec):
    """Every workload in its own subprocess; history and trace written."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    status = 0
    traces = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        record_path = RESULTS / f"suite_record.{name}.json"
        record_path.unlink(missing_ok=True)
        code = subprocess.run(
            [sys.executable, str(SUITE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(BOTH), "--record", str(record_path)],
        ).returncode
        status = status or code
        if record_path.exists():
            with pathlib.Path(args.history).open("a") as history:
                history.write(record_path.read_text() + "\n")
            record_path.unlink()
        part = RESULTS / f"suite_trace.{name}.json"
        if part.exists():
            traces[name] = part.read_text()  # already JSON: spliced, not parsed
            part.unlink()
    TRACE_FILE.write_text("{" + ",".join(
        f"{json.dumps(name)}:{text}" for name, text in traces.items()
    ) + "}")
    print(f"history -> {args.history}\nspans   -> {TRACE_FILE}")
    return status


def main(argv=None):
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no repro sources under {SRC}: nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this one workload in-process "
                        "(default: all, each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1, BOTH), default=0,
                        help="0: end-to-end metrics, tracing off; "
                        "1: per-layer metrics; 2: both")
    parser.add_argument("--history", default=str(HISTORY),
                        help="file the whole-suite run appends its "
                        "history lines to")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Worker processes (this file's children, the process executor's
    # pool) must find the package without an installed copy.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    if args.workload is None:
        return run_suite(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

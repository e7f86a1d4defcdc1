"""Self-tests of the benchmark suite.

Run with ``python -m pytest benchmarks/suite -q`` (the repository's own
``pytest`` run collects ``tests/`` only, and no module here is named
``bench_*.py``, so ``pytest benchmarks/`` does not pick up the runner).
"""

import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
for path in (str(ROOT / "src"), str(SUITE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import oracle  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


# ------------------------------------------------------------------ #
# Inputs come from the seed and from nothing else
# ------------------------------------------------------------------ #


def _inputs(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](seed, str(tmp_path))
    return json.dumps(
        [workload.sequence(c, 200) for c in range(workload.clients)],
        sort_keys=True,
    ).encode()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    assert _inputs(name, 5, tmp_path) == _inputs(name, 5, tmp_path)
    assert _inputs(name, 5, tmp_path) != _inputs(name, 6, tmp_path)


def test_models_come_from_the_seed(tmp_path):
    def potentials(seed):
        jt = workloads.PropSmall(seed, str(tmp_path)).jt
        return b"".join(
            jt.potential(i).values.tobytes() for i in range(jt.num_cliques)
        )

    assert potentials(5) == potentials(5)
    assert potentials(5) != potentials(6)

    def cpts(seed):
        _dbn, prior, transition = workloads.build_dbn(seed)
        return b"".join(v.tobytes() for _scope, v in prior + transition)

    assert cpts(5) == cpts(5)
    assert cpts(5) != cpts(6)


# ------------------------------------------------------------------ #
# BENCHMARK.json stays inside the driver's limits
# ------------------------------------------------------------------ #


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = NAMES + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * SPEC["run_seconds"] < 3420


# ------------------------------------------------------------------ #
# Self-time arithmetic
# ------------------------------------------------------------------ #


def _span(span_id, name, start, end, parent, thread=1, op=0):
    return {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "op": op, "thread": thread, "note": None}


def test_self_time_on_a_span_tree():
    spans = [
        _span(0, "op", 0, 100, -1),
        _span(1, "a", 10, 60, 0),
        _span(2, "b", 20, 30, 1),
        _span(3, "c", 40, 50, 1),
        _span(4, "d", 70, 90, 0),
    ]
    own = trace.self_times(spans)
    # duration minus the part of the interval child spans cover
    assert own == {0: 100 - 50 - 20, 1: 50 - 10 - 10, 2: 10, 3: 10, 4: 20}
    assert sum(own.values()) == 100


def test_self_time_across_threads_never_exceeds_the_op():
    spans = [
        _span(0, "op", 0, 100, -1),
        _span(1, "serve.wait", 10, 90, 0),
        # a worker thread propagates while the client waits ...
        _span(2, "inference.propagate", 20, 80, -1, thread=2),
        # ... and two pool threads run primitives at the same time
        _span(3, "potential.multiply", 30, 50, -1, thread=3),
        _span(4, "potential.multiply", 40, 60, -1, thread=4),
    ]
    own = trace.self_times(spans)
    assert own[1] == 10 + 10          # wait not covered by worker spans
    assert own[2] == 10 + 20          # propagate outside the primitives
    assert own[3] == 10 and own[4] == 20
    assert sum(own.values()) == 100


def test_summarize_clips_to_the_op_and_moves_child_cost():
    spans = [
        _span(0, "op", 0, 100, -1),
        _span(1, "sched.serial.run", 10, 90, 0),
        _span(2, "potential.divide", 20, 40, 1),
        _span(3, "potential.divide", 50, 70, 1),
        # post-response work running past the end of the op
        _span(4, "durability.append_ack", 95, 130, -1, thread=2),
        _span(5, "op", 200, 210, -1, op=1),
    ]
    table, ops, wall = trace.summarize(spans, child_cost_ns=4)
    assert ops == 2 and wall == 110
    assert table["potential.divide"] == {
        "calls": 2, "total_ns": 40, "self_ns": 40}
    assert table["sched.serial.run"]["self_ns"] == 80 - 40 - 2 * 4
    assert table["durability.append_ack"]["self_ns"] == 5
    # run -> op and two divides -> run: three children pay 4 ns each
    assert table["trace.overhead"]["self_ns"] == 12
    assert sum(row["self_ns"] for row in table.values()) == wall


def test_missing_trace_point_is_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(
        trace, "TRACE_POINTS",
        [("repro.no_such_module:thing", "gone.thing", None),
         ("repro:InferenceEngine.no_such_method", "gone.method", None),
         ("repro:reroot_optimally", "jt.reroot", None)],
    )
    monkeypatch.setattr(trace, "COUNT_POINTS", [])
    import repro
    from repro.jt import rerooting

    original = rerooting.reroot_optimally
    recorder = trace.Recorder()
    recorder.install()
    try:
        assert [name for _t, name in recorder.missing] == [
            "gone.thing", "gone.method"]
        # every from-import copy of the function is rebound ...
        assert repro.reroot_optimally is not original
        assert repro.inference.engine.reroot_optimally is repro.reroot_optimally
    finally:
        recorder.uninstall()
    # ... and put back
    assert repro.reroot_optimally is original
    assert repro.inference.engine.reroot_optimally is original


# ------------------------------------------------------------------ #
# The oracle is itself checked
# ------------------------------------------------------------------ #


def test_dense_filter_matches_the_unrolled_network(tmp_path):
    from repro import InferenceEngine

    workload = workloads.StreamDurable(4, str(tmp_path))
    ticks = workload.sequence(0, 6)
    got = workload.expected(0, ticks, {0, 3, 5})
    dbn = workload.dbn
    for t in (0, 3, 5):
        engine = InferenceEngine.from_network(dbn.unroll(t + 1))
        for ti, delta in enumerate(ticks[: t + 1]):
            for v, state in delta.items():
                engine.observe(dbn.variable_at(v, ti), state)
        engine.propagate()
        want = {v: engine.marginal(dbn.variable_at(v, t)) for v in range(dbn.k)}
        assert oracle.marginals_match(got[t], want)


def test_marginals_match_is_strict():
    base = {0: np.array([0.25, 0.75])}
    assert oracle.marginals_match(base, {0: np.array([0.25, 0.75 + 5e-10])})
    assert not oracle.marginals_match(base, {0: np.array([0.25, 0.75 + 5e-9])})
    assert not oracle.marginals_match(base, {1: np.array([0.25, 0.75])})


# ------------------------------------------------------------------ #
# compare.py verdicts
# ------------------------------------------------------------------ #


def _entries(workload, ops, seconds=20.0, seed=3, schema=1):
    return [
        {"schema": schema, "seed": seed, "seconds": seconds,
         "workload": workload,
         "end_to_end": {"ops_per_s": v, "p50_ms": 1e3 / v,
                        "cpu_ms_per_op": 1e3 / v, "setup_s": 0.05,
                        "peak_rss_mb": 50.0}}
        for v in ops
    ]


def test_compare_verdicts():
    base = [100, 101, 99, 100.5, 99.5]

    def label(new, better="higher", reference=base):
        return compare.verdict(reference, new, better, 0.1)[0]

    assert label([100, 102, 98, 101, 99]) == "same"
    assert label([80, 81, 79, 80.5, 79.5]) == "worse"
    assert label([120, 121, 119, 120.5, 119.5]) == "better"
    # two runs a side separate by chance once in six: not a verdict
    assert compare.verdict([100, 101], [120, 121], "higher", 0.1)[0] == "same"
    wide = [100, 130, 70, 115, 85]
    # spread wider than the bound: the medians cannot tell ...
    assert label([95, 125, 75, 110, 80], reference=wide) == "unresolved"
    # ... unless every new run beats every base run
    assert label([200, 260, 140, 230, 170], reference=wide) == "better"
    assert label([12, 12.1, 11.9, 12, 12], "lower",
                 [10, 10.1, 9.9, 10, 10]) == "worse"


def test_compare_skips_stale_lines():
    base = _entries("prop-small", [30, 31, 29])
    stale = _entries("prop-small", [5, 5, 5], seconds=10.0) + [
        {"time": "old shape", "end_to_end": {"serve-unique": {}}}]
    new = stale + _entries("prop-small", [30, 30.5, 29.5])
    out = io.StringIO()
    assert compare.compare(base + stale, new, SPEC, out=out) == 0
    text = out.getvalue()
    assert "base: 3 entries  new: 3 entries" in text
    assert text.count(" same") == len(SPEC["end_to_end"])


# ------------------------------------------------------------------ #
# Smoke: every workload emits every declared metric
# ------------------------------------------------------------------ #


def _session_members(sid):
    """Pids of the live processes in session ``sid`` (field 6 of stat)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _run(name, trace_flag):
    # Its own session: whatever the run leaves behind (the process
    # executor's resource tracker did, once) is still a member of it.
    done = subprocess.Popen(
        [sys.executable, str(SUITE / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "2", "--trace", str(trace_flag)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = done.communicate(timeout=170)
    assert _session_members(done.pid) == [], "a process outlived the run"
    assert done.returncode == 0, out[-2000:] + err[-2000:]
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_declared_metric(name):
    for flag, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(name, flag)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
        if flag == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            assert result["metrics"]["trace.missing_points"]["value"] == 0
            layered = result["metrics"]
            streams = name == "stream-durable"
            for key in ("streaming.tick_ms", "durability.append_tick_us"):
                assert (layered[key]["value"] > 0) == streams

"""The SIGKILL crash harness: a real child serving process to murder.

Everything in-process (``InjectedCrash``, the fault plan) simulates
death; this module proves the contract against the real thing.  Run as

    python -m repro.durability.harness <root> <seed> <ticks>

it builds a deterministic HMM and tick schedule from ``seed``, starts a
durable :class:`~repro.serve.streaming.StreamingService` on ``root``
(recovering whatever a previous incarnation left there), resumes the
schedule from the journal's ``next_seq``, and prints one flushed JSON
line per acknowledged tick::

    ACK {"seq": 3, "t": 3, "m": [0.41, 0.42, 0.17]}

then ``DONE`` after a clean drain.  The parent (soak phase F,
``tests/test_durability.py``) reads acks until it has seen enough, ``SIGKILL``s
the child mid-traffic, and verifies against the next incarnation:

* every acked seq is applied in the recovered state (no acked tick
  lost),
* every acked marginal matches the offline unrolled-network oracle at
  1e-9 (exactness survives the crash),
* recovery's ``recovered_seqs`` were never re-acked to any client (no
  double-ack) — they were applied internally, statuses journaled as
  ``"recovered"``.

The schedule is a pure function of the seed, so parent and child agree
on every tick's evidence without sharing anything but ``(seed, ticks)``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro

STREAM_NAME = "crash-stream"
WINDOW = 4
RETIRE = 2


def build_demo_dbn(seed: int):
    """The deterministic 3-state / 4-observation HMM the harness serves."""
    from repro.bn.dbn import make_hmm

    rng = np.random.default_rng(seed)

    def stoch(shape):
        m = rng.random(shape) + 0.1
        return m / m.sum(axis=-1, keepdims=True)

    return make_hmm(3, 4, stoch((3,)), stoch((3, 3)), stoch((3, 4)))


def build_schedule(seed: int, ticks: int) -> List[Dict[int, int]]:
    """The deterministic evidence schedule (observation var 1 per tick)."""
    rng = np.random.default_rng(seed + 1)
    return [{1: int(rng.integers(4))} for _ in range(ticks)]


def oracle_marginal(dbn, schedule, upto: int) -> np.ndarray:
    """Offline unrolled-network posterior of state var 0 at tick ``upto``.

    The ground truth each acked marginal is held to: one engine over the
    ``upto + 1``-slice unrolling with the schedule's evidence applied.
    """
    from repro.inference.engine import InferenceEngine

    engine = InferenceEngine.from_network(dbn.unroll(upto + 1))
    for t in range(upto + 1):
        for v, finding in schedule[t].items():
            engine.observe(dbn.variable_at(v, t), finding)
    engine.propagate()
    return engine.marginal(dbn.variable_at(0, upto))


# --------------------------------------------------------------------- #
# Child process
# --------------------------------------------------------------------- #


def serve(root: str, seed: int, ticks: int) -> int:
    """Child entry: recover, resume the schedule, ack every ok tick."""
    from repro.serve.streaming import StreamingService

    dbn = build_demo_dbn(seed)
    schedule = build_schedule(seed, ticks)
    service = StreamingService(
        dbn,
        window=WINDOW,
        retire=RETIRE,
        workers=1,
        max_pending=4,
        durable_root=root,
    )
    report = service.recovery_report
    if report is not None and report.streams:
        print(
            "RECOVERED " + json.dumps(report.streams[0].to_dict()), flush=True
        )
    try:
        handle = service._handle(STREAM_NAME)
    except KeyError:
        handle = service.subscribe(name=STREAM_NAME, query_vars=[0])
    start = handle.next_seq
    for seq in range(start, ticks):
        response = service.push_tick(handle, schedule[seq]).result(30)
        if response.ok:
            print(
                "ACK "
                + json.dumps(
                    {
                        "seq": seq,
                        "t": response.t,
                        "m": [float(x) for x in response.marginals[0]],
                    }
                ),
                flush=True,
            )
    service.drain()
    print("DONE", flush=True)
    return 0


# --------------------------------------------------------------------- #
# Parent helpers
# --------------------------------------------------------------------- #


def spawn_child(root: str, seed: int, ticks: int) -> subprocess.Popen:
    """Start one harness child; its acks arrive on stdout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return subprocess.Popen(
        [sys.executable, "-m", "repro.durability.harness", root, str(seed), str(ticks)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )


def read_acks(
    proc: subprocess.Popen,
    count: Optional[int] = None,
    timeout: float = 60.0,
) -> Tuple[List[Dict[str, object]], Optional[Dict[str, object]], bool]:
    """Read the child's stdout until ``count`` acks, DONE, or EOF.

    Returns ``(acks, recovered, done)`` where ``recovered`` is the
    child's construction-time recovery record (None on a first run).
    Reads are line-blocking; ``timeout`` bounds the whole call via
    SIGALRM-free wall checks between lines (a stuck child is the
    caller's kill decision).
    """
    acks: List[Dict[str, object]] = []
    recovered: Optional[Dict[str, object]] = None
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    for line in proc.stdout:
        line = line.strip()
        if line.startswith("ACK "):
            acks.append(json.loads(line[4:]))
        elif line.startswith("RECOVERED "):
            recovered = json.loads(line[10:])
        elif line == "DONE":
            return acks, recovered, True
        if count is not None and len(acks) >= count:
            return acks, recovered, False
        if time.monotonic() > deadline:
            break
    return acks, recovered, False


def kill_child(proc: subprocess.Popen) -> List[Dict[str, object]]:
    """SIGKILL the child — the real, unsimulated crash.

    Returns the acks the child had already printed that ``read_acks``
    had not read yet: the child keeps serving between the parent's last
    read and the kill, and an ack it delivered in that window is
    delivered — the next incarnation will rightly not repeat it.
    """
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    unread: List[Dict[str, object]] = []
    if proc.stdout is not None:
        for line in proc.stdout:
            if line.startswith("ACK ") and line.endswith("\n"):
                unread.append(json.loads(line[4:]))
        proc.stdout.close()
    return unread


def verify_acks(dbn, schedule, acks, atol: float = 1e-9) -> List[str]:
    """Check every acked marginal against the oracle; return failures."""
    failures = []
    for ack in acks:
        want = oracle_marginal(dbn, schedule, int(ack["t"]))
        got = np.asarray(ack["m"], dtype=np.float64)
        if not np.allclose(got, want, atol=atol, rtol=0.0):
            failures.append(
                f"acked tick seq {ack['seq']} (t={ack['t']}) differs from "
                f"the oracle by {np.abs(got - want).max():.3e}"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 3:
        print(
            "usage: python -m repro.durability.harness <root> <seed> <ticks>",
            file=sys.stderr,
        )
        return 2
    return serve(argv[0], int(argv[1]), int(argv[2]))


if __name__ == "__main__":
    sys.exit(main())

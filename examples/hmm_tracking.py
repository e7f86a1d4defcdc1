#!/usr/bin/env python
"""Temporal inference: tracking a hidden state with a DBN.

A two-state hidden Markov model (machine healthy/faulty, observed through
a noisy sensor) is unrolled into an ordinary Bayesian network and tracked
with junction-tree inference: filtering (current state) and smoothing
(revising the past with later evidence).

Run:  python examples/hmm_tracking.py
"""

import numpy as np

from repro import InferenceEngine
from repro.bn.dbn import make_hmm

T = 10
OBS = [0, 0, 0, 1, 1, 0, 1, 1, 1, 1]  # 0 = sensor "ok", 1 = sensor "alarm"


def main():
    dbn = make_hmm(
        num_states=2,          # 0 = healthy, 1 = faulty
        num_observations=2,
        initial=np.array([0.95, 0.05]),
        transition=np.array([[0.9, 0.1],   # healthy tends to stay healthy
                             [0.05, 0.95]]),  # faults persist
        emission=np.array([[0.9, 0.1],    # healthy rarely alarms
                           [0.25, 0.75]]),  # faulty usually alarms
    )
    bn = dbn.unroll(T)
    print(
        f"HMM unrolled to {T} slices -> {bn.num_variables}-variable network"
    )

    engine = InferenceEngine.from_network(bn)
    engine.set_evidence(
        {dbn.variable_at(1, t): OBS[t] for t in range(T)}
    )
    engine.propagate()

    print("\nsensor:  " + "".join(f"    {'A' if o else '.'}" for o in OBS))
    smoothed = [
        engine.marginal(dbn.variable_at(0, t))[1] for t in range(T)
    ]
    print(
        "P(fault):" + "".join(f" {p:4.2f}" for p in smoothed)
        + "   (smoothed, given all 10 readings)"
    )

    # Filtering: the fault probability *at the time*, without hindsight.
    filtered = []
    for t in range(T):
        engine.set_evidence(
            {dbn.variable_at(1, u): OBS[u] for u in range(t + 1)}
        )
        engine.propagate()
        filtered.append(engine.marginal(dbn.variable_at(0, t))[1])
    print(
        "P(fault):" + "".join(f" {p:4.2f}" for p in filtered)
        + "   (filtered, readings up to t only)"
    )
    print(
        "\nsmoothing pulls the fault onset earlier than filtering — "
        "later alarms revise the past."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Incremental evidence updates with the Shafer-Shenoy engine.

A monitoring scenario: sensor readings arrive one at a time and the
posterior of a root cause must be refreshed after each.  The lazy
Shafer-Shenoy engine only recomputes the messages invalidated by each new
observation; the counters show how much of the previous propagation is
reused compared to re-running from scratch.

Run:  python examples/incremental_updates.py
"""

import numpy as np

from repro import random_network
from repro.inference.shafershenoy import ShaferShenoyEngine
from repro.jt.build import junction_tree_from_network


def main():
    bn = random_network(
        30, cardinality=2, max_parents=2, edge_probability=0.7, seed=3
    )
    tree = junction_tree_from_network(bn)
    engine = ShaferShenoyEngine(tree)
    target = 0

    print(
        f"network: {bn.num_variables} variables -> "
        f"{tree.num_cliques} cliques "
        f"({2 * (tree.num_cliques - 1)} directed messages)"
    )
    print(f"\nstreaming observations, tracking P(X{target} = 1):")
    print(f"{'event':<22} {'P(X0=1)':>9} {'msgs computed':>14} {'reused':>7}")

    prior = engine.marginal(target)[1]
    print(
        f"{'(prior)':<22} {prior:>9.4f} "
        f"{engine.messages_computed:>14} {engine.messages_reused:>7}"
    )

    readings = [(25, 1), (12, 0), (7, 1), (25, 0), (18, 1)]
    for var, state in readings:
        before = engine.messages_computed
        engine.observe(var, state)
        p = engine.marginal(target)[1]
        fresh = engine.messages_computed - before
        print(
            f"{f'observe X{var}={state}':<22} {p:>9.4f} "
            f"{fresh:>14} {engine.messages_reused:>7}"
        )

    # Retract one observation — also incremental.
    before = engine.messages_computed
    engine.retract(12)
    p = engine.marginal(target)[1]
    print(
        f"{'retract X12':<22} {p:>9.4f} "
        f"{engine.messages_computed - before:>14} "
        f"{engine.messages_reused:>7}"
    )

    # Sanity: a cold engine with the same evidence agrees exactly.
    cold = ShaferShenoyEngine(tree)
    for var, state in {25: 0, 7: 1, 18: 1}.items():
        cold.observe(var, state)
    assert np.allclose(cold.marginal(target), engine.marginal(target))
    full = cold.messages_computed
    print(
        f"\ncold recomputation needed {full} messages; the incremental "
        "engine recomputed only the stale ones after each event."
    )


if __name__ == "__main__":
    main()

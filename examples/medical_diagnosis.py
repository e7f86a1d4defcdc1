#!/usr/bin/env python
"""Medical diagnosis on the classic "Asia" chest-clinic network.

The network is from Lauritzen & Spiegelhalter (1988) — reference [1] of
the reproduced paper, the same work that introduced junction-tree evidence
propagation.  Eight binary variables (state 1 = "yes"):

    0 asia   — recent visit to Asia          4 bronc  — bronchitis
    1 tub    — tuberculosis                  5 either — tub or lung cancer
    2 smoke  — smoker                        6 xray   — abnormal X-ray
    3 lung   — lung cancer                   7 dysp   — dyspnoea

Run:  python examples/medical_diagnosis.py
"""

import numpy as np

from repro import BayesianNetwork, InferenceEngine, PotentialTable

ASIA, TUB, SMOKE, LUNG, BRONC, EITHER, XRAY, DYSP = range(8)
NAMES = ["asia", "tub", "smoke", "lung", "bronc", "either", "xray", "dysp"]


def build_asia_network() -> BayesianNetwork:
    bn = BayesianNetwork([2] * 8)
    bn.add_edge(ASIA, TUB)
    bn.add_edge(SMOKE, LUNG)
    bn.add_edge(SMOKE, BRONC)
    bn.add_edge(TUB, EITHER)
    bn.add_edge(LUNG, EITHER)
    bn.add_edge(EITHER, XRAY)
    bn.add_edge(EITHER, DYSP)
    bn.add_edge(BRONC, DYSP)

    def cpt(var, parents, rows):
        scope = list(parents) + [var]
        cards = [2] * len(scope)
        bn.set_cpt(var, PotentialTable(scope, cards, np.array(rows)))

    cpt(ASIA, [], [0.99, 0.01])
    cpt(SMOKE, [], [0.50, 0.50])
    cpt(TUB, [ASIA], [[0.99, 0.01], [0.95, 0.05]])
    cpt(LUNG, [SMOKE], [[0.99, 0.01], [0.90, 0.10]])
    cpt(BRONC, [SMOKE], [[0.70, 0.30], [0.40, 0.60]])
    # P(either | tub, lung) is a deterministic OR.
    cpt(
        EITHER,
        [TUB, LUNG],
        [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]],
    )
    cpt(XRAY, [EITHER], [[0.95, 0.05], [0.02, 0.98]])
    cpt(
        DYSP,
        [EITHER, BRONC],
        [[[0.90, 0.10], [0.20, 0.80]], [[0.30, 0.70], [0.10, 0.90]]],
    )
    return bn


def report(engine, label):
    print(f"\n{label}")
    for var in (TUB, LUNG, BRONC):
        p_yes = engine.marginal(var)[1]
        print(f"  P({NAMES[var]:5s} = yes) = {p_yes:.4f}")


def main():
    bn = build_asia_network()
    engine = InferenceEngine.from_network(bn)
    print(
        f"Asia network -> junction tree with {engine.jt.num_cliques} cliques"
    )

    engine.propagate()
    report(engine, "prior (no evidence)")

    # A smoking patient with dyspnoea walks in.
    engine.set_evidence({SMOKE: 1, DYSP: 1})
    engine.propagate()
    report(engine, "evidence: smoker with dyspnoea")

    # The X-ray comes back abnormal.
    engine.observe(XRAY, 1)
    engine.propagate()
    report(engine, "evidence: + abnormal X-ray")

    # ... but the patient also recently visited Asia.
    engine.observe(ASIA, 1)
    engine.propagate()
    report(engine, "evidence: + visited Asia")
    print(f"\nP(all evidence) = {engine.likelihood():.6f}")

    # Sanity: the engine agrees with brute-force enumeration.
    expected = bn.marginal_bruteforce(
        LUNG, {SMOKE: 1, DYSP: 1, XRAY: 1, ASIA: 1}
    )
    assert np.allclose(engine.marginal(LUNG), expected)
    print("verified against brute-force enumeration.")


if __name__ == "__main__":
    main()

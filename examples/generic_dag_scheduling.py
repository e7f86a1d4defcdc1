#!/usr/bin/env python
"""Collaborative scheduling of an arbitrary DAG computation (Section 8).

The paper's conclusion proposes its scheduler "for a class of DAG
structured computations in the many-core era".  Here the generalized
executor runs a small data-analysis pipeline — load, clean, two feature
extractions in parallel, model fits, and a final report — with the same
collaborative discipline used for evidence propagation.

Run:  python examples/generic_dag_scheduling.py
"""

import numpy as np

from repro.sched import run_dag


def main():
    rng = np.random.default_rng(0)

    nodes = {
        "load": lambda: rng.normal(size=(500, 4)),
        "clean": lambda raw: raw - raw.mean(axis=0),
        "feature_mean": lambda clean: clean.mean(axis=1),
        "feature_norm": lambda clean: np.linalg.norm(clean, axis=1),
        "fit_mean": lambda f: (f.mean(), f.std()),
        "fit_norm": lambda f: (f.mean(), f.std()),
        "report": lambda a, b: (
            f"mean-feature ~ N({a[0]:.3f}, {a[1]:.3f}); "
            f"norm-feature ~ N({b[0]:.3f}, {b[1]:.3f})"
        ),
    }
    deps = {
        "clean": ["load"],
        "feature_mean": ["clean"],
        "feature_norm": ["clean"],
        "fit_mean": ["feature_mean"],
        "fit_norm": ["feature_norm"],
        "report": ["fit_mean", "fit_norm"],
    }
    weights = {"load": 5.0, "clean": 3.0}  # hints for load balancing

    results = run_dag(nodes, deps, num_threads=4, weights=weights)
    print("pipeline stages executed:", ", ".join(sorted(nodes)))
    print("report:", results["report"])


if __name__ == "__main__":
    main()

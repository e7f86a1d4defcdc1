#!/usr/bin/env python
"""Generate EXPERIMENTS.md by running ``repro.experiments.EXPERIMENTS``.

Works from a clean checkout (the simulator is deterministic; only the
wall-clock rerooting-cost table and the threaded allocation-heuristic
ablation vary run to run):

    python tools/make_experiments_md.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import EXPERIMENTS  # noqa: E402

HEADER = """\
# EXPERIMENTS — paper vs measured

Every figure of the paper's evaluation (Section 7), reproduced by
`python -m repro experiment all`.  Absolute times are *simulated*
seconds on the calibrated platform profiles (the authors' 2009 testbeds
are gone); the comparison is about **shape**: who wins, by what factor,
and where the crossovers fall.  Each experiment states its shape claims
as code (`verdicts()` in `src/repro/experiments/`); tier-1
(`tests/test_experiments.py::test_paper_claims_hold`) asserts them at
the sizes shown here, and `repro experiment` prints each verdict and
exits 1 when one fails.

Regenerate this file with `python tools/make_experiments_md.py`.
"""

# Heading and paper-vs-measured commentary per EXPERIMENTS row.
PROSE = {
    "fig5": (
        "Fig. 5 — speedup from junction-tree rerooting",
        """\
**Paper:** on Fig. 4 template trees (512 cliques, width 15, binary;
``b + 1`` equal branches rooted at the far end of branch 0), rerooting at
the junction clique gives ``Sp = t_original / t_rerooted`` up to 2; with 8
threads the ``b <= 4`` trees reach ~1.9, and larger ``b`` needs more
threads to reach the maximum.  Task partitioning disabled.

**Measured:** identical shape — Sp = 1 at one core, rises to ~1.98-1.99
once the core count exceeds ``b``, and the ``b = 8`` tree is still
climbing at 8 cores (1.77).  The rerooted root found by Algorithm 1 is
the junction clique in every configuration, matching the paper's
"clique R became the new root".""",
    ),
    "fig6": (
        "Fig. 6 — PNL-style centralized inference",
        """\
**Paper:** Intel PNL's parallel junction-tree inference on an IBM P655
multiprocessor slows down beyond 4 processors for all three junction
trees (execution time *increases* when P > 4).

**Measured:** the centralized policy (serial dispatcher, coordination
cost growing with both processor count and message size) reproduces the
U-shape: JT1 bottoms out at 4 processors and is ~77% slower again at 8;
JT2 bottoms at 4-6 and rises at 8; tiny JT3 is dispatch-bound even
earlier.  The paper's qualitative claim — more processors eventually
hurt a centralized scheduler — holds throughout.""",
    ),
    "fig7": (
        "Fig. 7 — scalability of the three methods",
        """\
**Paper:** on both platforms the proposed collaborative scheduler shows
linear speedup — 7.4x (Xeon) and 7.1x (Opteron) at 8 cores — versus
~2.1x better than the OpenMP baseline and ~1.8x better than the
data-parallel method.

**Measured:** collaborative reaches 7.48 (Xeon) / 7.24 (Opteron) on JT1;
the OpenMP baseline saturates near 3.2 (ratio 2.3x) and the
data-parallel baseline near 3.8 on JT1 (ratio 1.9-2.0x).  The baselines
flatten from 4 to 8 cores while the proposed method keeps scaling —
the paper's central claim.  JT3 (width 10) scales worst for the
per-primitive baselines, consistent with the paper's overhead analysis.""",
    ),
    "fig8": (
        "Fig. 8 — load balance and scheduling overhead",
        """\
**Paper:** per-thread computation times on JT1 (Opteron) are nearly
equal at every thread count, and scheduling takes less than 0.9 % of the
execution time.

**Measured:** per-thread compute times agree to three decimal places
(max/mean imbalance <= 1.003 at 8 threads); the scheduling-overhead ratio
grows mildly with thread count (lock contention) but stays at 0.60 % at
8 threads — under the paper's 0.9 % bound, with the same rising trend
the paper shows.""",
    ),
    "fig9": (
        "Fig. 9 — parameter sweeps around Junction tree 1",
        """\
**Paper:** varying N (cliques), w_C (width), r (states) and k (children)
around JT1, all configurations show linear speedup above 7 at 8 cores —
except small potential tables (w_C = 10, r = 2, i.e. 1024 entries), where
scheduling overheads are relatively large.

**Measured:** N sweep all >= 7.4; k sweep all >= 7.4; width sweep reaches
7.5 at w = 20 but only ~4.8 at w = 10 with r = 2 (the paper's called-out
small-table case); raising r to 3 at width 10 restores ~7.1.  Same
winners, same outlier, same reason.""",
    ),
    "rerooting-cost": (
        "Section 7 text — rerooting cost",
        """\
**Paper:** rerooting a 512-clique tree took 24 µs against an overall
execution time of ~milliseconds (negligible), and Algorithm 1 is
O(w_C N) versus the straightforward O(w_C N^2) approach.

**Measured:** the brute-force/Algorithm-1 wall-clock ratio grows from
~24x at N = 64 to ~200x at N = 512 (the extra factor of N), and the
modeled rerooting cost is < 0.02 % of the simulated propagation
makespan — negligible, as the paper reports.""",
    ),
    "ablations": (
        "Ablations (beyond the paper)",
        """\
Design-choice ablations called out in DESIGN.md: the partition threshold
δ (off / coarse / default / fine), rerooting under the full scheduler,
lock-contention overhead (shared-lock vs work-stealing), and the
Allocate-module heuristic in the real threaded executor (wall clock, so
that last table varies run to run).""",
    ),
    "manycore": (
        "Extension — many-core projection (beyond the paper)",
        """\
Extrapolating the calibrated model to 64 cores on a fine-grained
workload shows the shared-lock scheduler capping and then degrading
while the Section 8 work-stealing remedy keeps scaling.""",
    ),
    "robustness": (
        "Extension — seed robustness (beyond the paper)",
        """\
A seed sweep confirms the headline speedup is a property of the
workload class, not of one lucky seed.""",
    ),
}


def main() -> int:
    parts = [HEADER]
    for name, experiment in EXPERIMENTS.items():
        title, commentary = PROSE[name]
        table = experiment.render(experiment.run())
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        parts.append("```\n" + table + "\n```\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

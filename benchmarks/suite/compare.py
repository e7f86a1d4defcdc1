"""Compare two sets of suite history entries, metric by metric.

Two history files (one JSON line per workload per run, as ``run.py``
appends them)::

    python benchmarks/suite/compare.py base.jsonl new.jsonl

or the same commit against itself (runs the whole suite ``2 * runs``
times, alternating which side a run lands on)::

    python benchmarks/suite/compare.py --aa --runs 3 --seed 3

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio new/base, the bound from ``BENCHMARK.json`` and a
verdict.  ``worse``: the new median is worse than the base median by
more than the bound.  ``unresolved``: the run-to-run spread (distance
between the quartiles over the median, either side) is wider than the
bound, so the medians cannot tell — unless every new run reads better
(or worse) than every base run, with at least five runs a side.
``better``: every new run reads better than every base run (same five)
and the medians differ by more than the base's own spread.  ``same``
otherwise.  Only entries
whose ``schema``, ``seed`` and ``seconds`` equal the newest entry's are
compared, so stale lines in an old history file are skipped.  Exit code
1 when any row is ``worse``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
# "Every new run beats every base run" happens by chance once in six
# with two runs a side and once in 252 with five.
RUNS_TO_SEPARATE = 5


def load(path):
    entries = []
    for line in pathlib.Path(path).read_text().splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def comparable(base, new):
    """Entries of both sides sharing the newest entry's run key."""
    keyed = [e for e in new if "schema" in e and "end_to_end" in e]
    if not keyed:
        return [], [], None
    key = tuple(keyed[-1].get(k) for k in ("schema", "seed", "seconds"))

    def matching(entries):
        return [
            e for e in entries
            if "end_to_end" in e
            and tuple(e.get(k) for k in ("schema", "seed", "seconds")) == key
        ]

    return matching(base), matching(new), key


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """``(verdict, spread)`` for one metric from both sides' run values."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worsening = sign * (nm - bm) / abs(bm) if bm else 0.0
    spread = max(
        (b3 - b1) / abs(bm) if bm else 0.0,
        (n3 - n1) / abs(nm) if nm else 0.0,
    )
    enough = min(len(base), len(new)) >= RUNS_TO_SEPARATE
    all_better = enough and (
        max(sign * v for v in new) < min(sign * v for v in base)
    )
    all_worse = enough and (
        min(sign * v for v in new) > max(sign * v for v in base)
    )
    if spread > bound and not (all_better or all_worse):
        return "unresolved", spread
    if worsening > bound:
        return "worse", spread
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    if all_better and -worsening > base_spread:
        return "better", spread
    return "same", spread


def compare(base, new, spec, out=sys.stdout):
    """Print the table; returns the number of ``worse`` rows."""
    base, new, key = comparable(base, new)
    if key is None or not base:
        print("nothing to compare: no entries share schema, seed and "
              "seconds", file=out)
        return 0
    print(f"schema {key[0]}  seed {key[1]}  seconds {key[2]}   "
          f"base: {len(base)} entries  new: {len(new)} entries", file=out)
    header = (f"{'workload':15s} {'metric':14s} {'base median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s} {'new/base':>9s} {'bound':>6s} "
              f"{'spread':>7s}  verdict")
    print(header, file=out)
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        rows_base = [e for e in base if e["workload"] == workload]
        rows_new = [e for e in new if e["workload"] == workload]
        if not rows_base or not rows_new:
            continue
        noisy = sum(1 for e in rows_base + rows_new if e.get("noisy"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [e["end_to_end"][name] for e in rows_base]
            n = [e["end_to_end"][name] for e in rows_new]
            label, spread = verdict(
                b, n, metric["better"], metric["bound"]
            )
            worse += label == "worse"
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            ratio = f"{nm / bm:9.3f}" if bm else "      n/a"
            print(
                f"{workload:15s} {name:14s} "
                f"{bm:12.4g} [{b1:9.4g},{b3:9.4g}] "
                f"{nm:12.4g} [{n1:9.4g},{n3:9.4g}] "
                f"{ratio} {metric['bound']:6.2f} {spread:7.3f}  {label}"
                f"  (base {bm:.4g} {metric['unit']}, n={len(b)}/{len(n)})",
                file=out,
            )
        if noisy:
            print(f"{workload:15s} note: {noisy} of "
                  f"{len(rows_base) + len(rows_new)} runs flagged noisy "
                  f"(machine.calib moved > 15 % across the run)", file=out)
    return worse


def run_aa(runs, seed, seconds):
    """Alternate suite runs between two history files; returns their paths."""
    results = ROOT / "benchmarks" / "results"
    results.mkdir(parents=True, exist_ok=True)
    sides = [results / "suite_aa_base.jsonl", results / "suite_aa_new.jsonl"]
    for side in sides:
        side.unlink(missing_ok=True)
    for index in range(2 * runs):
        # base, new, new, base, ...: neither side always runs first
        side = sides[(index + index // 2) % 2]
        command = [sys.executable, str(SUITE / "run.py"), "--seed", str(seed),
                   "--history", str(side)]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        subprocess.run(command, check=False)
    return sides


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("histories", nargs="*",
                        help="base.jsonl new.jsonl")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite against itself, then compare")
    parser.add_argument("--runs", type=int, default=3,
                        help="suite runs per side for --aa")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.aa:
        paths = run_aa(args.runs, args.seed, args.seconds)
    elif len(args.histories) == 2:
        paths = args.histories
    else:
        parser.error("give two history files, or --aa")
    worse = compare(load(paths[0]), load(paths[1]), spec)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

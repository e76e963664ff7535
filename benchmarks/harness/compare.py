"""Compare two sets of runs under the benchmark's own bounds.

    python3 benchmarks/harness/compare.py A.json B.json

A and B are files written by ``run.py --trace 0 --repeat N --out``: A
the parent (or an earlier set of the same code), B the change. For each
workload and end-to-end metric, one row with one verdict:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is, or B had failed ops or outputs that were not the
                oracle's;
``unresolved``  the run-to-run spread of either set (the distance between
                the first and third quartiles as a share of the median) is
                wider than the bound, so the medians decide nothing, unless
                every run of B reads better than every run of A. Not for
                ``setup_s``: a run sets up three times, not tens of times,
                so its spread is wide under any noise; its medians decide.

Both sets' ``harness.calibration_s`` medians are printed as well: when
they differ, the machine drifted between the sets and a verdict may only
say so. Exits non-zero unless every row is ``ok``.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles
from typing import Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return float("inf")  # one run says nothing about the spread
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for run in runs:
        if run["trace"] == 0:
            out.setdefault(run["workload"], []).append(run)
    return out


def verdict(metric: dict, a: List[float], b: List[float]) -> tuple:
    """``(verdict, share by which B's median is worse, wider spread)``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (median(b) - median(a)) / median(a)
    wider = max(spread(a), spread(b))
    every_b_better = max(sign * v for v in b) < min(sign * v for v in a)
    if wider > metric["bound"] and metric["name"] != "setup_s":
        return ("ok" if every_b_better else "unresolved"), worse_by, wider
    return ("regressed" if worse_by > metric["bound"] else "ok"), worse_by, wider


def compare(a_runs: List[dict], b_runs: List[dict], cat: dict) -> List[tuple]:
    rows = []
    a_sets, b_sets = by_workload(a_runs), by_workload(b_runs)
    for workload in (w["name"] for w in cat["workloads"]):
        a, b = a_sets.get(workload, []), b_sets.get(workload, [])
        if not a or not b:
            rows.append((workload, "*", "unresolved", "no runs in one set"))
            continue
        if not all(run["correct"] for run in b):
            failed = sum(run["failed"] for run in b)
            rows.append((workload, "*", "regressed", f"{failed} failed ops in B"))
        for metric in cat["end_to_end"]:
            name = metric["name"]
            a_values = [run["metrics"][name]["value"] for run in a]
            b_values = [run["metrics"][name]["value"] for run in b]
            found, worse_by, wider = verdict(metric, a_values, b_values)
            rows.append(
                (
                    workload, name, found,
                    f"A {median(a_values):.6g}  B {median(b_values):.6g} "
                    f"{metric['unit']}  worse by {worse_by:+.1%}  "
                    f"spread {wider:.1%}  bound {metric['bound']:.0%}",
                )
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        cat = json.load(handle)
    sets = []
    for path in argv[1:]:
        with open(path) as handle:
            sets.append(json.load(handle))
    rows = compare(sets[0], sets[1], cat)
    for workload, name, found, detail in rows:
        print(f"{workload:<18}{name:<14}{found:<12}{detail}")
    for label, runs in zip("AB", sets):
        before = median(run["calibration_s"][0] for run in runs)
        after = median(run["calibration_s"][1] for run in runs)
        print(
            f"harness.calibration_s {label}: {before:.4f} s before, "
            f"{after:.4f} s after (medians over {len(runs)} runs)"
        )
    return 0 if all(found == "ok" for _w, _n, found, _d in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

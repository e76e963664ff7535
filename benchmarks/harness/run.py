"""The repo's benchmark: one closed loop, one client, one process at a time.

    python3 benchmarks/harness/run.py [--workload W] [--seed S]
        [--seconds N] [--trace 0|1] [--quick] [--repeat R] [--out FILE]

Without ``--workload`` every workload runs; without ``--trace`` each
runs twice, once timed with no spans (the end-to-end metrics) and once
traced (the per-layer metrics). Every run prints its metrics by name
with their units and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is non-zero when an op failed, when outputs were not the
oracle's on every op, or when the traced layers do not add up to the
wall. ``BENCHMARK.json`` at the repo root is the catalogue of workload
and metric names, units and bounds; README.md here explains them.

This process generates the inputs and computes the oracle reference;
the program under test is measured in a fresh worker process (see
worker.py), so generation and the oracle are not in its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

from workloads import WORKLOADS  # noqa: E402  (needs SRC on the path)

DEFAULT_SEED = 20080107
#: a timed run sets up and measures this often
ROUNDS = 3
#: what ``--quick`` divides the sizes by
QUICK_DIVISOR = 20
#: a run fails when the layers' self times cover less of the traced wall
LAYER_SUM_RANGE = (0.95, 1.05)


def catalogue() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def calibrate() -> float:
    """A fixed pure-Python spin (about 0.2 s): the same work every time,
    so its wall tells machine drift between sets of runs from a change."""
    started = perf_counter()
    total = 0
    for i in range(2_500_000):
        total += i * i % 7
    return perf_counter() - started


def _worker_env() -> Dict[str, str]:
    """The parent's environment without the program's own knobs
    (``REPRO_*`` would change tiers behind the benchmark's back)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def prepare(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Tuple[str, int]:
    """The parent's half of set-up: generate the inputs, write the input
    files and the worker's spec (with the oracle reference in it).
    Returns the spec's path and the work units of one op."""
    directory = os.path.join(OUT, name)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    generated = WORKLOADS[name].generate(
        seed, 1 / QUICK_DIVISOR if quick else 1.0, directory
    )
    with open(os.path.join(directory, "inputs.pkl"), "wb") as handle:
        pickle.dump(generated["payload"], handle)
    spec_path = os.path.join(directory, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(
            {
                "workload": name,
                "directory": directory,
                "reference": generated["reference"],
                "seconds": seconds,
                "trace": trace,
                "trace_path": os.path.join(OUT, f"trace-{name}.json"),
            },
            handle,
        )
    return spec_path, generated["units"]


def run_once(
    name: str, seed: int, seconds: float, trace: bool, quick: bool, cat: dict
) -> dict:
    """One run of one workload: calibrate, then ``ROUNDS`` rounds of full
    set-up and measurement, each in a fresh worker, then calibrate again.
    ``setup_s`` and ``peak_rss_mb`` are medians of the rounds' values.
    ``wall_s`` and ``cpu_s`` are the median op of the quietest round (the
    one with the lowest median wall): a neighbour on the shared host
    slows every op by 40 % for some 20 s at a time, which is most of a
    run, so the median over all rounds reads the neighbour as often as
    it is there; noise only ever adds, and a slower program is slower in
    its quietest round too. A traced run is one round."""
    calibration = [calibrate()]
    rounds = 1 if quick or trace else ROUNDS
    setups: List[float] = []
    results: List[dict] = []
    for _round in range(rounds):
        started = perf_counter()
        spec_path, units = prepare(name, seed, seconds / rounds, trace, quick)
        worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdout=subprocess.PIPE, text=True, env=_worker_env(),
        )
        try:
            if worker.stdout.readline().strip() != "READY":
                raise RuntimeError(f"{name}: the worker died during set-up")
            setups.append(perf_counter() - started)
            output, _ = worker.communicate()
        finally:
            worker.kill()
            worker.wait()
        if worker.returncode != 0:
            raise RuntimeError(f"{name}: the worker exited with {worker.returncode}")
        results.append(json.loads(output.strip().splitlines()[-1]))
    calibration.append(calibrate())
    result = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "stable": all(r["stable"] for r in results),
    }

    if trace:
        measured = dict(results[0]["per_layer"])
        measured["harness.calibration_s"] = calibration[0]
        measured["harness.calibration_after_s"] = calibration[1]
        listed = {m["name"]: m["unit"] for m in cat["per_layer"]}
        unlisted = sorted(set(measured) - set(listed))
        if unlisted:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unlisted}")
        # a layer this workload does not enter reads 0
        metrics = {n: measured.get(n, 0.0) for n in listed}
    else:
        listed = {m["name"]: m["unit"] for m in cat["end_to_end"]}
        quietest = min(results, key=lambda r: r["wall_s"])
        metrics = {
            "setup_s": median(setups),
            "wall_s": quietest["wall_s"],
            "cpu_s": quietest["cpu_s"],
            "units_per_s": units / quietest["wall_s"],
            "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        }
    correct = result["failed"] == 0 and result["stable"]
    if trace:
        share = metrics["harness.layer_sum_share"]
        correct = correct and LAYER_SUM_RANGE[0] <= share <= LAYER_SUM_RANGE[1]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "calibration_s": calibration,
        "units": f"{units} {WORKLOADS[name].unit}",
        "stable": result["stable"],
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": v, "unit": listed[n]} for n, v in metrics.items()
        },
    }


def report(run: dict) -> None:
    """Every metric by name with its unit, then the one-line result."""
    print(
        f"== {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
        f"({run['units']} per op)"
    )
    print(
        f"  {'failed_ops_share':<34}{run['failed'] / run['attempted']:>14.6g} ratio"
        f"  ({run['failed']} of {run['attempted']})"
    )
    print(f"  {'output_digest_stable':<34}{int(run['stable']):>14} 0/1")
    for name, metric in run["metrics"].items():
        print(f"  {name:<34}{metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {k: run[k] for k in ("correct", "attempted", "failed", "metrics")}
        ),
        flush=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    cat = catalogue()
    names = [w["name"] for w in cat["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=cat["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true",
        help=f"sizes / {QUICK_DIVISOR}, the fewest ops, one set-up: a smoke run",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, each with the next seed",
    )
    parser.add_argument("--out", help="write every run to this JSON file")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    traces = (0, 1) if args.trace is None else (args.trace,)
    seconds = 0.0 if args.quick else args.seconds
    runs = []
    for repeat in range(args.repeat):
        for name in workloads:
            for trace in traces:
                runs.append(
                    run_once(
                        name, args.seed + repeat, seconds, bool(trace),
                        args.quick, cat,
                    )
                )
                report(runs[-1])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

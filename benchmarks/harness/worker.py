"""The worker: one fresh process per workload run.

``python3 worker.py SPEC.json`` imports the program, loads what the
parent generated, warms up, prints ``READY`` (the end of set-up), then
runs timed ops with no spans and, when asked, traced ops and the
workload's extra runs. Its last line of output is one JSON object. It
is the only process that runs the program under test while it is
measured, so its peak resident set is the workload's.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import traceback
from statistics import median
from time import perf_counter, process_time
from typing import Callable, List

from spans import OFF, ROOT, Tracer

WARMUP_OPS = 2
MIN_TIMED_OPS = 2
MIN_TRACED_OPS = 3
#: share of ``seconds`` a traced run gives to its untraced ops (which
#: the trace overhead is measured against) and to its traced ops; the
#: rest is left for the workload's extra runs.
TRACED_RUN_SHARES = (0.4, 0.3)


class Tally:
    """Ops attempted and failed: warm-up, timed, traced and extra runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn: Callable):
        """Run ``fn``; an exception is a failed op, reported and counted,
        and the run goes on so that the share of failures is known."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``). Not ``ru_maxrss``:
    that one starts from the size the parent had when it forked."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def wall_hi(walls: List[float]) -> float:
    """The highest order statistic with at least ten samples beyond it;
    with fewer than 21 samples no percentile above the median has that
    many, and this is the median."""
    ordered = sorted(walls)
    return max(ordered[max(0, len(ordered) - 11)], median(ordered))


def measure(spec: dict, ready: Callable[[], None] = lambda: None) -> dict:
    """Run one workload as ``spec`` says; ``ready`` is called when set-up
    (import, load, warm-up) is over."""
    started = perf_counter()
    from workloads import WORKLOADS  # imports every layer of the program

    import_s = perf_counter() - started
    workload = WORKLOADS[spec["workload"]]
    with open(os.path.join(spec["directory"], "inputs.pkl"), "rb") as handle:
        payload = pickle.load(handle)  # written by the parent, a moment ago
    state = workload.load(payload, spec["directory"])
    state.reference = spec["reference"]
    tally = Tally()
    identities = set()

    def one_op(T):
        inputs = workload.inputs(state)
        for instance in inputs:
            for data in instance:
                if data.peek_block() is not None:
                    raise AssertionError(f"{data.name} is not a fresh dataset")
        cpu_started = process_time()
        wall_started = perf_counter()
        with T.span(ROOT):
            outputs = workload.op(state, inputs, T)
        wall = perf_counter() - wall_started
        cpu = process_time() - cpu_started
        found, identity = workload.check(state, outputs)
        identities.add(identity)
        if found != spec["reference"]:
            raise AssertionError(
                f"outputs differ from the oracle's: {found} != {spec['reference']}"
            )
        return wall, cpu

    def ops(T, at_least: int, seconds: float) -> List[tuple]:
        done, count, loop_started = [], 0, perf_counter()
        while count < at_least or perf_counter() - loop_started < seconds:
            if T.on:
                T.op = count
            result = tally.attempt(lambda: one_op(T))
            if result is not None:
                done.append((count, *result))
            count += 1
        return done

    ops(OFF, WARMUP_OPS, 0.0)
    ready()

    trace = spec["trace"]
    timed_share, traced_share = TRACED_RUN_SHARES if trace else (1.0, 0.0)
    timed = ops(OFF, MIN_TIMED_OPS, spec["seconds"] * timed_share)
    peak = peak_rss_mb()
    walls = [wall for _op, wall, _cpu in timed] or [float("nan")]
    result = {
        "wall_s": median(walls),
        "cpu_s": median([cpu for _op, _wall, cpu in timed] or [float("nan")]),
        "peak_rss_mb": peak,
        "per_layer": {},
    }
    if trace:
        tracer = Tracer()
        traced = ops(tracer, MIN_TRACED_OPS, spec["seconds"] * traced_share)
        layers, counts, shares = {}, {}, []
        for op, wall, _cpu in traced:
            own = tracer.self_times(op)
            root = own.pop(ROOT)
            shares.append(sum(own.values()) / (root + sum(own.values())))
            for name, seconds in own.items():
                layers.setdefault(f"{name}_s", []).append(seconds)
            for name, n in tracer.op_counts(op).items():
                counts.setdefault(name, []).append(n)
        per_layer = {name: median(values) for name, values in layers.items()}
        per_layer.update({name: median(values) for name, values in counts.items()})
        traced_walls = [wall for _op, wall, _cpu in traced] or [float("nan")]
        per_layer.update(
            {
                "pkg.import_s": import_s,
                "run.wall_hi_s": wall_hi(walls),
                "run.samples": len(timed),
                "harness.layer_sum_share": median(shares or [float("nan")]),
                "harness.trace_overhead_share": (
                    (median(traced_walls) - median(walls)) / median(walls)
                ),
            }
        )
        per_layer.update(workload.extras(state, tally.attempt))
        tracer.dump(spec["trace_path"])
        result["per_layer"] = per_layer
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        # one identity on every op, and (no failed check) the oracle's digest
        stable=len(identities) == 1 and tally.failed == 0,
    )
    return result


def main(argv: List[str]) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    result = measure(spec, ready=lambda: print("READY", flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

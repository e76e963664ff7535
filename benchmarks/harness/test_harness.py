"""Smoke test of the benchmark itself (``pytest benchmarks/harness -q``).

Tier-1 collects ``tests/`` only, so this never runs there. It drives
``run.py --quick`` (sizes / 20, the fewest ops, one set-up) and checks
that the names in ``BENCHMARK.json`` and the names the harness prints
are the same names, then breaks the harness's two disciplines on
purpose and checks that it notices.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
import worker
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def catalogue():
    return run.catalogue()


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "runs.json"
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out) as handle:
        return json.load(handle)


def test_catalogue_names_follow_the_contract(catalogue):
    names = [w["name"] for w in catalogue["workloads"]]
    names += [m["name"] for m in catalogue["end_to_end"] + catalogue["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(
        UNIT.fullmatch(m["unit"])
        for m in catalogue["end_to_end"] + catalogue["per_layer"]
    )
    assert [w["name"] for w in catalogue["workloads"]] == list(WORKLOADS)
    assert catalogue["paths"] == ["benchmarks/harness"]


def test_every_workload_and_metric_is_reported(catalogue, quick_runs):
    listed = {
        0: {m["name"]: m["unit"] for m in catalogue["end_to_end"]},
        1: {m["name"]: m["unit"] for m in catalogue["per_layer"]},
    }
    seen = {(r["workload"], r["trace"]) for r in quick_runs}
    assert seen == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for r in quick_runs:
        assert r["correct"] and r["stable"] and r["failed"] == 0, r["workload"]
        assert r["attempted"] >= 1
        units = {n: m["unit"] for n, m in r["metrics"].items()}
        assert units == listed[r["trace"]], r["workload"]
        if r["trace"] == 0:
            assert all(m["value"] > 0 for m in r["metrics"].values())


def test_layers_add_up_to_the_traced_wall(quick_runs):
    low, high = run.LAYER_SUM_RANGE
    for r in quick_runs:
        if r["trace"] == 1:
            share = r["metrics"]["harness.layer_sum_share"]["value"]
            assert low <= share <= high, (r["workload"], share)


def test_every_layer_is_entered_by_some_workload(catalogue, quick_runs):
    """A per-layer metric that reads 0 on every workload measures nothing."""
    entered = set()
    for r in quick_runs:
        if r["trace"] == 1:
            entered |= {n for n, m in r["metrics"].items() if m["value"] != 0}
    # no job of the corpus draws a diagnostic, and that is a measurement
    never = {m["name"] for m in catalogue["per_layer"]} - entered
    assert never <= {"analysis.diagnostics"}, never


def _measure_in_process(name):
    spec_path, _units = run.prepare(name, run.DEFAULT_SEED, 0.0, False, quick=True)
    with open(spec_path) as handle:
        return worker.measure(json.load(handle))


def test_a_corrupted_target_is_a_failed_op(monkeypatch):
    workload = WORKLOADS["paper-mappings"]
    honest = workload.op

    def corrupt(state, inputs, T):
        targets = honest(state, inputs, T)
        targets.dataset("OtherCustomers").rows.pop()
        return targets

    monkeypatch.setattr(workload, "op", corrupt)
    result = _measure_in_process("paper-mappings")
    assert result["failed"] == result["attempted"] > 0
    assert not result["stable"]


def test_a_reused_dataset_is_a_failed_op(monkeypatch):
    workload = WORKLOADS["paper-hybrid"]
    assert _measure_in_process("paper-hybrid")["failed"] == 0
    fresh = workload.inputs
    kept = []

    def reuse(state):
        if not kept:
            kept.extend(fresh(state))
            assert all(d.peek_block() is None for i in kept for d in i)
            for instance in kept:
                for data in instance:
                    data.as_block()  # what a tier leaves behind on a source
        return kept

    monkeypatch.setattr(workload, "inputs", reuse)
    result = _measure_in_process("paper-hybrid")
    assert result["failed"] == result["attempted"] > 0

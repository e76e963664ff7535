"""Artifact recording for the benchmark harness.

Each benchmark regenerates one of the paper's figures/scenarios. Besides
timing it, the harness writes the regenerated artifact (the operator
sequence, the mapping text, the deployment plan, the measured series) to
``benchmarks/artifacts/<experiment>.txt`` so EXPERIMENTS.md can point at
concrete reproduction evidence.
"""

import json
import os

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(experiment_id: str, text: str) -> str:
    """Write (and print) the regenerated artifact for an experiment."""
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"{experiment_id}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    print(f"\n--- {experiment_id} ---")
    print(text)
    return path


def record_baseline(name: str, payload: dict) -> str:
    """Write a machine-readable perf baseline to the repo root as
    ``BENCH_<name>.json`` so future PRs can regress-check against the
    recorded numbers (ops/sec, rows/sec, speedups)."""
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n--- BENCH_{name}.json ---")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return path


def record_metrics(experiment_id: str, metrics) -> str:
    """Dump a metrics snapshot (``repro.obs.Metrics``) next to the
    experiment's text artifact, as ``<experiment>.metrics.json``."""
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"{experiment_id}.metrics.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(metrics.to_json())
        handle.write("\n")
    return path

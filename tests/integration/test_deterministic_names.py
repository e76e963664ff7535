"""Deployed stage names do not depend on the process's hash seed.

The FastTrack round trip (compile → optimize → extract mappings →
instantiate them as OHM → deploy as a DataStage job) names each
deployed stage after a member operator's label; the member is chosen
in the graph's topological order, so two processes with different
``PYTHONHASHSEED`` values deploy the same stage names."""

import json
import os
import subprocess
import sys

ROUND_TRIP = """
import json
from repro.compile import compile_job
from repro.deploy import deploy_to_job
from repro.mapping import mappings_to_ohm, ohm_to_mappings
from repro.rewrite import optimize
from repro.workloads import build_example_job, build_kitchen_sink_job

names = []
for build in (build_example_job, build_kitchen_sink_job):
    graph = compile_job(build())
    optimize(graph)
    job, _plan = deploy_to_job(mappings_to_ohm(ohm_to_mappings(graph)))
    names.append([stage.name for stage in job.stages])
print(json.dumps(names))
"""


def _stage_names(hash_seed: str):
    repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.path.join(repo, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", ROUND_TRIP],
        capture_output=True, text=True, encoding="utf-8", env=env, check=True,
    )
    return json.loads(result.stdout)


def test_round_trip_stage_names_ignore_the_hash_seed():
    first = _stage_names("1")
    assert first == _stage_names("2")
    # the paper's example: M2's mapping deploys as a stage named after
    # the link it reads, whichever seed ran
    assert first[0][-1].startswith("DSLink10_")

"""FIG10 — deployment planning on the DataStage runtime platform.

Regenerates the Figure 10 boxes: greedy merging from the sources yields
five RP operator boxes (Transformer, Filter, Join, Aggregator, Filter),
with the Filter/Transformer and Join/Lookup alternatives recorded, the
SPLIT + two FILTERs merged into one Filter stage, and the
BASIC PROJECT → GROUP pair kept apart (the Aggregator template starts
with GROUP). The benchmark times planning + job construction.
"""

from repro.compile import compile_job
from repro.deploy import deploy_to_job
from repro.etl import EtlEngine
from repro.workloads import build_example_job, generate_instance

from _artifacts import record


def test_bench_fig10_deploy(benchmark):
    graph = compile_job(build_example_job())

    job, plan = benchmark(deploy_to_job, graph)

    assert len(plan.boxes) == 5
    stage_types = sorted(s.STAGE_TYPE for s in job.stages)
    assert stage_types == sorted([
        "TableSource", "TableSource", "Transformer", "Filter", "Join",
        "Aggregator", "Filter", "TableTarget", "TableTarget",
    ])
    # the SPLIT + FILTER + FILTER box became one Filter stage
    merged = [
        box for box in plan.boxes
        if {plan.graph.operator(u).KIND for u in box.uids} == {"SPLIT", "FILTER"}
    ]
    assert merged and merged[0].chosen.name == "Filter"

    instance = generate_instance(100)
    assert EtlEngine().execute(job, instance).same_bags(
        EtlEngine().execute(build_example_job(), instance)
    )

    lines = ["Figure 10 — deployment planning:", ""]
    lines.append(plan.describe())
    lines.append("")
    lines.append("deployed job stages: " + ", ".join(
        f"{s.name} [{s.STAGE_TYPE}]" for s in job.topological_order()
    ))
    lines.append("semantics check vs the original job on 100 customers: OK")
    record("FIG10", "\n".join(lines))

"""SINK — full-pipeline benchmark on the kitchen-sink workload.

Times the complete translation chain (ETL → OHM → mappings → OHM → ETL)
over a job using 12 processing stage types at once, and records the stage
coverage plus the per-path equivalence checks.
"""

from repro.compile import compile_job
from repro.deploy import deploy_to_job
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.mapping.to_ohm import mappings_to_ohm
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import (
    build_kitchen_sink_job,
    generate_kitchen_sink_instance,
)

from _artifacts import record, record_metrics


def full_chain(obs=None):
    job = build_kitchen_sink_job(with_surrogate_key=False)
    graph = compile_job(job, obs=obs)
    mappings = ohm_to_mappings(graph)
    back = mappings_to_ohm(mappings)
    redeployed, _plan = deploy_to_job(back, obs=obs)
    return job, graph, mappings, back, redeployed


def test_bench_sink_full_translation_chain(benchmark):
    job, graph, mappings, back, redeployed = benchmark(full_chain)

    instance = generate_kitchen_sink_instance(150)
    baseline = EtlEngine().execute(job, instance)
    assert OhmExecutor().execute(graph, instance).same_bags(baseline)
    assert MappingExecutor().execute(mappings, instance).same_bags(baseline)
    assert OhmExecutor().execute(back, instance).same_bags(baseline)
    assert EtlEngine().execute(redeployed, instance).same_bags(baseline)

    stage_types = sorted({s.STAGE_TYPE for s in job.stages})
    operator_kinds = sorted(
        {k for k in graph.kinds_in_order() if k not in ("SOURCE", "TARGET")}
    )
    lines = [
        "kitchen-sink workload (every compilable stage type at once):",
        f"  stage types in the job ({len(stage_types)}): "
        f"{', '.join(stage_types)}",
        f"  OHM operator kinds after compilation: "
        f"{', '.join(operator_kinds)}",
        f"  extracted mappings: {len(mappings)} "
        f"({sum(1 for m in mappings if m.is_opaque)} opaque — the outer-join"
        " Lookup)",
        f"  materialization points: "
        f"{', '.join(mappings.intermediate_relation_names())}",
        "  ETL == OHM == mappings == mappings→OHM == redeployed job on "
        "150 orders: OK",
    ]
    record("SINK", "\n".join(lines))

    # one instrumented (non-timed) pass dumps the monitor numbers next to
    # the text artifact: compile phases, rewrite rules, deployment
    # placement, and per-operator/per-link row counts on the 150-order run
    obs = Observability(stats=True)
    _job, igraph, *_rest = full_chain(obs=obs)
    OhmExecutor(obs=obs).execute(igraph, instance)
    EtlEngine(obs=obs).execute(job, instance)
    record_metrics("SINK", obs.metrics)

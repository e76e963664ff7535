"""FIG7/FIG8 — extracting the composed mappings from the OHM instance.

Regenerates Figures 7 and 8: exactly three mappings M1, M2, M3 touching
at the materialization point ``DSLink10`` (the edge after the GROUP and
before the SPLIT — "a materialization point for both of the above
reasons"), with M1 carrying the join, filter, grouping and transformation
functions, and M2/M3 carrying the routing predicate and its negation.
The benchmark times the composition traversal; the artifact is the
Figure 8 mapping text plus a data-level check that the extracted mappings
compute the same instance as the job.
"""

from repro.compile import compile_job
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.workloads import build_example_job, generate_instance

from _artifacts import record


def test_bench_fig8_extract_mappings(benchmark):
    graph = compile_job(build_example_job())
    mappings = benchmark(ohm_to_mappings, graph)

    assert mappings.names == ["M1", "M2", "M3"]
    assert mappings.intermediate_relation_names() == ["DSLink10"]
    m1 = mappings.by_name("M1")
    assert m1.is_grouping
    assert sorted(m1.source_relation_names) == ["Accounts", "Customers"]
    assert dict(m1.derivations)["totalBalance"].to_sql() == "SUM(a.balance)"

    instance = generate_instance(120)
    assert MappingExecutor().execute(mappings, instance).same_bags(
        EtlEngine().execute(build_example_job(), instance)
    )

    lines = ["Figures 7/8 — extracted mappings (query notation):", ""]
    lines.append(mappings.to_text())
    lines.append("")
    lines.append("logical notation:")
    for mapping in mappings:
        lines.append("  " + mapping.to_logical_notation())
    lines.append("")
    lines.append(
        "materialization point: "
        + ", ".join(mappings.intermediate_relation_names())
    )
    lines.append("semantics check vs the ETL job on 120 customers: OK")
    record("FIG8", "\n".join(lines))

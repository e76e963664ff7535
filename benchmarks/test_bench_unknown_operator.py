"""UNK — the UNKNOWN-operator scenario of paper section V-B.

"Suppose there is a custom operator just after the Join stage ... Orchid
computes the following five mappings": the pre-group mapping into
DSLink5, an *empty* mapping standing in for the custom operator, the
grouping mapping into DSLink10, and the two routing mappings. The
benchmark times the extraction; the artifact shows the five mappings and
their boundaries.
"""

from repro.compile import compile_job
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.workloads import build_example_job, generate_instance

from _artifacts import record


def test_bench_unknown_operator_extraction(benchmark):
    graph = compile_job(build_example_job(custom_after_join=True))
    mappings = benchmark(ohm_to_mappings, graph)

    assert len(mappings) == 5
    ordered = mappings.in_dependency_order()
    assert ordered[0].target.name == "DSLink5"
    assert not ordered[0].is_grouping  # grouping moved past the black box
    (opaque,) = [m for m in mappings if m.is_opaque]
    assert opaque.reference == "AuditBalances"
    (grouping,) = [m for m in mappings if m.is_grouping]
    assert grouping.target.name == "DSLink10"

    instance = generate_instance(80)
    assert MappingExecutor().execute(mappings, instance).same_bags(
        EtlEngine().execute(build_example_job(custom_after_join=True), instance)
    )

    lines = [
        "Section V-B — custom operator after the Join becomes UNKNOWN:",
        "",
        f"  {len(mappings)} mappings (paper: five mappings):",
    ]
    for mapping in ordered:
        role = ""
        if mapping.is_opaque:
            role = f"   [empty mapping for {mapping.reference!r}]"
        elif mapping.is_grouping:
            role = "   [carries the grouping condition]"
        sources = ", ".join(mapping.source_relation_names)
        lines.append(
            f"    {mapping.name}: {sources} -> {mapping.target.name}{role}"
        )
    lines.append(
        "  materialization points: "
        + ", ".join(mappings.intermediate_relation_names())
    )
    lines.append("")
    lines.append(mappings.to_text())
    record("UNK", "\n".join(lines))

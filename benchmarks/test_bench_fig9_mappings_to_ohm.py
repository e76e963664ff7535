"""FIG9 — compiling mappings into OHM via the operator template.

"Orchid creates a skeleton OHM graph from the template shown in Figure 9
... The unnecessary operators are removed ... The resulting OHM for this
simple example has (not surprisingly) the same shape as the one created
from the ETL job." The benchmark times the template instantiation for
the three example mappings; the artifact compares the shapes of the
forward-compiled and reverse-compiled graphs and shows M2's pruned
pipeline.
"""

from repro.compile import compile_job
from repro.etl import EtlEngine
from repro.mapping import MappingSet, ohm_to_mappings
from repro.mapping.to_ohm import mappings_to_ohm
from repro.ohm import OhmExecutor
from repro.workloads import build_example_job, generate_instance

from _artifacts import record


def shape(graph):
    return [k for k in graph.kinds_in_order() if k not in ("SOURCE", "TARGET")]


def test_bench_fig9_mappings_to_ohm(benchmark):
    forward = compile_job(build_example_job())
    mappings = ohm_to_mappings(forward)

    backward = benchmark(mappings_to_ohm, mappings)

    assert sorted(shape(backward)) == sorted(shape(forward))
    instance = generate_instance(100)
    assert OhmExecutor().execute(backward, instance).same_bags(
        EtlEngine().execute(build_example_job(), instance)
    )

    # M2 alone prunes the template down to FILTER -> BASIC PROJECT
    m2_graph = mappings_to_ohm(
        MappingSet([mappings.by_name("M2")]), cleanup=False
    )
    m2_shape = shape(m2_graph)
    assert m2_shape == ["FILTER", "BASIC PROJECT"]

    lines = ["Figure 9 — template instantiation and pruning:"]
    lines.append(f"  forward (job -> OHM)  shape: {sorted(shape(forward))}")
    lines.append(f"  backward (maps -> OHM) shape: {sorted(shape(backward))}")
    lines.append(
        "  -> same shape, as the paper notes ('not surprisingly')"
    )
    lines.append("")
    lines.append(
        "  M2 pruned to: " + " -> ".join(["DSLink10"] + m2_shape + ["BigCustomers"])
    )
    lines.append("  semantics check vs the ETL job on 100 customers: OK")
    record("FIG9", "\n".join(lines))

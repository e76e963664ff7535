"""OPT — OHM-level optimization (paper section III).

"optimization capabilities available at the OHM level can be used to
optimize an existing ETL job ... This makes query optimization applicable
to ETL systems, which usually do not support such techniques natively."

The workload places a selective filter late, after an expensive
derivation; selection push-down moves it ahead. The bench measures
operator counts, rows processed by the PROJECT, and execution time for
the unoptimized vs optimized graphs (who wins, by roughly what factor).
"""

import time

from repro.compile import compile_job
from repro.etl import (
    FilterOutput,
    FilterStage,
    Job,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.ohm import OhmExecutor
from repro.rewrite import optimize
from repro.schema import relation
from repro.workloads import generate_chain_instance

from _artifacts import record

N_ROWS = 4000
SELECTIVITY_THRESHOLD = 95  # amount > 95 keeps ~5% of rows


def build_late_filter_job() -> Job:
    """Source → expensive Transformer → selective Filter → target."""
    rel = relation(
        "R", ("id", "int", False), ("category", "varchar"),
        ("amount", "float", False), ("note", "varchar"),
    )
    job = Job("late-filter")
    source = job.add(TableSource(rel, name="R"))
    expensive = job.add(
        Transformer(
            [
                OutputLink(
                    [
                        ("id", "id"),
                        ("amount", "amount"),
                        ("tag", "UPPER(COALESCE(category, 'x')) || '-' || "
                                "SUBSTR(COALESCE(note, ''), 1, 4)"),
                    ]
                )
            ],
            name="derive",
        )
    )
    selective = job.add(
        FilterStage(
            [FilterOutput(f"amount > {SELECTIVITY_THRESHOLD}")], name="pick"
        )
    )
    target = job.add(
        TableTarget(
            relation("Out", ("id", "int"), ("amount", "float"),
                     ("tag", "varchar")),
        )
    )
    job.link(source, expensive)
    job.link(expensive, selective)
    job.link(selective, target)
    return job


def project_input_rows(graph, instance):
    """Rows flowing into the PROJECT operator — the work the expensive
    derivations actually perform."""
    (project,) = graph.operators_of_kind("PROJECT")
    (in_edge,) = graph.in_edges(project.uid)
    return OhmExecutor().run(graph, instance).rows[in_edge.name]


def test_bench_opt_unoptimized_execution(benchmark):
    graph = compile_job(build_late_filter_job())
    instance = generate_chain_instance(N_ROWS)
    result = benchmark(OhmExecutor().execute, graph, instance)
    assert "Out" in result.names


def test_bench_opt_optimized_execution(benchmark):
    graph = compile_job(build_late_filter_job())
    optimize(graph)
    instance = generate_chain_instance(N_ROWS)
    result = benchmark(OhmExecutor().execute, graph, instance)
    assert "Out" in result.names


def test_bench_opt_report(benchmark):
    instance = generate_chain_instance(N_ROWS)

    def measure():
        plain = compile_job(build_late_filter_job())
        optimized = compile_job(build_late_filter_job())
        report = optimize(optimized)
        rows_plain = project_input_rows(plain, instance)
        rows_optimized = project_input_rows(optimized, instance)
        started = time.perf_counter()
        baseline = OhmExecutor().execute(plain, instance)
        plain_seconds = time.perf_counter() - started
        started = time.perf_counter()
        improved = OhmExecutor().execute(optimized, instance)
        optimized_seconds = time.perf_counter() - started
        assert improved.same_bags(baseline)
        kinds_plain = [
            k for k in plain.kinds_in_order() if k not in ("SOURCE", "TARGET")
        ]
        kinds_optimized = [
            k for k in optimized.kinds_in_order()
            if k not in ("SOURCE", "TARGET")
        ]
        return (
            report, rows_plain, rows_optimized, plain_seconds,
            optimized_seconds, kinds_plain, kinds_optimized,
        )

    (
        report, rows_plain, rows_optimized, plain_seconds,
        optimized_seconds, kinds_plain, kinds_optimized,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    assert rows_optimized < rows_plain  # the pushdown actually helped

    lines = [
        "OHM-level optimization (selection push-down) on a late-filter job:",
        f"  rows:                       {N_ROWS}",
        f"  shape before: {' -> '.join(kinds_plain)}",
        f"  shape after:  {' -> '.join(kinds_optimized)}",
        f"  rewrites fired: {report.firings}",
        f"  rows through the expensive PROJECT: "
        f"{rows_plain} -> {rows_optimized} "
        f"({rows_plain / max(rows_optimized, 1):.1f}x fewer)",
        f"  execution time: {plain_seconds * 1000:.1f} ms -> "
        f"{optimized_seconds * 1000:.1f} ms "
        f"({plain_seconds / max(optimized_seconds, 1e-9):.2f}x)",
        "  results identical: OK",
    ]
    record("OPT", "\n".join(lines))

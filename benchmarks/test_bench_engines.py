"""ENGINE — substrate throughput.

The reproduction carries three executable semantics (the ETL runtime,
the OHM engine, the mapping executor) plus generated SQL on sqlite. This
bench runs the paper's example workload through each path at growing data
sizes and reports rows/second — context for all the other timings, and a
check that the four paths keep agreeing as data grows.
"""

import time

import pytest

from repro.compile import compile_job
from repro.deploy import plan_pushdown
from repro.etl.engine import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.ohm.engine import OhmExecutor
from repro.workloads import (
    build_example_job,
    build_kitchen_sink_job,
    generate_instance,
    generate_kitchen_sink_instance,
)

from _artifacts import record, record_baseline

SIZES = [100, 300]


@pytest.mark.parametrize("n_customers", SIZES)
def test_bench_engine_etl(benchmark, n_customers):
    job = build_example_job()
    instance = generate_instance(n_customers)
    benchmark(EtlEngine().execute, job, instance)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
def test_bench_engine_etl_kitchen_sink(benchmark, compiled):
    job = build_kitchen_sink_job(with_surrogate_key=False)
    instance = generate_kitchen_sink_instance(n_orders=1000, n_customers=200)
    engine = EtlEngine(compiled=compiled)
    benchmark(engine.execute, job, instance)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
def test_bench_engine_ohm_kitchen_sink(benchmark, compiled):
    graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
    instance = generate_kitchen_sink_instance(n_orders=1000, n_customers=200)
    executor = OhmExecutor(compiled=compiled)
    benchmark(executor.execute, graph, instance)


@pytest.mark.parametrize("n_customers", SIZES)
def test_bench_engine_ohm(benchmark, n_customers):
    graph = compile_job(build_example_job())
    instance = generate_instance(n_customers)
    benchmark(OhmExecutor().execute, graph, instance)


@pytest.mark.parametrize("n_customers", [100])
def test_bench_engine_mappings(benchmark, n_customers):
    mappings = ohm_to_mappings(compile_job(build_example_job()))
    instance = generate_instance(n_customers)
    benchmark(MappingExecutor().execute, mappings, instance)


@pytest.mark.parametrize("n_customers", SIZES)
def test_bench_engine_hybrid_sql(benchmark, n_customers):
    hybrid = plan_pushdown(compile_job(build_example_job()))
    instance = generate_instance(n_customers)
    benchmark(hybrid.execute, instance)


def test_bench_engine_report(benchmark):
    def measure():
        job = build_example_job()
        graph = compile_job(job)
        mappings = ohm_to_mappings(graph)
        hybrid = plan_pushdown(graph)
        rows = []
        for n_customers in SIZES:
            instance = generate_instance(n_customers)
            n_input = sum(len(d) for d in instance)
            timings = {}
            started = time.perf_counter()
            baseline = EtlEngine().execute(job, instance)
            timings["ETL engine"] = time.perf_counter() - started
            started = time.perf_counter()
            ohm_result = OhmExecutor().execute(graph, instance)
            timings["OHM engine"] = time.perf_counter() - started
            started = time.perf_counter()
            mapping_result = MappingExecutor().execute(mappings, instance)
            timings["mapping exec"] = time.perf_counter() - started
            started = time.perf_counter()
            hybrid_result = hybrid.execute(instance)
            timings["hybrid SQL"] = time.perf_counter() - started
            assert ohm_result.same_bags(baseline)
            assert mapping_result.same_bags(baseline)
            assert hybrid_result.same_bags(baseline)
            rows.append((n_customers, n_input, timings))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["substrate throughput on the example workload:"]
    lines.append(
        f"  {'customers':>10} {'input rows':>11} "
        f"{'ETL ms':>9} {'OHM ms':>9} {'maps ms':>9} {'hybrid ms':>10}"
    )
    for n_customers, n_input, timings in rows:
        lines.append(
            f"  {n_customers:>10} {n_input:>11} "
            f"{timings['ETL engine'] * 1000:>9.1f} "
            f"{timings['OHM engine'] * 1000:>9.1f} "
            f"{timings['mapping exec'] * 1000:>9.1f} "
            f"{timings['hybrid SQL'] * 1000:>10.1f}"
        )
    lines.append("  all four paths bag-equal at every size: OK")
    record("ENGINE", "\n".join(lines))


def _best_seconds(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_compiled_vs_interpreted_report(benchmark):
    """A/B the compiled execution core against the interpreting oracle
    on both engines and record the perf baseline as BENCH_engines.json
    (repo root) for future regress-checks."""
    example_job = build_example_job()
    example_instance = generate_instance(300)
    sink_job = build_kitchen_sink_job(with_surrogate_key=False)
    sink_graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
    sink_instance = generate_kitchen_sink_instance(
        n_orders=2000, n_customers=400
    )

    scenarios = [
        (
            "etl_example",
            sum(len(d) for d in example_instance),
            lambda c: EtlEngine(compiled=c).execute(
                example_job, example_instance
            ),
        ),
        (
            "etl_kitchen_sink",
            sum(len(d) for d in sink_instance),
            lambda c: EtlEngine(compiled=c).execute(sink_job, sink_instance),
        ),
        (
            "ohm_kitchen_sink",
            sum(len(d) for d in sink_instance),
            lambda c: OhmExecutor(compiled=c).execute(
                sink_graph, sink_instance
            ),
        ),
    ]

    def measure():
        results = {}
        for name, n_rows, run in scenarios:
            assert run(True).same_bags(run(False)), name  # modes agree
            compiled_s = _best_seconds(lambda: run(True))
            interpreted_s = _best_seconds(lambda: run(False))
            results[name] = {
                "input_rows": n_rows,
                "compiled": {
                    "seconds": compiled_s,
                    "ops_per_sec": 1.0 / compiled_s,
                    "rows_per_sec": n_rows / compiled_s,
                },
                "interpreted": {
                    "seconds": interpreted_s,
                    "ops_per_sec": 1.0 / interpreted_s,
                    "rows_per_sec": n_rows / interpreted_s,
                },
                "speedup": interpreted_s / compiled_s,
            }
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name in ("etl_kitchen_sink", "ohm_kitchen_sink"):
        assert results[name]["speedup"] >= 1.5, (
            f"{name}: compiled path only "
            f"{results[name]['speedup']:.2f}x faster than the oracle"
        )
    record_baseline("engines", results)
    lines = ["compiled execution core vs interpreting oracle:"]
    for name, r in results.items():
        lines.append(
            f"  {name:>18}: {r['compiled']['seconds'] * 1000:7.1f} ms compiled "
            f"vs {r['interpreted']['seconds'] * 1000:7.1f} ms interpreted "
            f"({r['speedup']:.2f}x, {r['compiled']['rows_per_sec']:,.0f} rows/s)"
        )
    record("ENGINE_MODES", "\n".join(lines))

"""FIG3 — the running-example ETL job (paper Figure 3).

Regenerates the job, runs it on synthetic data, and reports the row
counts flowing over each link — the quantities an ETL monitor (and the
paper's narrative: loan filtering, joining, aggregation, routing) talks
about. The benchmark times a full job execution.
"""

from repro.etl import EtlEngine
from repro.workloads import build_example_job, generate_instance

from _artifacts import record

N_CUSTOMERS = 300


def test_bench_fig3_run_example_job(benchmark):
    job = build_example_job()
    instance = generate_instance(N_CUSTOMERS)
    engine = EtlEngine()

    def run():
        return engine.run(job, instance)

    targets, _rejected, links, _edges = benchmark(run)

    big = targets.dataset("BigCustomers")
    other = targets.dataset("OtherCustomers")
    assert len(big) + len(other) == links["DSLink10"]
    assert all(r["totalBalance"] > 100000 for r in big)

    lines = [f"Figure 3 job on {N_CUSTOMERS} synthetic customers:"]
    lines.append(f"  stages: {[s.name for s in job.topological_order()]}")
    for name in sorted(links, key=lambda n: int(n.replace("DSLink", ""))):
        lines.append(f"  {name:<9} {links[name]:>6} rows")
    lines.append(f"  BigCustomers:   {len(big):>6} rows")
    lines.append(f"  OtherCustomers: {len(other):>6} rows")
    record("FIG3", "\n".join(lines))

"""RT — round-tripping between representations (paper section I).

Benchmarks the two FastTrack round trips — job → mappings → job and
mappings → job → mappings — and records that (a) semantics are preserved
on data and (b) regenerated mappings are stable (a second round trip is a
fixpoint).
"""

from repro.etl import EtlEngine
from repro.fasttrack import Orchid
from repro.workloads import build_example_job, generate_instance

from _artifacts import record


def canonical(mappings):
    return [
        (
            sorted(b.relation.name for b in m.sources),
            m.target.name,
            sorted(c.to_sql() for c in m.where_conjuncts()),
            sorted((c, e.to_sql()) for c, e in m.derivations),
        )
        for m in mappings.in_dependency_order()
    ]


def test_bench_rt_etl_mappings_etl(benchmark):
    orchid = Orchid()
    job = build_example_job()

    regenerated, mappings = benchmark(orchid.round_trip_etl, job)

    instance = generate_instance(80)
    assert EtlEngine().execute(regenerated, instance).same_bags(
        EtlEngine().execute(job, instance)
    )

    lines = [
        "Round trip job -> mappings -> job:",
        f"  original stages:    {sorted(s.STAGE_TYPE for s in job.stages)}",
        f"  regenerated stages: "
        f"{sorted(s.STAGE_TYPE for s in regenerated.stages)}",
        f"  intermediate mappings: {mappings.names}",
        "  semantics preserved on 80 customers: OK",
    ]
    record("RT", "\n".join(lines))


def test_bench_rt_mappings_fixpoint(benchmark):
    orchid = Orchid()
    original = orchid.etl_to_mappings(build_example_job())

    once, _job = benchmark(orchid.round_trip_mappings, original)

    twice, _job = orchid.round_trip_mappings(once)
    assert canonical(once) == canonical(twice)

"""COLUMNAR — the vectorized block tier vs the compiled row tier.

A dedicated filter → project (Transformer) → aggregate pipeline over the
kitchen-sink Orders schema, the shape the columnar tier is built for:
every stage is block-capable, so batched mode runs end to end on
RowBlock kernels with no row round-trips. The bench A/Bs batched
execution against the compiled row path (which is itself regress-checked
against the interpreting oracle in BENCH_engines.json) and
micro-measures the ``key_encoder`` grouping-key cache.

The perf baseline lands in ``BENCH_columnar.json`` (repo root). The
batched/compiled speedup floor defaults to 2.0× and can be relaxed via
``REPRO_BENCH_COLUMNAR_FLOOR`` (CI smoke uses 1.5 to tolerate shared
runners).
"""

import os
import time

from repro.data.dataset import Instance
from repro.etl.engine import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import (
    AggregatorStage,
    FilterOutput,
    FilterStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.exec.kernels import group_key_value, key_encoder
from repro.schema.model import relation
from repro.workloads.kitchen_sink import (
    generate_kitchen_sink_instance,
    kitchen_sink_schemas,
)

from _artifacts import record, record_baseline

N_ORDERS = 4000
SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_COLUMNAR_FLOOR", "2.0"))


def build_columnar_job() -> Job:
    """Filter (valid orders) → Transformer (stage variable, CASE tier,
    arithmetic fee, otherwise link) → Aggregator (two keys, three
    aggregates), plus a rejected-rows target."""
    orders, _customers = kitchen_sink_schemas()
    job = Job("columnar-bench")
    src = job.add(TableSource(orders, name="Orders"))
    keep = job.add(
        FilterStage(
            [FilterOutput("status <> 'X' AND amount IS NOT NULL")],
            name="valid",
        )
    )
    tier = job.add(
        Transformer(
            [
                OutputLink(
                    [
                        ("orderID", "orderID"),
                        ("customerID", "customerID"),
                        ("region", "region"),
                        ("amount", "amount"),
                        ("fee", "amount * 0.025 + 1.5"),
                        ("tier", "CASE WHEN bucket >= 3 THEN 'gold' "
                                 "WHEN bucket = 2 THEN 'silver' "
                                 "ELSE 'bronze' END"),
                    ],
                    constraint="amount > 0",
                ),
                OutputLink(
                    [("orderID", "orderID"), ("amount", "amount")],
                    otherwise=True,
                ),
            ],
            stage_variables=[
                ("bucket", "CASE WHEN amount > 1000 THEN 3 "
                           "WHEN amount > 100 THEN 2 ELSE 1 END"),
            ],
            name="tiering",
        )
    )
    rollup = job.add(
        AggregatorStage(
            ["region", "tier"],
            [
                ("total", "sum", "amount"),
                ("fees", "sum", "fee"),
                ("n", "count", None),
            ],
            name="rollup",
        )
    )
    tgt_stats = job.add(
        TableTarget(
            relation(
                "TierStats",
                ("region", "varchar"),
                ("tier", "varchar"),
                ("total", "float"),
                ("fees", "float"),
                ("n", "int"),
            ),
            name="TierStats",
        )
    )
    tgt_rejected = job.add(
        TableTarget(
            relation("Rejected", ("orderID", "int"), ("amount", "float")),
            name="Rejected",
        )
    )
    job.link(src, keep)
    job.link(keep, tier)
    job.link(tier, rollup, src_port=0)
    job.link(rollup, tgt_stats)
    job.link(tier, tgt_rejected, src_port=1)
    return job


def _best_seconds(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_instance() -> Instance:
    return generate_kitchen_sink_instance(n_orders=N_ORDERS, n_customers=400)


def test_bench_columnar_vs_compiled_rows(benchmark):
    job = build_columnar_job()
    instance = _bench_instance()
    n_rows = sum(len(d) for d in instance)
    row_engine = EtlEngine(compiled=True, batched=False)
    block_engine = EtlEngine(compiled=True, batched=True)
    oracle_engine = EtlEngine(compiled=False)

    def measure():
        # all three modes agree before anything is timed
        baseline = oracle_engine.execute(job, instance)
        assert row_engine.execute(job, instance).same_bags(baseline)
        assert block_engine.execute(job, instance).same_bags(baseline)

        row_s = _best_seconds(lambda: row_engine.execute(job, instance))
        block_s = _best_seconds(lambda: block_engine.execute(job, instance))
        return {
            "input_rows": n_rows,
            "compiled_rows": {
                "seconds": row_s,
                "rows_per_sec": n_rows / row_s,
            },
            "batched": {
                "seconds": block_s,
                "rows_per_sec": n_rows / block_s,
            },
            "speedup": row_s / block_s,
            "speedup_floor": SPEEDUP_FLOOR,
            "group_key_cache": _group_key_cache_micro(),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        f"columnar tier only {results['speedup']:.2f}x faster than the "
        f"compiled row path (floor {SPEEDUP_FLOOR}x)"
    )
    record_baseline("columnar", results)
    lines = ["columnar block tier vs compiled row tier:"]
    lines.append(
        f"  filter/project/aggregate over {results['input_rows']} rows: "
        f"{results['compiled_rows']['seconds'] * 1000:.1f} ms rows vs "
        f"{results['batched']['seconds'] * 1000:.1f} ms batched "
        f"({results['speedup']:.2f}x)"
    )
    cache = results["group_key_cache"]
    lines.append(
        f"  group-key cache: {cache['uncached_seconds'] * 1000:.1f} ms "
        f"uncached vs {cache['cached_seconds'] * 1000:.1f} ms memoized "
        f"({cache['speedup']:.2f}x on {cache['values']} values)"
    )
    record("COLUMNAR", "\n".join(lines))


def _group_key_cache_micro() -> dict:
    """Micro-measurement of the ``key_encoder`` memo: encoding a grouping
    column with few distinct values (the shape GROUP BY sees) against
    calling ``group_key_value`` per row."""
    values = [f"region-{i % 7}" for i in range(50_000)]

    def uncached():
        return [group_key_value(value) for value in values]

    def cached():
        encode = key_encoder()
        return [encode(value) for value in values]

    assert uncached() == cached()
    uncached_s = _best_seconds(uncached)
    cached_s = _best_seconds(cached)
    return {
        "values": len(values),
        "distinct": 7,
        "uncached_seconds": uncached_s,
        "cached_seconds": cached_s,
        "speedup": uncached_s / cached_s,
    }

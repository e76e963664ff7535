"""A job exercising the whole stage library at once.

The paper's Orchid supports 15 DataStage processing stages; this
workload routes one order stream through (almost) all of ours — Sort,
Peek, Filter, Switch, Funnel, Copy, Lookup, Transformer (stage variables,
constraints, an otherwise link), Modify, RemoveDuplicates, Aggregator and
optionally SurrogateKey — so the integration suite can check that the
complete translation pipeline preserves semantics for every stage type
*in combination*, not just in isolation.

Surrogate keys are order-dependent: the ETL engine, the OHM engine,
redeployed jobs and the extracted mappings (lowered to OHM, or read by
the reference) all meet the rows in the same deterministic order;
``with_surrogate_key=False`` serves the comparisons that reset no key
sequence between runs.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.data.dataset import Dataset, Instance
from repro.etl.model import Job
from repro.etl.stages import (
    AggregatorStage,
    CopyStage,
    FilterOutput,
    FilterStage,
    FunnelStage,
    LookupStage,
    Modify,
    PeekStage,
    RemoveDuplicatesStage,
    SortStage,
    SurrogateKey,
    SwitchStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.schema.model import Relation, relation


def kitchen_sink_schemas() -> Tuple[Relation, Relation]:
    orders = relation(
        "Orders",
        ("orderID", "int", False),
        ("customerID", "int", False),
        ("region", "varchar", False),
        ("amount", "float"),
        ("status", "varchar", False),
    )
    customers = relation(
        "KsCustomers",
        ("customerID", "int", False),
        ("name", "varchar", False),
        keys=["customerID"],
    )
    return orders, customers


def build_kitchen_sink_job(with_surrogate_key: bool = True) -> Job:
    orders, customers = kitchen_sink_schemas()
    job = Job("kitchen-sink")

    src_orders = job.add(TableSource(orders, name="Orders"))
    src_customers = job.add(TableSource(customers, name="KsCustomers"))

    sort = job.add(SortStage([("orderID", "asc")], name="sort"))
    peek = job.add(PeekStage(sample=5, name="peek"))
    keep_valid = job.add(
        FilterStage([FilterOutput("status <> 'X'")], name="valid")
    )
    switch = job.add(
        SwitchStage("region", cases=["EU", "US"], has_default=True,
                    name="byRegion")
    )
    funnel = job.add(FunnelStage(name="mergeEuUs"))
    lookup = job.add(
        LookupStage(keys=[("customerID", "customerID")],
                    on_failure="continue", name="names")
    )
    tier = job.add(
        Transformer(
            [
                OutputLink(
                    [
                        ("orderID", "orderID"),
                        ("customerID", "customerID"),
                        ("name", "name"),
                        ("region", "region"),
                        ("amount", "amount"),
                        ("tier", "CASE WHEN bucket >= 3 THEN 'gold' "
                                 "WHEN bucket = 2 THEN 'silver' "
                                 "ELSE 'bronze' END"),
                    ],
                    constraint="amount IS NOT NULL AND amount > 0",
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
    tidy = job.add(
        Modify(
            keep=["orderID", "customerID", "name", "tier", "amount"],
            rename={"orderAmount": "amount"},
            name="tidy",
        )
    )
    dedup = job.add(
        RemoveDuplicatesStage(["orderID"], retain="first", name="dedup")
    )

    audit_fan = job.add(
        CopyStage(keep_columns=[None, ["orderID"]], name="auditFan")
    )
    rollup = job.add(
        AggregatorStage(
            ["region"], [("total", "sum", "amount"), ("n", "count", None)],
            name="rollup",
        )
    )

    enriched_cols = [
        ("orderID", "int"),
        ("customerID", "int"),
        ("name", "varchar"),
        ("tier", "varchar"),
        ("orderAmount", "float"),
    ]
    if with_surrogate_key:
        keygen = job.add(SurrogateKey("rowKey", start=1, name="keygen"))
        enriched_cols.append(("rowKey", "int"))
    tgt_enriched = job.add(
        TableTarget(relation("Enriched", *enriched_cols), name="Enriched")
    )
    tgt_rejected = job.add(
        TableTarget(
            relation("Rejected", ("orderID", "int"), ("amount", "float")),
            name="Rejected",
        )
    )
    tgt_other = job.add(
        TableTarget(orders.renamed("OtherRegions"), name="OtherRegions")
    )
    tgt_audit = job.add(
        TableTarget(relation("Audit", ("orderID", "int")), name="Audit")
    )
    tgt_rollup = job.add(
        TableTarget(
            relation("RegionStats", ("region", "varchar"),
                     ("total", "float"), ("n", "int")),
            name="RegionStats",
        )
    )

    job.link(src_orders, sort)
    job.link(sort, peek)
    job.link(peek, keep_valid)
    job.link(keep_valid, switch)
    job.link(switch, funnel, src_port=0, dst_port=0)    # EU
    job.link(switch, funnel, src_port=1, dst_port=1)    # US
    other_fan = job.add(CopyStage(keep_columns=[None, None], name="otherFan"))
    job.link(switch, other_fan, src_port=2)             # default regions
    job.link(other_fan, tgt_other, src_port=0)
    job.link(other_fan, rollup, src_port=1)
    job.link(rollup, tgt_rollup)
    job.link(funnel, lookup)
    job.link(src_customers, lookup, dst_port=1)
    job.link(lookup, tier)
    job.link(tier, tidy, src_port=0)
    job.link(tier, tgt_rejected, src_port=1)
    job.link(tidy, dedup)
    job.link(dedup, audit_fan)
    if with_surrogate_key:
        job.link(audit_fan, keygen, src_port=0)
        job.link(keygen, tgt_enriched)
    else:
        job.link(audit_fan, tgt_enriched, src_port=0)
    job.link(audit_fan, tgt_audit, src_port=1)
    return job


_REGIONS = ["EU", "US", "APAC", "LATAM"]
_STATUSES = ["ok", "ok", "ok", "X"]


def generate_kitchen_sink_instance(
    n_orders: int = 200, n_customers: int = 40, seed: int = 424242
) -> Instance:
    """Synthetic orders with exact-duplicate rows (for RemoveDuplicates),
    NULL amounts (for the otherwise link), unmatched customers (for the
    lookup's continue mode), and a region mix covering every Switch case."""
    rng = random.Random(seed)
    orders, customers = kitchen_sink_schemas()
    customer_data = Dataset(customers)
    for customer_id in range(1, n_customers + 1):
        customer_data.append(
            {"customerID": customer_id, "name": f"cust-{customer_id}"}
        )
    order_data = Dataset(orders)
    order_id = 1
    while order_id <= n_orders:
        row = {
            "orderID": order_id,
            # some orders reference customers missing from the lookup
            "customerID": rng.randint(1, int(n_customers * 1.2)),
            "region": rng.choice(_REGIONS),
            "amount": (
                None if rng.random() < 0.08
                else round(rng.uniform(-50, 2000), 2)
            ),
            "status": rng.choice(_STATUSES),
        }
        order_data.append(row)
        if rng.random() < 0.15:  # exact duplicate row
            order_data.append(dict(row))
        order_id += 1
    return Instance([order_data, customer_data])


__all__ = [
    "kitchen_sink_schemas",
    "build_kitchen_sink_job",
    "generate_kitchen_sink_instance",
]

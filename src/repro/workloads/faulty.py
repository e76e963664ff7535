"""The fault-injection parity workload (see ``docs/robustness.md``).

A deliberately fragile linear job over one source and one target:

    Orders ── ComputeUnit (unit = price / qty) ── Premium (unit > 50) ── tgt

``generate_faulty_instance`` poisons seeded-chosen rows with ``qty = 0``
— type-valid, so the rows pass source validation and explode only
inside the Transformer's division, exercising row-level error policies
identically in all three runtimes (ETL, OHM, mappings) and both
execution tiers (compiled, interpreted).

The shape is intentionally *single-target linear*: a fan-out job
compiles to one mapping per target, each re-reading the source, so a
poisoned row would be rejected once per mapping and the rejected-row
multisets would no longer be comparable across runtimes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.data.dataset import Dataset, Instance
from repro.etl.model import Job
from repro.etl.stages import FilterStage, TableSource, TableTarget, Transformer
from repro.faults import FaultPlan
from repro.resilience import reject_relation
from repro.schema.model import Relation, relation

#: unit price above which an order lands in the Premium target
PREMIUM_UNIT_THRESHOLD = 50


def orders_schema() -> Relation:
    return relation(
        "Orders",
        ("orderID", "int", False),
        ("qty", "int", False),
        ("price", "float", False),
        ("region", "varchar", False),
    )


def premium_schema() -> Relation:
    return relation(
        "Premium",
        ("orderID", "int", False),
        ("region", "varchar", False),
        ("unit", "float", False),
    )


def build_faulty_job(with_reject_link: bool = False) -> Job:
    """The Orders → ComputeUnit → Premium filter → target job.

    With ``with_reject_link`` the Transformer additionally carries a
    dedicated reject link into a ``Rejects`` table target, and its
    ``on_error`` is set to ``reject`` — the in-job flavour of the reject
    channel. Without it, policies come from the engine (or executor)
    running the job."""
    job = Job("faulty_orders")
    src = job.add(TableSource(orders_schema()))
    compute = job.add(
        Transformer.single(
            [
                ("orderID", "orderID"),
                ("region", "region"),
                ("unit", "price / qty"),
            ],
            name="ComputeUnit",
        )
    )
    premium = job.add(
        FilterStage.single(
            f"unit > {PREMIUM_UNIT_THRESHOLD}", name="PremiumFilter"
        )
    )
    target = job.add(TableTarget(premium_schema()))
    job.link(src, compute, name="orders")
    job.link(compute, premium, name="units")
    job.link(premium, target, name="premium")
    if with_reject_link:
        compute.on_error = "reject"
        reject_target = job.add(
            TableTarget(reject_relation("Rejects"), name="tgt_Rejects")
        )
        job.reject_link(compute, reject_target, name="Rejects")
    return job


def generate_faulty_instance(
    n: int = 100,
    seed: int = 0,
    poison: int = 0,
    plan: Optional[FaultPlan] = None,
) -> Tuple[Instance, FaultPlan]:
    """``n`` orders, with ``poison`` seeded-chosen rows given ``qty = 0``
    (a division-by-zero mine in ``ComputeUnit``).

    Returns ``(instance, plan)`` — the plan records which row indices
    were poisoned, so tests can assert exact reject counts."""
    plan = plan or FaultPlan(seed=seed)
    regions = ("AMER", "EMEA", "APAC")
    rows = [
        {
            "orderID": i + 1,
            "qty": i % 4 + 1,
            "price": float((i * 37) % 400 + 1),
            "region": regions[i % len(regions)],
        }
        for i in range(n)
    ]
    instance = Instance()
    instance.add(Dataset(orders_schema(), rows))
    if poison:
        instance = plan.poison(
            instance, "Orders", "qty", count=poison, value=0
        )
    return instance, plan


__all__ = [
    "PREMIUM_UNIT_THRESHOLD",
    "orders_schema",
    "premium_schema",
    "build_faulty_job",
    "generate_faulty_instance",
]

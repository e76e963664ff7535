#!/usr/bin/env python
"""Nested data (NF²) through the full pipeline.

OHM "supports nested data structures through the NEST and UNNEST
operators, similar to operators defined in the NF² data model" (paper
section IV), while "the initial implementation of Orchid deals only with
flat transformations". This example exercises the nested capabilities
this reproduction adds on top of that initial scope:

1. an ETL job packs each customer's account rows into a set-valued
   subrecord (CombineRecords → NEST), hands the nested records to a
   black-box scoring procedure, and flattens them back
   (PromoteSubrecord → UNNEST);
2. the analyst reviews the job as mappings — the NF² operators fall
   outside the flat mapping fragment, so they appear as *empty mappings*
   (materialization points) that still carry executable reference
   semantics, letting the whole review be verified on data.

Run:  python examples/nested_data_review.py
"""

from repro import Orchid
from repro.data import Dataset, Instance
from repro.etl import (
    CombineRecords,
    CustomStage,
    EtlEngine,
    Job,
    PromoteSubrecord,
    TableSource,
    TableTarget,
)
from repro.mapping import MappingExecutor
from repro.schema import relation
from repro.schema.model import Attribute, Relation
from repro.schema.types import FLOAT, INTEGER, RecordType, SetType


def nested_relation(name: str) -> Relation:
    element = RecordType([("accountID", INTEGER), ("balance", FLOAT)])
    return Relation(
        name,
        [
            Attribute("customerID", INTEGER, nullable=False),
            Attribute("accounts", SetType(element), nullable=False),
            Attribute("riskScore", FLOAT),
        ],
    )


def score_customers(inputs):
    """The black box: a per-customer risk score over the *nested* account
    list (exactly the kind of record-set computation that motivates NF²)."""
    (data,) = inputs
    scored = []
    for row in data:
        balances = [a["balance"] for a in row["accounts"]]
        spread = (max(balances) - min(balances)) if balances else 0.0
        scored.append(dict(row, riskScore=round(spread / 100.0, 3)))
    return [scored]


def build_job() -> Job:
    accounts = relation(
        "Accounts",
        ("customerID", "int", False),
        ("accountID", "int", False),
        ("balance", "float", False),
    )
    job = Job("nested-scoring")
    source = job.add(TableSource(accounts, name="Accounts"))
    nest = job.add(
        CombineRecords(
            ["customerID"], ["accountID", "balance"], into="accounts",
            name="pack",
        )
    )
    # NEST output lacks riskScore; declare the scored schema on the box
    scorer = job.add(
        CustomStage(
            [nested_relation("scored")],
            reference="RiskScorer",
            implementation=score_customers,
            name="RiskScorer",
        )
    )
    flatten = job.add(PromoteSubrecord("accounts", name="unpack"))
    out = relation(
        "ScoredAccounts",
        ("customerID", "int"),
        ("riskScore", "float"),
        ("accountID", "int"),
        ("balance", "float"),
    )
    target = job.add(TableTarget(out, name="ScoredAccounts"))
    job.link(source, nest)
    job.link(nest, scorer)
    job.link(scorer, flatten)
    job.link(flatten, target)
    return job


def main() -> None:
    # the custom stage consumes the nested form but produces a schema with
    # an extra column — the NEST edge feeds it a subset of the declared
    # fields, so the scorer pads riskScore itself
    orchid = Orchid()
    job = build_job()
    accounts = job.stage("Accounts").relation
    instance = Instance([
        Dataset(accounts, [
            {"customerID": 1, "accountID": 10, "balance": 100.0},
            {"customerID": 1, "accountID": 11, "balance": 900.0},
            {"customerID": 2, "accountID": 12, "balance": 50.0},
        ])
    ])

    print("=== ETL job over nested records ===")
    for stage in job.topological_order():
        print(f"  [{stage.STAGE_TYPE}] {stage.name}")

    baseline = EtlEngine().execute(job, instance)
    print("\nScoredAccounts:")
    print("  " + baseline.dataset("ScoredAccounts").to_table()
          .replace("\n", "\n  "))

    graph = orchid.import_etl(job)
    print("\n=== OHM instance ===")
    print("  " + " -> ".join(graph.kinds_in_order()))

    mappings = orchid.to_mappings(graph)
    print(f"\n=== Analyst view: {len(mappings)} mappings ===")
    for mapping in mappings:
        marker = (
            f"   [black box: {mapping.reference}]" if mapping.is_opaque else ""
        )
        sources = ", ".join(mapping.source_relation_names)
        print(f"  {mapping.name}: {sources} -> {mapping.target.name}{marker}")

    reviewed = MappingExecutor().execute(mappings, instance)
    print(
        "\nNF² operators reviewed as (executable) empty mappings; "
        "semantics preserved:",
        "OK" if reviewed.same_bags(baseline) else "MISMATCH",
    )


if __name__ == "__main__":
    main()

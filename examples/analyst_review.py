#!/usr/bin/env python
"""Analyst review of an ETL job containing a black-box custom stage.

The paper's section V-B scenario: an ETL programmer has inserted a custom
operator (an external balance-auditing procedure) right after the Join.
The analyst wants to *review the job as declarative mappings* without
caring how the black box is implemented.

Orchid compiles the custom stage into an UNKNOWN operator, whose
end-points become materialization points: instead of three mappings the
analyst now sees five — with an explicitly *empty* mapping standing in
for the black box, recording only its input/output relations and its
name.

Run:  python examples/analyst_review.py
"""

from repro import Orchid
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor
from repro.workloads import build_example_job, generate_instance


def main() -> None:
    orchid = Orchid()

    job = build_example_job(custom_after_join=True)
    print("=== ETL job (with the AuditBalances custom stage) ===")
    for stage in job.topological_order():
        marker = "   <-- black box" if stage.STAGE_TYPE == "Custom" else ""
        print(f"  [{stage.STAGE_TYPE}] {stage.name}{marker}")

    mappings = orchid.etl_to_mappings(job)
    print(f"\n=== The analyst sees {len(mappings)} mappings ===")
    print(mappings.to_text())

    print("\n=== Logical notation (what Clio/RDA would store) ===")
    for mapping in mappings:
        print(" ", mapping.to_logical_notation())

    opaque = [m for m in mappings if m.is_opaque]
    print(
        f"\nThe empty mapping {opaque[0].name} stands in for "
        f"{opaque[0].reference!r}: it records only the source and target "
        "relations — the custom operator's semantics stay opaque, but its "
        "presence is preserved, exactly as the paper requires."
    )

    # because the compiler carried the stage behaviour along, the mapping
    # set is still executable end-to-end for verification
    instance = generate_instance(120)
    baseline = EtlEngine().execute(job, instance)
    reviewed = MappingExecutor().execute(mappings, instance)
    print(
        "\nsemantics preserved through review:",
        "OK" if reviewed.same_bags(baseline) else "MISMATCH",
    )


if __name__ == "__main__":
    main()

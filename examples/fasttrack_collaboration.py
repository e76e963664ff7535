#!/usr/bin/env python
"""The FastTrack collaboration loop (paper section I).

1. A *system analyst* records an incomplete mapping: which target columns
   come from which sources, plus an English business rule — but not how
   to join the two source tables.
2. FastTrack/Orchid detects that the mapping requires a join and
   generates a DataStage job *skeleton* containing an empty placeholder
   Join stage; the business rule travels along as a stage annotation.
3. An *ETL programmer* completes the placeholder (fills in the join keys)
   and tightens the job.
4. The programmer regenerates the mappings from the refined job: the
   analyst now sees the join condition that was filled in —
   "the regenerated mappings will match the original mappings but will
   contain the extra implementation details just entered by the
   programmers."

Run:  python examples/fasttrack_collaboration.py
"""

from repro import Mapping, MappingSet, Orchid, SourceBinding, relation
from repro.data import Dataset, Instance
from repro.etl import EtlEngine


def main() -> None:
    orchid = Orchid()

    # --- 1. the analyst's incomplete mapping -------------------------------------
    policies = relation(
        "Policies",
        ("policyID", "int", False),
        ("customerID", "int", False),
        ("premium", "float", False),
        keys=["policyID"],
    )
    claims = relation(
        "Claims",
        ("claimID", "int", False),
        ("policyID", "int", False),
        ("amount", "float", False),
        keys=["claimID"],
    )
    exposure = relation(
        "Exposure",
        ("policyID", "int"),
        ("premium", "float"),
        ("claimAmount", "float"),
    )
    analyst_mapping = Mapping(
        [SourceBinding("p", policies), SourceBinding("c", claims)],
        exposure,
        [
            ("policyID", "p.policyID"),
            ("premium", "p.premium"),
            ("claimAmount", "c.amount"),
        ],
        # no join predicate! the analyst doesn't know the FK relationship
        annotations={
            "business-rule": "pair each claim with the policy it was "
            "filed against (ask the claims team for the matching rule)",
        },
        name="ExposureMap",
    )
    print("=== 1. The analyst's (incomplete) mapping ===")
    print(analyst_mapping.to_query_notation())

    # --- 2. generate the job skeleton ---------------------------------------------
    skeleton, plan = orchid.mappings_to_etl(MappingSet([analyst_mapping]))
    print("\n=== 2. Generated job skeleton ===")
    for stage in skeleton.topological_order():
        notes = ""
        if stage.annotations:
            notes = "  " + "; ".join(
                f"[{k}: {v[:48]}...]" if len(v) > 48 else f"[{k}: {v}]"
                for k, v in sorted(stage.annotations.items())
            )
        print(f"  [{stage.STAGE_TYPE}] {stage.name}{notes}")
    (placeholder,) = skeleton.stages_of_type("Join")
    assert placeholder.is_placeholder
    print(
        "\n  -> the Join stage is an unresolved placeholder; the English "
        "business rule rode along as an annotation."
    )

    # --- 3. the ETL programmer completes it ----------------------------------------
    # the skeleton disambiguated the colliding policyID column of the
    # claims input as c_policyID; the programmer joins on it
    placeholder.keys = [("policyID", "c_policyID")]
    placeholder.annotations.pop("placeholder")
    placeholder.annotations["resolved-by"] = "claims team, FK policyID"
    print("\n=== 3. Programmer fills in the join keys ===")
    print(f"  join keys: {placeholder.keys}")

    instance = Instance(
        [
            Dataset(policies, [
                {"policyID": 1, "customerID": 10, "premium": 100.0},
                {"policyID": 2, "customerID": 11, "premium": 250.0},
            ]),
            Dataset(claims, [
                {"claimID": 7, "policyID": 1, "amount": 40.0},
                {"claimID": 8, "policyID": 1, "amount": 60.0},
            ]),
        ]
    )
    result = EtlEngine().execute(skeleton, instance)
    print("\n  refined job output:")
    print("  " + result.dataset("Exposure").to_table().replace("\n", "\n  "))

    # --- 4. regenerate the mappings for analyst review ------------------------------
    regenerated = orchid.etl_to_mappings(skeleton)
    print("\n=== 4. Regenerated mapping (back to the analyst) ===")
    print(regenerated.to_text())
    (mapping,) = list(regenerated)
    join_conjuncts = mapping.join_conjuncts()
    print(
        f"\n  -> the analyst now sees the join condition "
        f"{join_conjuncts[0].to_sql()} that the programmer entered."
    )


if __name__ == "__main__":
    main()

"""Mapping executor tests: mappings lowered to OHM and run on the OHM
executor, and the reference reading (``compiled=False``) they must
agree with."""

from collections import Counter

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.errors import ExecutionError, SchemaError
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    ohm_to_mappings,
)
from repro.obs import Observability
from repro.ohm.subtypes import reset_keygen_sequences
from repro.schema import relation
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_faulty_job,
    build_kitchen_sink_job,
    build_star_join_job,
    generate_chain_instance,
    generate_faulty_instance,
    generate_instance,
    generate_kitchen_sink_instance,
    generate_star_instance,
)


def run_one(mapping, instance):
    """The dataset ``mapping`` alone asserts into its target."""
    return MappingExecutor().execute(MappingSet([mapping]), instance).dataset(
        mapping.target.name
    )


@pytest.fixture
def customers():
    return relation(
        "Customers", ("customerID", "int", False), ("name", "varchar")
    )


@pytest.fixture
def accounts():
    return relation(
        "Accounts", ("customerID", "int", False), ("balance", "float", False),
        ("type", "varchar"),
    )


@pytest.fixture
def instance(customers, accounts):
    return Instance(
        [
            Dataset(customers, [
                {"customerID": 1, "name": "ada"},
                {"customerID": 2, "name": "ben"},
                {"customerID": 3, "name": "cleo"},
            ]),
            Dataset(accounts, [
                {"customerID": 1, "balance": 10.0, "type": "S"},
                {"customerID": 1, "balance": 20.0, "type": "L"},
                {"customerID": 2, "balance": 30.0, "type": "S"},
            ]),
        ]
    )


class TestSingleMapping:
    def test_projection_mapping(self, customers, instance):
        target = relation("Names", ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [("name", "c.name")]
        )
        result = run_one(mapping, instance)
        assert sorted(result.column("name")) == ["ada", "ben", "cleo"]

    def test_filtered_join_mapping(self, customers, accounts, instance):
        target = relation("T", ("name", "varchar"), ("balance", "float"))
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts)],
            target,
            [("name", "c.name"), ("balance", "a.balance")],
            where="c.customerID = a.customerID AND a.type = 'S'",
        )
        result = run_one(mapping, instance)
        assert sorted(
            (r["name"], r["balance"]) for r in result
        ) == [("ada", 10.0), ("ben", 30.0)]

    def test_grouping_mapping(self, customers, accounts, instance):
        target = relation("T", ("name", "varchar"), ("total", "float"),
                          ("n", "int"))
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts)],
            target,
            [("name", "c.name"), ("total", "SUM(a.balance)"),
             ("n", "COUNT(*)")],
            where="c.customerID = a.customerID",
            group_by=["c.name"],
        )
        result = run_one(mapping, instance)
        rows = {r["name"]: r for r in result}
        assert rows["ada"]["total"] == 30.0 and rows["ada"]["n"] == 2
        assert rows["ben"]["total"] == 30.0 and rows["ben"]["n"] == 1
        assert "cleo" not in rows  # no accounts -> no group

    def test_scalar_over_aggregate(self, accounts, instance):
        target = relation("T", ("customerID", "int"), ("scaled", "float"))
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            target,
            [("customerID", "a.customerID"),
             ("scaled", "SUM(a.balance) / 10")],
            group_by=["a.customerID"],
        )
        result = run_one(mapping, instance)
        rows = {r["customerID"]: r["scaled"] for r in result}
        assert rows[1] == 3.0

    def test_underived_target_columns_are_null(self, customers, instance):
        target = relation("T", ("name", "varchar"), ("extra", "int"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [("name", "c.name")]
        )
        result = run_one(mapping, instance)
        assert all(r["extra"] is None for r in result)

    def test_missing_source_relation_raises(self, customers):
        target = relation("T", ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [("name", "c.name")]
        )
        with pytest.raises(ExecutionError):
            run_one(mapping, Instance())


class TestOpaqueMappings:
    def test_executor_callable_runs(self, customers, instance):
        target = relation("T", ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [],
            reference="shouter",
            executor=lambda inputs: [
                {"name": r["name"].upper()} for r in inputs[0]
            ],
        )
        result = run_one(mapping, instance)
        assert sorted(result.column("name")) == ["ADA", "BEN", "CLEO"]

    def test_opaque_without_executor_raises(self, customers, instance):
        target = relation("T", ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [], reference="box"
        )
        with pytest.raises(ExecutionError):
            run_one(mapping, instance)


class TestMappingSets:
    def test_chained_through_intermediate(self, customers, accounts, instance):
        mid = relation("Mid", ("customerID", "int"), ("total", "float"))
        target = relation("Big", ("customerID", "int"), ("total", "float"))
        first = Mapping(
            [SourceBinding("a", accounts)], mid,
            [("customerID", "a.customerID"), ("total", "SUM(a.balance)")],
            group_by=["a.customerID"], name="M1",
        )
        second = Mapping(
            [SourceBinding("d", mid)], target,
            [("customerID", "d.customerID"), ("total", "d.total")],
            where="d.total > 25", name="M2",
        )
        targets, _rejected, rows, kept = MappingExecutor().run(
            MappingSet([first, second]), instance, keep=["Mid"]
        )
        assert sorted(targets.dataset("Big").column("customerID")) == [1, 2]
        assert list(rows) == ["Mid"]
        assert list(kept) == ["Mid"]
        assert targets.names == ["Big"]

    def test_shared_target_unions(self, customers, instance):
        target = relation("T", ("name", "varchar"))
        a = Mapping([SourceBinding("c", customers)], target,
                    [("name", "c.name")], where="c.customerID = 1", name="A")
        b = Mapping([SourceBinding("c", customers)], target,
                    [("name", "c.name")], where="c.customerID = 2", name="B")
        result = MappingExecutor().execute(MappingSet([a, b]), instance)
        assert sorted(result.dataset("T").column("name")) == ["ada", "ben"]

    def test_self_join(self, customers, instance):
        # pair every customer with every other (requires two variables
        # over the same relation)
        target = relation("Pairs", ("left", "varchar"), ("right", "varchar"))
        mapping = Mapping(
            [SourceBinding("c1", customers), SourceBinding("c2", customers)],
            target,
            [("left", "c1.name"), ("right", "c2.name")],
            where="c1.customerID < c2.customerID",
        )
        result = run_one(mapping, instance)
        assert len(result) == 3


# -- the lowered run against the reference reading ------------------------------

#: job family → (job, instance): what the benchmark corpus builds (the
#: kitchen sink travels with its opaque outer-join mapping, and with its
#: surrogate key: every tier meets the rows in the reference's order),
#: plus the poisoned-rows job, whose reject channel is not empty
FAMILIES = {
    "example": lambda: (build_example_job(), generate_instance(60, seed=7)),
    "kitchen-sink": lambda: (
        build_kitchen_sink_job(),
        generate_kitchen_sink_instance(150, 15, seed=7),
    ),
    "chain": lambda: (build_chain_job(25, seed=7), generate_chain_instance(90, seed=7)),
    # the reference reads a star as a product: 40 facts x 6**3 dimension rows
    "star": lambda: (
        build_star_join_job(3), generate_star_instance(3, 40, dim_size=6, seed=7)
    ),
    "fan-out": lambda: (build_fanout_job(16, seed=7), generate_chain_instance(90, seed=7)),
    "faulty": lambda: (
        build_faulty_job(), generate_faulty_instance(n=60, seed=11, poison=7)[0]
    ),
}

#: the compiled tier under the keyword sets the benchmark harness builds
#: its engines with: the retired tier keywords are dropped (with a
#: warning), so each runs the program ``fused`` runs
LOWERED_TIERS = {
    "rows": dict(mode="rows"),
    "block": dict(batched=True, fused=False),
    "fused": {},
    "parallel": dict(mode="parallel", workers=2),
    "auto": dict(mode="auto", workers=2),
}
RETIRED_WARNING = "ignore:.*execution tier that is gone:DeprecationWarning"


def _accepted_and_rejected(mappings, instance, **options):
    reset_keygen_sequences()
    targets, rejects, _rows, _edges = MappingExecutor(
        on_error="reject", **options
    ).run(mappings, instance)
    return targets, Counter((r["error_code"], r["row"]) for r in rejects)


@pytest.fixture(scope="module", params=FAMILIES)
def family(request):
    job, instance = FAMILIES[request.param]()
    mappings = ohm_to_mappings(compile_job(job))
    return mappings, instance, _accepted_and_rejected(
        mappings, instance, compiled=False
    )


@pytest.mark.filterwarnings(RETIRED_WARNING)
@pytest.mark.parametrize("tier", LOWERED_TIERS)
def test_lowered_run_accepts_and_rejects_what_the_reference_does(family, tier):
    mappings, instance, (expected, expected_rejects) = family
    targets, rejects = _accepted_and_rejected(
        mappings, instance, compiled=True, **LOWERED_TIERS[tier]
    )
    assert targets.names == expected.names
    assert sum(len(d) for d in targets) > 0
    assert targets.same_bags(expected)
    assert rejects == expected_rejects


@pytest.mark.filterwarnings(RETIRED_WARNING)
@pytest.mark.parametrize("tier", ["oracle", *LOWERED_TIERS])
@pytest.mark.parametrize("policy", ["fail_fast", "reject"])
def test_a_value_the_target_cannot_hold_is_a_schema_error_at_every_tier(tier, policy):
    accounts = relation("Accounts", ("customerID", "int"), ("type", "varchar"))
    mapping = Mapping(
        [SourceBinding("a", accounts)],
        relation("T", ("customerID", "int", False)),
        [("customerID", "a.customerID")],
    )
    instance = Instance([Dataset(accounts, [
        {"customerID": 1, "type": "S"}, {"customerID": None, "type": "L"},
    ])])
    options = LOWERED_TIERS.get(tier, dict(compiled=False))
    with pytest.raises(SchemaError, match="non-nullable"):
        MappingExecutor(on_error=policy, **options).execute(
            MappingSet([mapping]), instance
        )


def test_two_runs_on_one_observability_emit_the_same_metric_names():
    job, instance = FAMILIES["example"]()
    mappings = ohm_to_mappings(compile_job(job))
    names = []
    obs = Observability(stats=True)
    for _run in range(2):
        MappingExecutor(obs=obs, compiled=True).execute(mappings, instance)
        snapshot = obs.metrics.snapshot()
        names.append(sorted(list(snapshot["counters"]) + list(snapshot["timers"])))
    assert names[0] == names[1]
    assert any(name.startswith("ohm.operator.M") for name in names[0])

"""Mappings→OHM tests: Figure 9 template instantiation + pruning, the
SPLIT/UNION assembly, FastTrack placeholders."""

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.deploy import deploy_to_job
from repro.errors import MappingError
from repro.etl import EtlEngine
from repro.expr.ast import TRUE
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    ohm_to_mappings,
)
from repro.mapping.to_ohm import mappings_to_ohm
from repro.ohm import OhmExecutor
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


@pytest.fixture
def customers():
    return relation(
        "Customers", ("customerID", "int", False), ("name", "varchar"),
        ("age", "int"),
    )


@pytest.fixture
def accounts():
    return relation(
        "Accounts", ("customerID", "int", False),
        ("balance", "float", False), ("type", "varchar"),
    )


@pytest.fixture
def instance(customers, accounts):
    return Instance(
        [
            Dataset(customers, [
                {"customerID": 1, "name": "ada", "age": 25},
                {"customerID": 2, "name": "ben", "age": 65},
            ]),
            Dataset(accounts, [
                {"customerID": 1, "balance": 10.0, "type": "S"},
                {"customerID": 1, "balance": 20.0, "type": "L"},
                {"customerID": 2, "balance": 30.0, "type": "S"},
            ]),
        ]
    )


def processing_kinds(graph):
    return [k for k in graph.kinds_in_order() if k not in ("SOURCE", "TARGET")]


def check(mappings, instance):
    """The lowered graph computes what the reference reading of the
    mappings does (``compiled=False`` never sees the graph)."""
    graph = mappings_to_ohm(mappings)
    expected = MappingExecutor(compiled=False).execute(mappings, instance)
    assert sum(len(d) for d in expected) > 0
    assert OhmExecutor().execute(graph, instance).same_bags(expected)
    return graph


class TestTemplatePruning:
    def test_projection_only_mapping(self, customers, instance):
        target = relation("Out", ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [("name", "c.name")]
        )
        graph = check(MappingSet([mapping]), instance)
        # JOIN/GROUP/FILTER pruned away; only the projection remains
        assert processing_kinds(graph) == ["BASIC PROJECT"]

    def test_filter_only_mapping(self, customers, instance):
        # M2's shape: "the simple DSLink10 -> FILTER -> BASIC PROJECT ->
        # BigCustomers flow"
        target = relation("Out", ("customerID", "int"), ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target,
            [("customerID", "c.customerID"), ("name", "c.name")],
            where="c.age > 30",
        )
        graph = check(MappingSet([mapping]), instance)
        assert processing_kinds(graph) == ["FILTER", "BASIC PROJECT"]

    def test_complex_derivation_uses_general_project(self, customers, instance):
        target = relation("Out", ("shout", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target,
            [("shout", "UPPER(c.name)")],
        )
        graph = check(MappingSet([mapping]), instance)
        assert "PROJECT" in processing_kinds(graph)

    def test_join_mapping(self, customers, accounts, instance):
        target = relation("Out", ("name", "varchar"), ("balance", "float"))
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts)],
            target,
            [("name", "c.name"), ("balance", "a.balance")],
            where="c.customerID = a.customerID AND a.type = 'S'",
        )
        graph = check(MappingSet([mapping]), instance)
        kinds = processing_kinds(graph)
        assert "JOIN" in kinds
        assert "FILTER" in kinds  # the single-source predicate on a
        # the join condition was placed on the JOIN operator
        (join,) = graph.operators_of_kind("JOIN")
        assert "customerID" in join.condition.to_sql()

    def test_grouping_mapping(self, customers, accounts, instance):
        target = relation(
            "Out", ("customerID", "int"), ("total", "float")
        )
        mapping = Mapping(
            [SourceBinding("a", accounts)], target,
            [("customerID", "a.customerID"), ("total", "SUM(a.balance)")],
            group_by=["a.customerID"],
        )
        graph = check(MappingSet([mapping]), instance)
        assert "GROUP" in processing_kinds(graph)

    def test_three_way_join(self, customers, accounts, instance):
        extra = relation("Extra", ("customerID", "int", False),
                         ("flag", "varchar"))
        instance.add(Dataset(extra, [
            {"customerID": 1, "flag": "y"},
            {"customerID": 2, "flag": "n"},
        ]))
        target = relation("Out", ("name", "varchar"), ("flag", "varchar"),
                          ("balance", "float"))
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts),
             SourceBinding("e", extra)],
            target,
            [("name", "c.name"), ("flag", "e.flag"),
             ("balance", "a.balance")],
            where="c.customerID = a.customerID AND "
                  "c.customerID = e.customerID",
        )
        graph = check(MappingSet([mapping]), instance)
        assert processing_kinds(graph).count("JOIN") == 2


class TestTotalOverWhatTheReferenceReads:
    """Shapes the reference reading accepts and the template has no
    slot for as written: the lowering adds what is missing, and only
    then."""

    def test_underived_target_columns_are_null_and_deploy(self, customers, instance):
        target = relation("Out", ("name", "varchar"), ("extra", "int"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [("name", "c.name")]
        )
        graph = check(MappingSet([mapping]), instance)
        # the assembling PROJECT emits the NULL: no extra operator
        assert processing_kinds(graph) == ["PROJECT"]
        job, _plan = deploy_to_job(graph)
        rows = EtlEngine().execute(job, instance).dataset("Out").rows
        assert sorted(r["name"] for r in rows) == ["ada", "ben"]
        assert all(r["extra"] is None for r in rows)

    def test_scalar_over_aggregates_is_a_project_after_the_group(
        self, accounts, instance
    ):
        target = relation(
            "Out", ("customerID", "int"), ("mean", "float"), ("n", "int"),
            ("note", "varchar"),
        )
        mapping = Mapping(
            [SourceBinding("a", accounts)], target,
            [("customerID", "a.customerID"),
             ("mean", "SUM(a.balance) / COUNT(*) + a.customerID"),
             ("n", "COUNT(*)")],
            group_by=["a.customerID"],
        )
        graph = check(MappingSet([mapping]), instance)
        assert processing_kinds(graph) == ["BASIC PROJECT", "GROUP", "PROJECT"]
        (group,) = graph.operators_of_kind("GROUP")
        # one generated column per distinct aggregate call of the scalar
        assert [name for name, _agg in group.aggregates] == [
            "__agg1", "__agg2", "n",
        ]
        job, _plan = deploy_to_job(graph)
        assert EtlEngine().execute(job, instance).same_bags(
            OhmExecutor().execute(graph, instance)
        )

    def test_a_column_neither_grouped_nor_aggregated_is_refused(self, accounts):
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            relation("Out", ("customerID", "int"), ("x", "float")),
            [("customerID", "a.customerID"), ("x", "SUM(a.balance) + a.balance")],
            group_by=["a.customerID"],
        )
        with pytest.raises(MappingError, match="neither grouped nor aggregated"):
            mappings_to_ohm(MappingSet([mapping]))

    def test_group_by_expression_no_derivation_carries(self, accounts, instance):
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            relation("Out", ("total", "float")),
            [("total", "SUM(a.balance)")],
            group_by=["a.customerID"],
        )
        graph = check(MappingSet([mapping]), instance)
        assert len(OhmExecutor().execute(graph, instance).dataset("Out")) == 2
        assert processing_kinds(graph) == [
            "BASIC PROJECT", "GROUP", "BASIC PROJECT",
        ]

    def test_unqualified_columns_in_a_join(self, customers, accounts, instance):
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts)],
            relation("Out", ("name", "varchar"), ("balance", "float")),
            [("name", "name"), ("balance", "balance")],
            where="c.customerID = a.customerID AND age > 30 AND type = 'S'",
        )
        graph = check(MappingSet([mapping]), instance)
        assert processing_kinds(graph).count("FILTER") == 2


class TestLoweringIsAFunctionOfItsInput:
    def test_two_lowerings_name_operators_and_edges_alike(self):
        mappings = ohm_to_mappings(compile_job(build_example_job()))
        first, second = mappings_to_ohm(mappings), mappings_to_ohm(mappings)
        assert [op.uid for op in first.operators] == [
            op.uid for op in second.operators
        ]
        assert [e.name for e in first.edges] == [e.name for e in second.edges]

    def test_names_come_from_the_mapping_or_the_relation(self, customers, accounts):
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts)],
            relation("T", ("name", "varchar"), ("balance", "float")),
            [("name", "c.name"), ("balance", "a.balance")],
            where="c.customerID = a.customerID AND a.type = 'S'", name="M7",
        )
        graph = mappings_to_ohm(MappingSet([mapping]))
        names = [op.uid for op in graph.operators] + [e.name for e in graph.edges]
        relations = ("Customers", "Accounts", "T")
        assert all(
            name.startswith("M7.") or name.split(".")[0] in relations
            for name in names
        )
        assert "M7.join7" in names and "Customers.source" in names


class TestAssembly:
    def test_shared_output_gets_split(self, customers, instance):
        mid = relation("Mid", ("customerID", "int"), ("name", "varchar"))
        m1 = Mapping(
            [SourceBinding("c", customers)], mid,
            [("customerID", "c.customerID"), ("name", "c.name")], name="M1",
        )
        m2 = Mapping(
            [SourceBinding("d", mid)], relation("A", ("name", "varchar")),
            [("name", "d.name")], where="d.customerID = 1", name="M2",
        )
        m3 = Mapping(
            [SourceBinding("d", mid)], relation("B", ("name", "varchar")),
            [("name", "d.name")], where="d.customerID = 2", name="M3",
        )
        graph = check(MappingSet([m1, m2, m3]), instance)
        assert len(graph.operators_of_kind("SPLIT")) == 1

    def test_shared_target_gets_union(self, customers, instance):
        target = relation("T", ("name", "varchar"))
        a = Mapping([SourceBinding("c", customers)], target,
                    [("name", "c.name")], where="c.customerID = 1", name="A")
        b = Mapping([SourceBinding("c", customers)], target,
                    [("name", "c.name")], where="c.customerID = 2", name="B")
        graph = check(MappingSet([a, b]), instance)
        assert len(graph.operators_of_kind("UNION")) == 1
        # the shared base relation also needs a SPLIT
        assert len(graph.operators_of_kind("SPLIT")) == 1

    def test_opaque_mapping_becomes_unknown(self, customers, instance):
        target = relation("T", ("name", "varchar"))
        opaque = Mapping(
            [SourceBinding("c", customers)], target, [],
            reference="blackbox",
            executor=lambda inputs: [
                {"name": r["name"]} for r in inputs[0]
            ],
        )
        graph = check(MappingSet([opaque]), instance)
        assert processing_kinds(graph) == ["UNKNOWN"]


class TestFastTrackPlaceholders:
    def test_missing_join_predicate_marks_placeholder(self, customers, accounts):
        # "FastTrack ... detects that the mapping requires a join and
        # creates an empty join operation (no join predicate is created)"
        target = relation("T", ("name", "varchar"), ("balance", "float"))
        mapping = Mapping(
            [SourceBinding("c", customers), SourceBinding("a", accounts)],
            target,
            [("name", "c.name"), ("balance", "a.balance")],
        )
        graph = mappings_to_ohm(MappingSet([mapping]))
        (join,) = graph.operators_of_kind("JOIN")
        assert join.condition == TRUE
        assert "placeholder" in join.annotations

    def test_annotations_propagate_to_operators(self, customers):
        target = relation("T", ("name", "varchar"))
        mapping = Mapping(
            [SourceBinding("c", customers)], target, [("name", "c.name")],
            where="c.age > 30",
            annotations={"rule": "only adults, per compliance"},
        )
        graph = mappings_to_ohm(MappingSet([mapping]))
        annotated = [
            op for op in graph.operators if "rule" in op.annotations
        ]
        assert annotated  # the business rule landed on operators


class TestRoundTripShape:
    def test_example_round_trip_restores_figure5_shape(self):
        # "The resulting OHM for this simple example has (not
        # surprisingly) the same shape as the one created from the ETL job"
        job = build_example_job()
        forward = compile_job(job)
        mappings = ohm_to_mappings(forward)
        backward = mappings_to_ohm(mappings)
        assert sorted(processing_kinds(backward)) == sorted(
            processing_kinds(forward)
        )
        instance = generate_instance(40)
        assert OhmExecutor().execute(backward, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

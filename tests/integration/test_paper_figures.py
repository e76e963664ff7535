"""End-to-end assertions for every figure of the paper's worked example.

Each test class corresponds to one figure/scenario; see ARCHITECTURE.md's
experiment index. The benchmarks regenerate the same artifacts with
timings; these tests pin the exact structures.
"""

import pytest

from repro.compile import compile_job
from repro.deploy import DATASTAGE, deploy_to_job, plan_deployment, plan_pushdown
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.mapping.to_ohm import mappings_to_ohm
from repro.ohm import OhmExecutor
from repro.workloads import build_example_job, generate_instance


@pytest.fixture(scope="module")
def instance():
    return generate_instance(100)


@pytest.fixture(scope="module")
def etl_result(instance):
    return EtlEngine().execute(build_example_job(), instance)


class TestFigure3ExampleJob:
    def test_stage_inventory(self):
        job = build_example_job()
        types = sorted(s.STAGE_TYPE for s in job.stages)
        assert types == sorted([
            "TableSource", "TableSource", "Transformer", "Filter", "Join",
            "Aggregator", "Filter", "TableTarget", "TableTarget",
        ])

    def test_named_links_match_paper(self):
        job = build_example_job()
        names = {l.name for l in job.links}
        assert {"DSLink5", "DSLink10"} <= names  # the paper names these

    def test_job_partitions_customers(self, instance, etl_result):
        big = etl_result.dataset("BigCustomers")
        other = etl_result.dataset("OtherCustomers")
        assert len(big) > 0 and len(other) > 0
        assert all(r["totalBalance"] > 100000 for r in big)
        assert all(r["totalBalance"] <= 100000 for r in other)


class TestFigure5OhmInstance:
    EXPECTED_KINDS = [
        "PROJECT",            # Prepare Customers
        "FILTER",             # NonLoans predicate
        "BASIC PROJECT",      # NonLoans projection
        "JOIN",               # Join
        "BASIC PROJECT",      # drop the duplicate customerID
        "GROUP",              # Compute Total Balance
        "SPLIT",              # the final Filter fans out
        "FILTER",             # > 100000
        "FILTER",             # the negated predicate
    ]

    @pytest.fixture(scope="class")
    def graph(self):
        return compile_job(build_example_job())

    def test_operator_multiset_matches_figure5(self, graph):
        processing = [
            k for k in graph.kinds_in_order() if k not in ("SOURCE", "TARGET")
        ]
        assert sorted(processing) == sorted(self.EXPECTED_KINDS)

    def test_join_followed_by_basic_project(self, graph):
        (join,) = graph.operators_of_kind("JOIN")
        (successor,) = graph.successors(join.uid)
        assert successor.KIND == "BASIC PROJECT"
        # "only one customerid column is needed from this point on"
        out_schema = graph.out_edges(successor.uid)[0].schema
        assert out_schema.attribute_names.count("customerID") == 1

    def test_split_branch_predicates(self, graph):
        (split,) = graph.operators_of_kind("SPLIT")
        branch_filters = graph.successors(split.uid)
        conditions = sorted(f.condition.to_sql() for f in branch_filters)
        assert conditions == [
            "(totalBalance <= 100000)",   # the negated predicate branch
            "(totalBalance > 100000)",
        ]

    def test_edge_dslink10_before_split(self, graph):
        (split,) = graph.operators_of_kind("SPLIT")
        (in_edge,) = graph.in_edges(split.uid)
        assert in_edge.name == "DSLink10"

    def test_compiled_graph_semantics(self, graph, instance, etl_result):
        assert OhmExecutor().execute(graph, instance).same_bags(etl_result)


class TestFigures7And8Mappings:
    @pytest.fixture(scope="class")
    def mappings(self):
        return ohm_to_mappings(compile_job(build_example_job()))

    def test_exactly_three_mappings(self, mappings):
        assert mappings.names == ["M1", "M2", "M3"]

    def test_materialization_point_is_dslink10(self, mappings):
        assert mappings.intermediate_relation_names() == ["DSLink10"]

    def test_m1_holds_join_filter_and_grouping(self, mappings):
        m1 = mappings.by_name("M1")
        assert sorted(m1.source_relation_names) == ["Accounts", "Customers"]
        assert m1.target.name == "DSLink10"
        conjuncts = {c.to_sql() for c in m1.where_conjuncts()}
        assert "(a.type <> 'L')" in conjuncts
        assert "(c.customerID = a.customerID)" in conjuncts
        assert m1.is_grouping
        derived = dict(m1.derivations)
        assert derived["totalBalance"].to_sql() == "SUM(a.balance)"
        # "The long expressions on the body of M1 are the transformation
        # functions used to compute the values of agegroup, enddate, ..."
        assert "CASE WHEN" in derived["agegroup"].to_sql()
        assert "ADD_DAYS" in derived["endDate"].to_sql()
        assert "YEARS_BETWEEN" in derived["years"].to_sql()

    def test_m2_m3_route_on_total_balance(self, mappings):
        m2, m3 = mappings.by_name("M2"), mappings.by_name("M3")
        assert m2.source_relation_names == ["DSLink10"]
        assert m3.source_relation_names == ["DSLink10"]
        assert {m2.target.name, m3.target.name} == {
            "BigCustomers", "OtherCustomers",
        }
        big = m2 if m2.target.name == "BigCustomers" else m3
        other = m3 if big is m2 else m2
        assert big.where.to_sql() == "(d1.totalBalance > 100000)"
        assert other.where.to_sql() == "(d2.totalBalance <= 100000)"

    def test_mappings_execute_like_the_job(self, mappings, instance, etl_result):
        assert MappingExecutor().execute(mappings, instance).same_bags(etl_result)

    def test_dslink10_contents_match_the_link(self, mappings, instance):
        # the intermediate relation is exactly the data on the ETL link
        intermediates = MappingExecutor().run(
            mappings, instance, keep=["DSLink10"]
        ).edges
        links = EtlEngine().run(
            build_example_job(), instance, keep=["DSLink10"]
        ).edges
        assert intermediates["DSLink10"].same_bag(links["DSLink10"])


class TestUnknownOperatorScenario:
    """Section V-B: a custom operator right after the Join."""

    @pytest.fixture(scope="class")
    def mappings(self):
        return ohm_to_mappings(
            compile_job(build_example_job(custom_after_join=True))
        )

    def test_five_mappings(self, mappings):
        assert len(mappings) == 5

    def test_structure_matches_paper(self, mappings):
        ordered = mappings.in_dependency_order()
        # sources -> DSLink5 (no grouping), DSLink5 -> custom output
        # (opaque), custom output -> DSLink10 (the grouping), then the
        # two target mappings
        first = ordered[0]
        assert first.target.name == "DSLink5"
        assert not first.is_grouping
        opaque = [m for m in ordered if m.is_opaque]
        assert len(opaque) == 1
        assert opaque[0].source_relation_names == ["DSLink5"]
        assert opaque[0].reference == "AuditBalances"
        grouping = [m for m in ordered if m.is_grouping]
        assert len(grouping) == 1
        assert grouping[0].target.name == "DSLink10"
        targets = {m.target.name for m in ordered[-2:]}
        assert targets == {"BigCustomers", "OtherCustomers"}

    def test_opaque_mapping_records_no_transformation(self, mappings):
        (opaque,) = [m for m in mappings if m.is_opaque]
        assert opaque.derivations == []
        assert opaque.where.to_sql() == "TRUE"

    def test_executable_because_behaviour_was_carried(self, mappings, instance):
        job = build_example_job(custom_after_join=True)
        assert MappingExecutor().execute(mappings, instance).same_bags(
            EtlEngine().execute(job, instance)
        )


class TestFigure9ReverseDirection:
    def test_round_trip_reproduces_figure5_shape(self, instance, etl_result):
        forward = compile_job(build_example_job())
        backward = mappings_to_ohm(ohm_to_mappings(forward))

        def shape(graph):
            return sorted(
                k for k in graph.kinds_in_order()
                if k not in ("SOURCE", "TARGET")
            )

        assert shape(backward) == shape(forward)
        assert OhmExecutor().execute(backward, instance).same_bags(etl_result)

    def test_m2_compiles_to_filter_basic_project(self):
        # "resulting in the simple DSLink10 -> FILTER -> BASIC PROJECT ->
        # BigCustomers flow"
        mappings = ohm_to_mappings(compile_job(build_example_job()))
        m2 = mappings.by_name("M2")
        from repro.mapping.model import MappingSet

        graph = mappings_to_ohm(MappingSet([m2]), cleanup=False)
        kinds = [
            k for k in graph.kinds_in_order() if k not in ("SOURCE", "TARGET")
        ]
        assert kinds == ["FILTER", "BASIC PROJECT"]


class TestFigure10Deployment:
    def test_plan_and_redeployed_job(self, instance, etl_result):
        graph = compile_job(build_example_job())
        job, plan = deploy_to_job(graph)
        assert len(plan.boxes) == 5
        types = sorted(s.STAGE_TYPE for s in job.stages)
        assert types == sorted([
            "TableSource", "TableSource", "Transformer", "Filter", "Join",
            "Aggregator", "Filter", "TableTarget", "TableTarget",
        ])
        assert EtlEngine().execute(job, instance).same_bags(etl_result)

    def test_filter_chosen_over_transformer(self):
        # "In both cases, a Filter stage would be the natural choice"
        graph = compile_job(build_example_job())
        plan = plan_deployment(graph, DATASTAGE)
        filter_boxes = [
            box for box in plan.boxes
            if {plan.graph.operator(u).KIND for u in box.uids}
            in ({"FILTER", "BASIC PROJECT"}, {"SPLIT", "FILTER"})
        ]
        assert filter_boxes
        for box in filter_boxes:
            assert box.chosen.name == "Filter"
            assert "Transformer" in [c.name for c in box.candidates]


class TestPushdownScenario:
    def test_hybrid_sql_plus_etl(self, instance, etl_result):
        graph = compile_job(build_example_job())
        hybrid = plan_pushdown(graph)
        assert list(hybrid.statements) == ["DSLink10"]
        assert "GROUP BY" in hybrid.statements["DSLink10"]
        assert hybrid.execute(instance).same_bags(etl_result)


class TestRoundTripping:
    def test_etl_mappings_etl(self, instance, etl_result):
        from repro.fasttrack import Orchid

        regenerated, _mappings = Orchid().round_trip_etl(build_example_job())
        assert EtlEngine().execute(regenerated, instance).same_bags(etl_result)

    def test_intermediate_edge_data_matches_at_dslink10(self, instance):
        graph = compile_job(build_example_job())
        edges = OhmExecutor().run(graph, instance, keep=["DSLink10"]).edges
        links = EtlEngine().run(
            build_example_job(), instance, keep=["DSLink10"]
        ).edges
        assert edges["DSLink10"].same_bag(links["DSLink10"])

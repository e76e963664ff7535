"""Pushdown analysis tests: the hybrid SQL + ETL deployment of §VI-B."""

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.deploy import plan_pushdown
from repro.errors import DeploymentError
from repro.etl import EtlEngine
from repro.ohm import (
    Filter, OhmExecutor, OhmGraph, Project, Source, Target, Unnest,
)
from repro.schema import relation
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, RecordType, SetType
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)


class TestExampleScenario:
    @pytest.fixture
    def hybrid(self):
        return plan_pushdown(compile_job(build_example_job()))

    def test_pushes_up_to_and_including_group(self):
        # "Orchid identifies the operators up to and including the GROUP
        # operator as operators to be pushed into the DBMS"
        graph = compile_job(build_example_job())
        hybrid = plan_pushdown(graph)
        pushed_kinds = sorted(
            graph.operator(uid).KIND
            for uid in hybrid.pushed_operator_uids
        )
        assert "GROUP" in pushed_kinds
        assert "JOIN" in pushed_kinds
        assert "SPLIT" not in pushed_kinds

    def test_single_statement_at_dslink10(self, hybrid):
        assert list(hybrid.statements) == ["DSLink10"]
        sql = hybrid.statements["DSLink10"]
        assert sql.count("SELECT") == 1
        assert "GROUP BY" in sql
        assert '"Customers"' in sql and '"Accounts"' in sql

    def test_residual_job_is_the_final_filter(self, hybrid):
        types = sorted(s.STAGE_TYPE for s in hybrid.job.stages)
        assert types == [
            "Filter", "TableSource", "TableTarget", "TableTarget",
        ]

    def test_hybrid_execution_matches_pure_etl(self, hybrid):
        instance = generate_instance(60)
        pure = EtlEngine().execute(build_example_job(), instance)
        assert hybrid.execute(instance).same_bags(pure)

    def test_describe_shows_sql_and_job(self, hybrid):
        text = hybrid.describe()
        assert "DSLink10" in text and "SELECT" in text
        assert "residual ETL job" in text


class TestPushabilityRules:
    def test_unsupported_function_blocks_pushing(self):
        from repro.expr.functions import DEFAULT_REGISTRY, register
        from repro.schema.types import INTEGER

        if not DEFAULT_REGISTRY.knows("HOST_LANG_FN"):
            register("HOST_LANG_FN", lambda x: x, INTEGER, 1)
        rel = relation("R", ("id", "int", False), ("v", "float", False))
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("v > 0"))
        p = g.add(Project([("id", "HOST_LANG_FN(id)")]))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.chain(s, f, p, t, names=["a", "Cut", "b"])
        hybrid = plan_pushdown(g)
        # the filter is pushed, the opaque-function project is not
        assert list(hybrid.statements) == ["Cut"]
        assert any(
            s.STAGE_TYPE == "Transformer" for s in hybrid.job.stages
        )

    def test_fully_pushable_graph_cuts_before_target(self):
        rel = relation("R", ("id", "int", False), ("v", "float", False))
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("v > 0"))
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, f, t, names=["a", "final"])
        hybrid = plan_pushdown(g)
        assert list(hybrid.statements) == ["final"]
        # the residual job only loads the query result
        assert sorted(s.STAGE_TYPE for s in hybrid.job.stages) == [
            "TableSource", "TableTarget",
        ]

    def test_nested_source_stays_in_the_engine(self):
        """A DBMS table holds scalars: a source with a set-valued column
        is not pushed, and the flat branch beside it still is."""
        flat = relation("R", ("id", "int", False), ("v", "int", False))
        nested = Relation("N", [
            Attribute("oid", INTEGER, nullable=False),
            Attribute("items", SetType(RecordType(
                [("sku", INTEGER), ("qty", INTEGER)]
            )), nullable=False),
        ])
        g = OhmGraph()
        g.chain(
            g.add(Source(flat)), g.add(Filter("v > 1")),
            g.add(Target(flat.renamed("Out"))), names=["r", "kept"],
        )
        g.chain(
            g.add(Source(nested)), g.add(Unnest("items")),
            g.add(Target(relation(
                "Lines", ("oid", "int"), ("sku", "int"), ("qty", "int")
            ))),
            names=["n", "lines"],
        )
        hybrid = plan_pushdown(g)
        assert list(hybrid.statements) == ["kept"]
        assert hybrid.loaded == ("R",)
        instance = Instance([
            Dataset(flat, [{"id": i, "v": i} for i in range(4)]),
            Dataset(nested, [
                {"oid": 1, "items": [{"sku": 7, "qty": 2},
                                     {"sku": 8, "qty": 1}]},
                {"oid": 2, "items": []},
            ]),
        ])
        assert hybrid.execute(instance).same_bags(
            OhmExecutor().execute(g, instance)
        )

    def test_nothing_pushable_raises(self):
        rel = relation("R", ("id", "int", False))
        g = OhmGraph()
        s = g.add(Source(rel, provider=lambda: None))  # generated source
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, t)
        with pytest.raises(DeploymentError):
            plan_pushdown(g)


class TestHybridEquivalence:
    @pytest.mark.parametrize(
        "builder,instance_builder",
        [
            (lambda: build_chain_job(10), lambda: generate_chain_instance(80)),
            (lambda: build_fanout_job(3), lambda: generate_chain_instance(80)),
            (lambda: build_star_join_job(2),
             lambda: generate_star_instance(2, 120)),
            (lambda: build_example_job(custom_after_join=True),
             lambda: generate_instance(40)),
        ],
    )
    def test_hybrid_equals_pure_etl(self, builder, instance_builder):
        job = builder()
        graph = compile_job(job)
        hybrid = plan_pushdown(graph)
        instance = instance_builder()
        assert hybrid.execute(instance).same_bags(EtlEngine().execute(job, instance))

"""Per-stage compiler tests: every stage type compiles to the documented
OHM shape AND the compiled graph computes the same result as the stage
(ETL engine vs OHM engine)."""

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.etl import (
    AggregatorStage,
    CopyStage,
    CustomStage,
    EtlEngine,
    FilterOutput,
    FilterStage,
    FunnelStage,
    Job,
    JoinStage,
    LookupStage,
    Modify,
    PeekStage,
    RemoveDuplicatesStage,
    RowGenerator,
    SortStage,
    SurrogateKey,
    SwitchStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.ohm import OhmExecutor, reset_keygen_sequences
from repro.schema import relation


@pytest.fixture
def rel():
    return relation(
        "R", ("id", "int", False), ("v", "float"), ("kind", "varchar")
    )


@pytest.fixture
def instance(rel):
    return Instance(
        [
            Dataset(
                rel,
                [
                    {"id": 1, "v": 5.0, "kind": "a"},
                    {"id": 2, "v": 15.0, "kind": "b"},
                    {"id": 3, "v": 25.0, "kind": "a"},
                    {"id": 4, "v": None, "kind": None},
                    {"id": 5, "v": 15.0, "kind": "a"},
                ],
            )
        ]
    )


def single_stage_job(rel, stage, out_rel, n_outputs=1):
    job = Job(f"single_{stage.STAGE_TYPE}")
    src = job.add(TableSource(rel))
    job.add(stage)
    job.link(src, stage)
    for i in range(n_outputs):
        tgt = job.add(TableTarget(out_rel.renamed(f"Out{i}")))
        job.link(stage, tgt, src_port=i)
    return job


def assert_equivalent(job, instance, raw_kinds=None, clean_kinds=None):
    raw = compile_job(job, cleanup=False)
    if raw_kinds is not None:
        processing = [
            k for k in raw.kinds_in_order() if k not in ("SOURCE", "TARGET")
        ]
        assert processing == raw_kinds
    graph = compile_job(job)
    if clean_kinds is not None:
        processing = [
            k for k in graph.kinds_in_order() if k not in ("SOURCE", "TARGET")
        ]
        assert processing == clean_kinds
    assert OhmExecutor().execute(graph, instance).same_bags(
        EtlEngine().execute(job, instance)
    )
    return graph


class TestFilterCompiler:
    def test_single_output_is_bare_filter(self, rel, instance):
        job = single_stage_job(rel, FilterStage.single("v > 10"), rel)
        assert_equivalent(job, instance, clean_kinds=["FILTER"])

    def test_projection_adds_basic_project(self, rel, instance):
        stage = FilterStage(
            [FilterOutput("v > 10", columns=[("id", "id"), ("v", "v")])]
        )
        out = relation("O", ("id", "int"), ("v", "float"))
        job = single_stage_job(rel, stage, out)
        assert_equivalent(
            job, instance, raw_kinds=["FILTER", "BASIC PROJECT"]
        )

    def test_multi_output_figure6_shape(self, rel, instance):
        stage = FilterStage(
            [FilterOutput("v > 10"), FilterOutput("kind = 'a'")]
        )
        job = single_stage_job(rel, stage, rel, n_outputs=2)
        assert_equivalent(
            job, instance, raw_kinds=["SPLIT", "FILTER", "FILTER"]
        )

    def test_row_only_once_negates_earlier_predicates(self, rel, instance):
        stage = FilterStage(
            [FilterOutput("v > 10"), FilterOutput("kind = 'a'")],
            row_only_once=True,
        )
        job = single_stage_job(rel, stage, rel, n_outputs=2)
        graph = assert_equivalent(job, instance)
        filters = graph.operators_of_kind("FILTER")
        rendered = sorted(f.condition.to_sql() for f in filters)
        # v is nullable here, so the negation of the earlier predicate is
        # the null-safe form (a NULL row must not satisfy either output)
        assert rendered[0] == (
            "(((v <= 10) OR ((v > 10) IS NULL)) AND (kind = 'a'))"
        )

    def test_row_only_once_plain_negation_when_not_nullable(self, instance):
        non_null = relation(
            "R", ("id", "int", False), ("v", "float", False),
            ("kind", "varchar"),
        )
        stage = FilterStage(
            [FilterOutput("v > 10"), FilterOutput("kind = 'a'")],
            row_only_once=True,
        )
        job = single_stage_job(non_null, stage, non_null, n_outputs=2)
        graph = compile_job(job)
        filters = graph.operators_of_kind("FILTER")
        rendered = sorted(f.condition.to_sql() for f in filters)
        assert rendered[0] == "((v <= 10) AND (kind = 'a'))"

    def test_reject_output_gets_all_negations(self, rel, instance):
        stage = FilterStage(
            [FilterOutput("v > 10"), FilterOutput(reject=True)]
        )
        job = single_stage_job(rel, stage, rel, n_outputs=2)
        graph = assert_equivalent(job, instance)
        filters = graph.operators_of_kind("FILTER")
        assert "((v <= 10) OR ((v > 10) IS NULL))" in [
            f.condition.to_sql() for f in filters
        ]


class TestTransformerCompiler:
    def test_plain_derivations_become_project(self, rel, instance):
        stage = Transformer.single([("id", "id"), ("vv", "v * 2")])
        out = relation("O", ("id", "int"), ("vv", "float"))
        job = single_stage_job(rel, stage, out)
        assert_equivalent(job, instance, clean_kinds=["PROJECT"])

    def test_constraint_becomes_filter(self, rel, instance):
        stage = Transformer.single([("id", "id")], constraint="v > 10")
        out = relation("O", ("id", "int"))
        job = single_stage_job(rel, stage, out)
        assert_equivalent(job, instance, raw_kinds=["FILTER", "PROJECT"])

    def test_stage_variables_expand(self, rel, instance):
        stage = Transformer(
            [OutputLink([("id", "id"), ("b", "bucket + 1")])],
            stage_variables=[("bucket", "id * 10")],
        )
        out = relation("O", ("id", "int"), ("b", "int"))
        job = single_stage_job(rel, stage, out)
        graph = assert_equivalent(job, instance)
        (project,) = graph.operators_of_kind("PROJECT")
        assert dict(project.derivations)["b"].to_sql() == "((id * 10) + 1)"

    def test_otherwise_link(self, rel, instance):
        stage = Transformer(
            [
                OutputLink([("id", "id")], constraint="v > 10"),
                OutputLink([("id", "id")], otherwise=True),
            ]
        )
        out = relation("O", ("id", "int"))
        job = single_stage_job(rel, stage, out, n_outputs=2)
        assert_equivalent(job, instance)


class TestRoutingCompilers:
    def test_switch(self, rel, instance):
        stage = SwitchStage("kind", cases=["a", "b"], has_default=True)
        job = single_stage_job(rel, stage, rel, n_outputs=3)
        assert_equivalent(job, instance)

    def test_copy(self, rel, instance):
        stage = CopyStage(keep_columns=[None, ["id"]])
        job = Job("copytest")
        src = job.add(TableSource(rel))
        job.add(stage)
        job.link(src, stage)
        t0 = job.add(TableTarget(rel.renamed("Out0")))
        t1 = job.add(TableTarget(relation("Out1", ("id", "int"))))
        job.link(stage, t0, src_port=0)
        job.link(stage, t1, src_port=1)
        assert_equivalent(job, instance)


class TestJoinCompilers:
    def _two_source_job(self, stage, out_rel):
        left = relation("L", ("id", "int", False), ("v", "float"))
        right = relation("Rt", ("id", "int", False), ("w", "float"))
        job = Job("joins")
        s1 = job.add(TableSource(left))
        s2 = job.add(TableSource(right))
        job.add(stage)
        job.link(s1, stage)
        job.link(s2, stage, dst_port=1)
        tgt = job.add(TableTarget(out_rel))
        job.link(stage, tgt)
        instance = Instance(
            [
                Dataset(left, [{"id": 1, "v": 1.0}, {"id": 2, "v": 2.0}]),
                Dataset(right, [{"id": 1, "w": 9.0}, {"id": 3, "w": 8.0}]),
            ]
        )
        return job, instance

    def test_keys_join_compiles_to_join_plus_project(self):
        out = relation("O", ("id", "int"), ("v", "float"), ("w", "float"))
        job, instance = self._two_source_job(
            JoinStage(keys=[("id", "id")]), out
        )
        raw = compile_job(job, cleanup=False)
        kinds = [k for k in raw.kinds_in_order()
                 if k not in ("SOURCE", "TARGET")]
        assert kinds == ["JOIN", "BASIC PROJECT"]
        assert OhmExecutor().execute(raw, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    def test_left_join(self):
        out = relation("O", ("id", "int"), ("v", "float"), ("w", "float"))
        job, instance = self._two_source_job(
            JoinStage(keys=[("id", "id")], join_type="left"), out
        )
        assert_equivalent(job, instance)

    def test_lookup_continue(self):
        out = relation("O", ("id", "int"), ("v", "float"), ("w", "float"))
        job, instance = self._two_source_job(
            LookupStage(keys=[("id", "id")]), out
        )
        graph = assert_equivalent(job, instance)
        (join,) = graph.operators_of_kind("JOIN")
        assert join.kind == "left"

    def test_lookup_drop(self):
        out = relation("O", ("id", "int"), ("v", "float"), ("w", "float"))
        job, instance = self._two_source_job(
            LookupStage(keys=[("id", "id")], on_failure="drop"), out
        )
        graph = assert_equivalent(job, instance)
        (join,) = graph.operators_of_kind("JOIN")
        assert join.kind == "inner"

    def test_funnel(self, rel):
        other = rel.renamed("R2")
        job = Job("funnel")
        s1 = job.add(TableSource(rel))
        s2 = job.add(TableSource(other))
        funnel = job.add(FunnelStage())
        tgt = job.add(TableTarget(rel.renamed("Out")))
        job.link(s1, funnel)
        job.link(s2, funnel, dst_port=1)
        job.link(funnel, tgt)
        rows = [{"id": 1, "v": 1.0, "kind": "x"}]
        instance = Instance([Dataset(rel, rows), Dataset(other, rows)])
        graph = assert_equivalent(job, instance)
        assert len(graph.operators_of_kind("UNION")) == 1


class TestGroupingCompilers:
    def test_aggregator_becomes_group(self, rel, instance):
        stage = AggregatorStage(["kind"], [("total", "sum", "v")])
        out = relation("O", ("kind", "varchar"), ("total", "float"))
        job = single_stage_job(rel, stage, out)
        assert_equivalent(job, instance, clean_kinds=["GROUP"])

    def test_remove_duplicates_becomes_group_with_first(self, rel, instance):
        stage = RemoveDuplicatesStage(["kind"])
        job = single_stage_job(rel, stage, rel)
        graph = assert_equivalent(job, instance, clean_kinds=["GROUP"])
        (group,) = graph.operators_of_kind("GROUP")
        assert all(agg.func == "FIRST" for _c, agg in group.aggregates)

    def test_remove_duplicates_last(self, rel, instance):
        stage = RemoveDuplicatesStage(["kind"], retain="last")
        job = single_stage_job(rel, stage, rel)
        assert_equivalent(job, instance)


class TestColumnSurgeryCompilers:
    def test_modify_becomes_basic_project(self, rel, instance):
        stage = Modify(keep=["id", "v"], rename={"value": "v"})
        out = relation("O", ("id", "int"), ("value", "float"))
        job = single_stage_job(rel, stage, out)
        assert_equivalent(job, instance, clean_kinds=["BASIC PROJECT"])

    def test_modify_with_conversion_becomes_project(self, rel, instance):
        stage = Modify(keep=["id"], convert={"id": "varchar"})
        out = relation("O", ("id", "varchar"))
        job = single_stage_job(rel, stage, out)
        assert_equivalent(job, instance, clean_kinds=["PROJECT"])

    def test_surrogate_key_becomes_keygen(self, rel, instance):
        reset_keygen_sequences()
        stage = SurrogateKey("sk", start=1, name="skgen")
        out = rel.extended([], "O").extended(
            [__import__("repro.schema", fromlist=["Attribute"]).Attribute("sk", "int")]
        )
        job = single_stage_job(rel, stage, out)
        graph = compile_job(job)
        assert "KEYGEN" in graph.kinds_in_order()
        reset_keygen_sequences()
        etl_result = EtlEngine().execute(job, instance)
        reset_keygen_sequences()
        ohm_result = OhmExecutor().execute(graph, instance)
        assert ohm_result.same_bags(etl_result)


class TestPassThroughCompilers:
    def test_sort_compiles_away(self, rel, instance):
        stage = SortStage([("id", "desc")])
        job = single_stage_job(rel, stage, rel)
        assert_equivalent(job, instance, clean_kinds=[])

    def test_peek_compiles_away(self, rel, instance):
        stage = PeekStage()
        job = single_stage_job(rel, stage, rel)
        assert_equivalent(job, instance, clean_kinds=[])


class TestGeneratedAndOpaque:
    def test_row_generator_becomes_source_with_provider(self, rel):
        gen_rel = relation("G", ("n", "int"))
        stage = RowGenerator(
            gen_rel, count=3, generators={"n": {"initial": 1, "increment": 1}}
        )
        job = Job("gen")
        job.add(stage)
        tgt = job.add(TableTarget(gen_rel.renamed("Out")))
        job.link(stage, tgt)
        graph = compile_job(job)
        (source,) = graph.sources()
        assert source.provider is not None
        assert OhmExecutor().execute(graph, Instance()).same_bags(
            EtlEngine().execute(job, Instance())
        )

    def test_custom_stage_becomes_unknown(self, rel, instance):
        def implementation(inputs):
            return [[dict(r) for r in inputs[0]]]

        stage = CustomStage(
            [rel.renamed("co")], reference="passthru",
            implementation=implementation,
        )
        job = single_stage_job(rel, stage, rel)
        graph = assert_equivalent(job, instance, clean_kinds=["UNKNOWN"])
        (unknown,) = graph.operators_of_kind("UNKNOWN")
        assert unknown.reference == "passthru"

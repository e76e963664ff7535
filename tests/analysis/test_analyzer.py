"""The analyzer proper: every ORC code caught from a seeded defect,
with stage/operator/link/expression locations — and no execution."""

import pytest

from repro.analysis import (
    analyze,
    analyze_expression,
    analyze_graph,
    analyze_job,
    analyze_mappings,
    check_plan,
)
from repro.errors import ValidationError
from repro.etl.model import Job
from repro.etl.stages import (
    AggregatorStage,
    CopyStage,
    CustomStage,
    FilterOutput,
    FilterStage,
    OutputLink,
    SortStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.mapping.model import Mapping, MappingSet, SourceBinding
from repro.ohm import (
    Filter, Group, Join, OhmGraph, Project, Source, Target,
)
from repro.schema import relation

REL = relation(
    "R", ("id", "int", False), ("name", "string", False),
    ("amt", "float", False),
)
OUT = relation(
    "Out", ("id", "int", False), ("name", "string", False),
    ("amt", "float", False),
)


def passing_filter():
    return FilterStage([FilterOutput(where="id > 0")])


def codes(report):
    return [d.code for d in report]


class TestTypeErrors:
    def test_orc002_bad_comparison(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f = job.add(FilterStage([FilterOutput(where="name > 3")]))
        t = job.add(TableTarget(OUT))
        job.chain(s, f, t, names=["a", "b"])
        report = analyze_job(job)
        assert codes(report) == ["ORC002"]
        d = report.errors[0]
        assert d.location.stage == f.uid
        assert d.location.link == "b"
        assert "(name > 3)" in d.location.expression

    def test_orc003_non_boolean_predicate(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f = job.add(FilterStage([FilterOutput(where="id + 1")]))
        t = job.add(TableTarget(OUT))
        job.chain(s, f, t, names=["a", "b"])
        report = analyze_job(job)
        assert codes(report) == ["ORC003"]
        assert "boolean" in report.errors[0].message

    def test_orc001_unparseable_expression(self):
        report = analyze_expression("amt +* 2", REL)
        assert codes(report) == ["ORC001"]

    def test_orc002_in_transformer_derivation(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        tr = job.add(
            Transformer([
                OutputLink([
                    ("id", "id"), ("name", "name"),
                    ("amt", "amt + name"),
                ])
            ])
        )
        t = job.add(TableTarget(OUT))
        job.chain(s, tr, t, names=["a", "b"])
        report = analyze_job(job)
        assert "ORC002" in codes(report)
        assert report.errors[0].location.stage == tr.uid

    def test_orc015_wrongly_typed_target_column(self):
        # TableTarget.validate only checks presence; the analyzer also
        # checks the dtype, which would otherwise fail at load time
        job = Job("t")
        s = job.add(TableSource(REL))
        tr = job.add(
            Transformer([
                OutputLink([
                    ("id", "id"), ("name", "name"),
                    ("amt", "UPPER(name)"),
                ])
            ])
        )
        t = job.add(TableTarget(OUT))
        job.chain(s, tr, t, names=["a", "b"])
        report = analyze_job(job)
        assert "ORC015" in codes(report)
        d = report.by_code("ORC015")[0]
        assert d.location.stage == t.uid and "'amt'" in d.message

    def test_downstream_of_error_is_not_double_reported(self):
        # the stage after a broken one has no usable schema: suppressed
        job = Job("t")
        s = job.add(TableSource(REL))
        f1 = job.add(FilterStage([FilterOutput(where="id + 1")]))
        f2 = job.add(FilterStage([FilterOutput(where="name > 3")]))
        t = job.add(TableTarget(OUT))
        job.chain(s, f1, f2, t, names=["a", "b", "c"])
        assert codes(analyze_job(job)) == ["ORC003"]


class TestNullability:
    def test_orc004_nullable_into_not_null(self):
        src = relation("S", ("id", "int", False), ("opt", "float", True))
        tgt = relation("T", ("id", "int", False), ("opt", "float", False))
        job = Job("t")
        s = job.add(TableSource(src))
        tr = job.add(
            Transformer([
                OutputLink([("id", "id"), ("opt", "opt + 1")])
            ])
        )
        t = job.add(TableTarget(tgt))
        job.chain(s, tr, t, names=["a", "b"])
        report = analyze_job(job)
        assert codes(report) == ["ORC004"]
        assert report.ok  # a warning, not an error

    def test_coalesce_refines_away_the_warning(self):
        src = relation("S", ("id", "int", False), ("opt", "float", True))
        tgt = relation("T", ("id", "int", False), ("opt", "float", False))
        job = Job("t")
        s = job.add(TableSource(src))
        tr = job.add(
            Transformer([
                OutputLink([("id", "id"), ("opt", "COALESCE(opt, 0.0)")])
            ])
        )
        t = job.add(TableTarget(tgt))
        job.chain(s, tr, t, names=["a", "b"])
        assert codes(analyze_job(job)) == []


class TestStructure:
    def test_orc010_cycle(self):
        job = Job("t")
        f1 = job.add(passing_filter())
        f2 = job.add(passing_filter())
        job.link(f1, f2, name="a")
        job.link(f2, f1, name="b")
        assert codes(analyze_job(job)) == ["ORC010"]

    def test_orc011_dangling_port(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f = job.add(passing_filter())
        job.link(s, f, name="a")  # the filter's output dangles
        report = analyze_job(job)
        assert "ORC011" in codes(report)
        assert report.by_code("ORC011")[0].location.stage == f.uid

    def test_orc012_duplicate_link_name(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f = job.add(passing_filter())
        t = job.add(TableTarget(OUT))
        job.link(s, f, name="x")
        job.link(f, t, name="x")
        report = analyze_job(job)
        assert "ORC012" in codes(report)
        assert report.by_code("ORC012")[0].location.link == "x"

    def test_orc013_unreachable_stage(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f = job.add(passing_filter())
        t = job.add(TableTarget(OUT))
        job.chain(s, f, t, names=["a", "b"])
        orphan = job.add(SortStage([("id", "asc")]))
        report = analyze_job(job)
        warned = report.by_code("ORC013")
        assert warned and all(
            d.location.stage == orphan.uid for d in warned
        )

    def test_orc014_reject_link_with_skip_policy(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        tr = job.add(
            Transformer(
                [OutputLink([
                    ("id", "id"), ("name", "name"), ("amt", "amt"),
                ])],
                on_error="skip",
            )
        )
        t = job.add(TableTarget(OUT))
        job.link(s, tr, name="a")
        job.link(tr, t, name="b")
        from repro.resilience import reject_relation

        rt = job.add(TableTarget(reject_relation()))
        job.reject_link(tr, rt, name="rej")
        report = analyze_job(job)
        assert "ORC014" in codes(report)
        d = report.by_code("ORC014")[0]
        assert d.location.stage == tr.uid and d.location.link == "rej"

    def test_orc015_schema_incompatible_target(self):
        narrow = relation("N", ("id", "int", False), ("nope", "int", False))
        job = Job("t")
        s = job.add(TableSource(REL))
        t = job.add(TableTarget(narrow))
        job.link(s, t, name="a")
        report = analyze_job(job)
        assert codes(report) == ["ORC015"]
        assert report.errors[0].location.stage == t.uid


class TestDataflow:
    def test_orc020_dead_computed_column(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        tr = job.add(
            Transformer([
                OutputLink([
                    ("id", "id"), ("name", "name"), ("amt", "amt"),
                    ("waste", "amt * 2"),
                ])
            ])
        )
        t = job.add(TableTarget(OUT))
        job.chain(s, tr, t, names=["a", "b"])
        report = analyze_job(job)
        assert codes(report) == ["ORC020"]
        d = report.warnings[0]
        assert "waste" in d.message
        assert d.location.stage == tr.uid and d.location.link == "b"

    def test_passthrough_columns_are_not_dead(self):
        # a passthrough the consumer drops is projection, not computation
        job = Job("t")
        s = job.add(TableSource(REL))
        agg = job.add(
            AggregatorStage(["name"], [("total", "sum", "amt")])
        )
        t = job.add(
            TableTarget(relation(
                "A", ("name", "string", False), ("total", "float", True),
            ))
        )
        job.chain(s, agg, t, names=["a", "b"])
        assert codes(analyze_job(job)) == []

    def test_orc020_dead_aggregate_output(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        agg = job.add(
            AggregatorStage(
                ["name"],
                [("total", "sum", "amt"), ("n", "count", None)],
            )
        )
        t = job.add(
            TableTarget(relation(
                "A", ("name", "string", False), ("total", "float", True),
            ))
        )
        job.chain(s, agg, t, names=["a", "b"])
        report = analyze_job(job)
        assert codes(report) == ["ORC020"]
        assert "'n'" in report.warnings[0].message

    def test_failed_stage_leaves_other_branches_checked(self):
        # the Sort cannot derive its schema, so its cone is all-live;
        # the dead column on the healthy branch is still reported
        job = Job("t")
        s = job.add(TableSource(REL))
        c = job.add(CopyStage())
        tr = job.add(
            Transformer([
                OutputLink([
                    ("id", "id"), ("name", "name"), ("amt", "amt"),
                    ("waste", "amt * 2"),
                ])
            ])
        )
        srt = job.add(SortStage([("nope", "asc")]))
        job.link(s, c, name="a")
        job.link(c, tr, name="b", src_port=0)
        job.link(c, srt, name="c", src_port=1)
        job.link(tr, job.add(TableTarget(OUT)), name="d")
        job.link(srt, job.add(TableTarget(REL)), name="e")
        report = analyze_job(job)
        assert sorted(
            (d.code, d.location.stage) for d in report
        ) == [("ORC002", srt.uid), ("ORC020", tr.uid)]

    def test_orc022_fusion_chain_broken_by_custom_stage(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f1 = job.add(passing_filter())
        c = job.add(
            CustomStage([REL], implementation=lambda ins: [list(ins[0])])
        )
        f2 = job.add(FilterStage([FilterOutput(where="amt > 0")]))
        t = job.add(TableTarget(OUT))
        job.chain(s, f1, c, f2, t, names=["a", "b", "c", "d"])
        report = analyze_job(job)
        assert codes(report) == ["ORC022"]
        assert report.infos[0].location.stage == c.uid


class TestOhmLayer:
    def test_orc021_pushdown_barrier(self):
        from repro.expr.functions import DEFAULT_REGISTRY, register
        from repro.schema.types import INTEGER

        if not DEFAULT_REGISTRY.knows("ANALYSIS_HOST_FN"):
            register("ANALYSIS_HOST_FN", lambda x: x, INTEGER, 1)
        g = OhmGraph("p")
        s = g.add(Source(REL))
        f = g.add(Filter("amt > 0"))
        p = g.add(
            Project([
                ("id", "ANALYSIS_HOST_FN(id)"), ("name", "name"),
                ("amt", "amt"),
            ])
        )
        t = g.add(Target(OUT))
        g.chain(s, f, p, t, names=["a", "b", "c"])
        report = analyze_graph(g)
        assert codes(report) == ["ORC021"]
        d = report.infos[0]
        assert d.location.operator == p.uid
        assert "ANALYSIS_HOST_FN" in d.location.expression

    def test_orc020_project_column_only_an_unread_join_output(self):
        # the JOIN reads precisely: of its left input only what its
        # consumer reads and its condition needs
        dim = relation(
            "B", ("bid", "int", False), ("city", "string", False)
        )
        out = relation(
            "T", ("id", "int", False), ("name", "string", False),
            ("city", "string", False),
        )
        g = OhmGraph("p")
        a = g.add(Source(REL))
        b = g.add(Source(dim))
        p = g.add(
            Project([("id", "id"), ("name", "name"), ("waste", "amt * 2")])
        )
        j = g.add(Join("id = bid"))
        t = g.add(Target(out))
        g.connect(a, p, name="a")
        g.connect(p, j, name="p", dst_port=0)
        g.connect(b, j, name="b", dst_port=1)
        g.connect(j, t, name="j")
        report = analyze_graph(g)
        assert codes(report) == ["ORC020"]
        d = report.warnings[0]
        assert "'waste'" in d.message
        assert (d.location.operator, d.location.link) == (p.uid, "p")

    def test_orc020_unused_group_aggregate(self):
        g = OhmGraph("p")
        s = g.add(Source(REL))
        grp = g.add(
            Group(["name"], [("total", "SUM(amt)"), ("n", "COUNT(*)")])
        )
        t = g.add(
            Target(relation(
                "A", ("name", "string", False), ("total", "float", True),
            ))
        )
        g.chain(s, grp, t, names=["a", "g"])
        report = analyze_graph(g)
        assert codes(report) == ["ORC020"]
        d = report.warnings[0]
        assert "'n'" in d.message
        assert (d.location.operator, d.location.link) == (grp.uid, "g")

    def test_ohm_type_error_locates_operator(self):
        g = OhmGraph("p")
        s = g.add(Source(REL))
        f = g.add(Filter("name > 3"))
        t = g.add(Target(OUT))
        g.chain(s, f, t, names=["a", "b"])
        report = analyze_graph(g)
        assert codes(report) == ["ORC002"]
        assert report.errors[0].location.operator == f.uid


class TestMappings:
    def setup_method(self):
        self.src = relation(
            "S", ("id", "int", False), ("amt", "float", True),
            ("name", "string", False),
        )
        self.tgt = relation(
            "T", ("id", "int", False), ("amt", "float", True),
        )

    def test_orc030_unknown_target_column(self):
        m = Mapping(
            [SourceBinding("s", self.src)], self.tgt,
            [("id", "s.id"), ("amt", "s.amt"), ("ghost", "s.amt")],
            name="M1",
        )
        report = analyze_mappings([m])
        assert codes(report) == ["ORC030"]
        assert report.errors[0].location.mapping == "M1"

    def test_orc030_duplicate_mapping_names(self):
        def make():
            return Mapping(
                [SourceBinding("s", self.src)], self.tgt,
                [("id", "s.id"), ("amt", "s.amt")], name="DUP",
            )

        ms = MappingSet([make(), make()])
        assert "ORC030" in codes(analyze_mappings(ms))

    def test_orc002_derivation_type_mismatch(self):
        m = Mapping(
            [SourceBinding("s", self.src)], self.tgt,
            [("id", "UPPER(s.name)"), ("amt", "s.amt")], name="M1",
        )
        report = analyze_mappings([m])
        assert codes(report) == ["ORC002"]

    def test_orc010_mapping_dependency_cycle(self):
        m1 = Mapping(
            [SourceBinding("s", self.src)], self.tgt,
            [("id", "s.id"), ("amt", "s.amt")], name="M1",
        )
        m2 = Mapping(
            [SourceBinding("t", self.tgt)], self.src,
            [("id", "t.id"), ("amt", "t.amt"), ("name", "'x'")],
            name="M2",
        )
        assert "ORC010" in codes(analyze_mappings([m1, m2]))

    def test_orc004_nullable_derivation(self):
        strict = relation(
            "T2", ("id", "int", False), ("amt", "float", False),
        )
        m = Mapping(
            [SourceBinding("s", self.src)], strict,
            [("id", "s.id"), ("amt", "s.amt")], name="M1",
        )
        report = analyze_mappings([m])
        assert codes(report) == ["ORC004"]

    def test_opaque_mappings_skipped(self):
        m = Mapping(
            [SourceBinding("s", self.src)], self.tgt,
            reference="blackbox", name="M1",
        )
        assert codes(analyze_mappings([m])) == []


class TestDispatchAndCheckPlan:
    def test_analyze_dispatches_by_type(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        t = job.add(TableTarget(OUT))
        job.link(s, t, name="a")
        assert analyze(job).ok
        g = OhmGraph("g")
        gs = g.add(Source(REL))
        gt = g.add(Target(OUT))
        g.chain(gs, gt, names=["a"])
        assert analyze(g).ok

    def test_analyze_rejects_unknown_subjects(self):
        with pytest.raises(ValidationError, match="cannot statically"):
            analyze(42)

    def test_check_plan_raises_with_location(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        f = job.add(FilterStage([FilterOutput(where="name > 3")]))
        t = job.add(TableTarget(OUT))
        job.chain(s, f, t, names=["a", "b"])
        with pytest.raises(ValidationError, match="ORC002") as exc_info:
            check_plan(job)
        loc = exc_info.value.location()
        assert loc["stage"] == f.uid and loc["link"] == "b"

    def test_check_plan_passes_warnings(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        tr = job.add(
            Transformer([
                OutputLink([
                    ("id", "id"), ("name", "name"), ("amt", "amt"),
                    ("waste", "amt * 2"),
                ])
            ])
        )
        t = job.add(TableTarget(OUT))
        job.chain(s, tr, t, names=["a", "b"])
        report = check_plan(job)  # ORC020 is a warning: no raise
        assert [d.code for d in report] == ["ORC020"]

    def test_analyzer_does_not_mutate_the_graph(self):
        job = Job("t")
        s = job.add(TableSource(REL))
        t = job.add(TableTarget(OUT))
        job.link(s, t, name="a")
        analyze_job(job)
        assert all(e.schema is None for e in job.edges)

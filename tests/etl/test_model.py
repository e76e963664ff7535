"""Job model unit tests."""

import pytest

from repro.dataflow import Edge
from repro.errors import GraphError, TypeCheckError, ValidationError
from repro.etl import (
    CopyStage,
    FilterOutput,
    FilterStage,
    FunnelStage,
    JoinStage,
    Job,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.expr.functions import DEFAULT_REGISTRY
from repro.schema import relation


@pytest.fixture
def rel():
    return relation("R", ("id", "int", False), ("v", "float"))


class TestJobConstruction:
    def test_stage_names_are_uids(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel, name="my source"))
        assert job.stage("my source") is src

    def test_duplicate_stage_name_rejected(self, rel):
        job = Job("j")
        job.add(TableSource(rel, name="s"))
        with pytest.raises(GraphError):
            job.add(TableTarget(rel, name="s"))

    def test_links_get_dslink_names(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel))
        tgt = job.add(TableTarget(rel.renamed("Out")))
        link = job.link(src, tgt)
        assert link.name.startswith("DSLink")

    def test_explicit_link_names(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel))
        tgt = job.add(TableTarget(rel.renamed("Out")))
        assert job.link(src, tgt, name="DSLink10").name == "DSLink10"

    def test_stages_of_type(self, rel):
        job = Job("j")
        job.add(TableSource(rel))
        job.add(TableTarget(rel.renamed("Out")))
        assert len(job.stages_of_type("TableSource")) == 1

    def test_source_and_target_discovery(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel))
        tgt = job.add(TableTarget(rel.renamed("Out")))
        job.link(src, tgt)
        assert job.source_stages() == [src]
        assert job.target_stages() == [tgt]


class TestPortChecking:
    def test_transformer_output_count_must_match_config(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel))
        transformer = job.add(
            Transformer(
                [OutputLink([("id", "id")]), OutputLink([("v", "v")])],
            )
        )
        tgt = job.add(TableTarget(relation("Out", ("id", "int"))))
        job.link(src, transformer)
        job.link(transformer, tgt)  # only one of two outputs wired
        with pytest.raises(ValidationError):
            job.propagate_schemas()

    def test_filter_output_count_must_match_config(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel))
        f = job.add(FilterStage([FilterOutput("v > 0"), FilterOutput("v < 0")]))
        t1 = job.add(TableTarget(rel.renamed("A")))
        job.link(src, f)
        job.link(f, t1)
        with pytest.raises(ValidationError):
            job.propagate_schemas()


def filter_job(rel):
    job = Job("j")
    src = job.add(TableSource(rel))
    f = job.add(FilterStage([FilterOutput("v > 0")]))
    tgt = job.add(TableTarget(rel.renamed("Out")))
    job.link(src, f, name="in")
    job.link(f, tgt, name="out")
    return job, src, f, tgt


class TestIncrementalPropagation:
    """A stage keeps its last propagation result only while its inputs,
    its out-links and its properties are what they were."""

    def test_replaced_ill_typed_output_is_checked_again(self, rel):
        job, src, f, tgt = filter_job(rel)
        job.propagate_schemas()
        f.outputs = [FilterOutput("missing > 0")]
        with pytest.raises(TypeCheckError):
            job.propagate_schemas()

    def test_replaced_outputs_recheck_the_port_count(self, rel):
        job, src, f, tgt = filter_job(rel)
        job.propagate_schemas()
        f.outputs = [FilterOutput("v > 0"), FilterOutput("v < 0")]
        with pytest.raises(ValidationError) as caught:
            job.propagate_schemas()
        assert caught.value.location() == {"stage": f.name}

    def test_replaced_target_relation_error_is_located(self, rel):
        job, src, f, tgt = filter_job(rel)
        job.propagate_schemas()
        tgt.relation = relation("Out", ("id", "int"), ("missing", "int"))
        with pytest.raises(ValidationError) as caught:
            job.propagate_schemas()
        assert caught.value.location() == {"stage": tgt.name}

    def _funnel(self, rel):
        job = Job("j")
        src = job.add(TableSource(rel))
        src2 = job.add(TableSource(rel.renamed("R2")))
        funnel = job.add(FunnelStage())
        copy = job.add(CopyStage())
        tgt = job.add(TableTarget(rel.renamed("Out")))
        job.link(src, funnel, dst_port=0)
        job.link(src2, funnel, dst_port=1)
        job.link(funnel, copy)
        job.link(copy, tgt)
        job.propagate_schemas()
        return job, funnel, copy

    def test_cycle_added_by_link_is_reported(self, rel):
        job, funnel, copy = self._funnel(rel)
        job.link(copy, funnel, src_port=1, dst_port=2)
        with pytest.raises(GraphError, match="cycle"):
            job.propagate_schemas()

    def test_cycle_added_by_edge_object_is_reported(self, rel):
        job, funnel, copy = self._funnel(rel)
        job.add_edge_object(Edge(copy.name, 1, funnel.name, 2, "back"))
        with pytest.raises(GraphError, match="cycle"):
            job.propagate_schemas()

    def test_links_come_back_in_port_order(self, rel):
        job = Job("j")
        left = job.add(TableSource(rel))
        right = job.add(TableSource(relation("S", ("id2", "int"))))
        join = job.add(JoinStage([("id", "id2")]))
        copy = job.add(CopyStage())
        t0 = job.add(TableTarget(relation("O0", ("id", "int"))))
        t1 = job.add(TableTarget(relation("O1", ("id", "int"))))
        job.link(right, join, name="r", dst_port=1)
        job.link(left, join, name="l", dst_port=0)
        job.link(join, copy)
        job.link(copy, t1, name="o1", src_port=1)
        job.link(copy, t0, name="o0", src_port=0)
        assert [e.name for e in job.in_edges(join.name)] == ["l", "r"]
        assert [e.name for e in job.out_edges(copy.name)] == ["o0", "o1"]
        job.propagate_schemas()
        assert job.find_edge("o0").schema.name == "o0"

    def test_stage_shared_by_shallow_copies_gets_each_jobs_schema(self, rel):
        job, src, f, tgt = filter_job(rel)
        wide = relation("W", ("id", "int", False), ("v", "float"), ("x", "int"))
        clone = job.shallow_copy()
        clone.remove_node(src.name)
        clone.link(clone.add(TableSource(wide)), f, name="in")
        for graph, names in ((job, rel.attribute_names), (clone, wide.attribute_names)) * 2:
            graph.propagate_schemas()
            assert graph.find_edge("out").schema.attribute_names == names


class TestRegistry:
    def test_default_registry_shared(self):
        assert Job("j").registry is DEFAULT_REGISTRY

    def test_job_scoped_registry(self, rel):
        from repro.expr.functions import register
        from repro.schema.types import INTEGER

        scoped = DEFAULT_REGISTRY.child()
        register("JOB_ONLY", lambda x: x + 1, INTEGER, 1, registry=scoped)
        job = Job("j", registry=scoped)
        assert job.registry.knows("JOB_ONLY")
        assert not DEFAULT_REGISTRY.knows("JOB_ONLY")

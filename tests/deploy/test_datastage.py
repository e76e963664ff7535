"""DataStage deployment tests: planning (Figure 10) and job rebuilding."""

import pytest

from repro.compile import compile_job
from repro.deploy import DATASTAGE, deploy_to_job, plan_deployment
from repro.deploy.datastage import AggregatorRp, FilterRp, JoinRp, TransformerRp
from repro.deploy.shapes import analyze_box
from repro.errors import DeploymentError
from repro.data.dataset import Dataset, Instance
from repro.etl import EtlEngine
from repro.ohm import (
    BasicProject,
    Filter,
    Group,
    OhmGraph,
    Source,
    Split,
    Target,
    Union,
)
from repro.schema import relation
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)


class TestFigure10Plan:
    @pytest.fixture
    def plan(self):
        graph = compile_job(build_example_job())
        return plan_deployment(graph, DATASTAGE)

    def test_five_boxes(self, plan):
        assert len(plan.boxes) == 5

    def test_box_contents_match_figure10(self, plan):
        kinds = []
        for box in plan.boxes:
            kinds.append(
                sorted(plan.graph.operator(uid).KIND for uid in box.uids)
            )
        assert sorted(map(tuple, kinds)) == sorted(
            map(
                tuple,
                [
                    ["PROJECT"],
                    ["BASIC PROJECT", "FILTER"],
                    ["BASIC PROJECT", "JOIN"],
                    ["GROUP"],
                    ["FILTER", "FILTER", "SPLIT"],
                ],
            )
        )

    def test_filter_boxes_offer_filter_and_transformer(self, plan):
        # "This merged box can be implemented with either a single Filter
        # or Transform stage ... a Filter stage would be the natural choice"
        for box in plan.boxes:
            kinds = {plan.graph.operator(uid).KIND for uid in box.uids}
            if kinds == {"FILTER", "BASIC PROJECT"} or kinds == {
                "SPLIT", "FILTER",
            }:
                names = [c.name for c in box.candidates]
                assert names[0] == "Filter"
                assert "Transformer" in names

    def test_join_box_offers_lookup_alternative(self, plan):
        for box in plan.boxes:
            kinds = {plan.graph.operator(uid).KIND for uid in box.uids}
            if "JOIN" in kinds:
                names = [c.name for c in box.candidates]
                assert names[0] == "Join"
                assert "Lookup" in names

    def test_describe_renders(self, plan):
        text = plan.describe()
        assert "box 1" in text and "alternatives" in text


class TestAggregatorCounterExample:
    def test_basic_project_group_does_not_merge(self):
        # "we cannot merge them into one Aggregator RP operator box
        # because the Aggregator template starts with a GROUP operator"
        rel = relation("R", ("id", "int", False), ("v", "float", False))
        g = OhmGraph()
        s = g.add(Source(rel))
        bp = g.add(BasicProject([("id", "id"), ("v", "v")]))
        gr = g.add(Group(["id"], [("total", "SUM(v)")]))
        t = g.add(Target(relation("Out", ("id", "int"), ("total", "float"))))
        g.chain(s, bp, gr, t)
        plan = plan_deployment(g, DATASTAGE)
        boxes_with_group = [
            box for box in plan.boxes
            if any(g.operator(u).KIND == "GROUP" for u in box.uids)
        ]
        (group_box,) = boxes_with_group
        assert {g.operator(u).KIND for u in group_box.uids} == {"GROUP"}

    def test_aggregator_matcher_rejects_prefixed_chain(self):
        rel = relation("R", ("id", "int", False), ("v", "float", False))
        g = OhmGraph()
        s = g.add(Source(rel))
        bp = g.add(BasicProject([("id", "id"), ("v", "v")]))
        gr = g.add(Group(["id"], [("total", "SUM(v)")]))
        t = g.add(Target(relation("Out", ("id", "int"), ("total", "float"))))
        g.chain(s, bp, gr, t)
        g.propagate_schemas()
        shape = analyze_box(g, {bp.uid, gr.uid})
        assert shape is not None  # it IS a valid linear box...
        assert not AggregatorRp().matches(g, shape)  # ...but not an Aggregator
        assert not FilterRp().matches(g, shape)
        assert not TransformerRp().matches(g, shape)


class TestRedeployment:
    def test_example_job_round_trips(self):
        job = build_example_job()
        graph = compile_job(job)
        redeployed, plan = deploy_to_job(graph)
        assert redeployed.kinds_in_order() == job.kinds_in_order()
        instance = generate_instance(50)
        assert EtlEngine().execute(redeployed, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    @pytest.mark.parametrize(
        "builder,instance_builder",
        [
            (lambda: build_chain_job(12), lambda: generate_chain_instance(80)),
            (lambda: build_fanout_job(3), lambda: generate_chain_instance(80)),
            (lambda: build_star_join_job(2),
             lambda: generate_star_instance(2, 100)),
        ],
    )
    def test_generated_jobs_round_trip(self, builder, instance_builder):
        job = builder()
        graph = compile_job(job)
        redeployed, _plan = deploy_to_job(graph)
        instance = instance_builder()
        assert EtlEngine().execute(redeployed, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    def test_custom_stage_round_trips_with_behaviour(self):
        job = build_example_job(custom_after_join=True)
        graph = compile_job(job)
        redeployed, _plan = deploy_to_job(graph)
        custom_stages = redeployed.stages_of_type("Custom")
        assert len(custom_stages) == 1
        instance = generate_instance(40)
        assert EtlEngine().execute(redeployed, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    def test_input_graph_not_modified(self):
        graph = compile_job(build_example_job())
        before = len(graph), len(graph.edges)
        deploy_to_job(graph)
        assert (len(graph), len(graph.edges)) == before

    def test_distinct_union_deploys_as_funnel_plus_dedup(self):
        rel = relation("R", ("id", "int", False), ("v", "float", False))
        other = rel.renamed("R2")
        g = OhmGraph()
        s1 = g.add(Source(rel))
        s2 = g.add(Source(other))
        u = g.add(Union(distinct=True))
        t = g.add(Target(rel.renamed("Out")))
        g.connect(s1, u, dst_port=0)
        g.connect(s2, u, dst_port=1)
        g.connect(u, t)
        job, _plan = deploy_to_job(g)
        types = {s.STAGE_TYPE for s in job.stages}
        assert "Funnel" in types
        assert "RemoveDuplicates" in types
        rows = [{"id": 1, "v": 1.0}]
        instance = Instance([Dataset(rel, rows), Dataset(other, rows)])
        assert len(EtlEngine().execute(job, instance).dataset("Out")) == 1

    def test_keygen_deploys_as_surrogate_key(self):
        from repro.ohm import KeyGen, reset_keygen_sequences

        reset_keygen_sequences()
        rel = relation("R", ("id", "int", False))
        g = OhmGraph()
        s = g.add(Source(rel))
        kg = g.add(KeyGen("sk", sequence="deploy-test", start=5))
        t = g.add(Target(relation("Out", ("id", "int"), ("sk", "int"))))
        g.chain(s, kg, t)
        job, _plan = deploy_to_job(g)
        (stage,) = job.stages_of_type("SurrogateKey")
        assert stage.generated_column == "sk"
        assert stage.start == 5

    def test_annotations_land_on_stages(self):
        rel = relation("R", ("id", "int", False), ("v", "float", False))
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("v > 0", annotations={"rule": "positive only"}))
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, f, t)
        job, _plan = deploy_to_job(g)
        annotated = [s for s in job.stages if "rule" in s.annotations]
        assert annotated


class TestErrorPaths:
    def test_unsupported_operator_raises(self):
        from repro.deploy.platform import RuntimePlatform

        empty_platform = RuntimePlatform("empty")
        graph = compile_job(build_example_job())
        with pytest.raises(DeploymentError):
            plan_deployment(graph, empty_platform)

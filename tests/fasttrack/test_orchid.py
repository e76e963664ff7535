"""Orchid façade tests: the FastTrack scenarios of paper section I."""

import pytest

from repro.fasttrack import Orchid
from repro.etl import EtlEngine, job_to_xml
from repro.mapping import Mapping, MappingExecutor, MappingSet, SourceBinding
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


@pytest.fixture
def orchid():
    return Orchid()


class TestImports:
    def test_import_etl_object_model(self, orchid):
        graph = orchid.import_etl(build_example_job())
        assert len(graph.sources()) == 2

    def test_import_etl_xml(self, orchid):
        xml = job_to_xml(build_example_job())
        graph = orchid.import_etl(xml)
        assert len(graph.targets()) == 2

    def test_import_mappings_json(self, orchid):
        mappings = orchid.etl_to_mappings(build_example_job())
        json_text = Orchid.export_mappings_json(mappings)
        graph = orchid.import_mappings(json_text)
        assert "GROUP" in graph.kinds_in_order()


class TestAnalystReviewDirection:
    def test_etl_to_mappings(self, orchid):
        mappings = orchid.etl_to_mappings(build_example_job())
        assert mappings.names == ["M1", "M2", "M3"]

    def test_mappings_execute_like_the_job(self, orchid):
        job = build_example_job()
        mappings = orchid.etl_to_mappings(job)
        instance = generate_instance(40)
        assert MappingExecutor().execute(mappings, instance).same_bags(
            EtlEngine().execute(job, instance)
        )


class TestProgrammerDirection:
    def test_mappings_to_etl(self, orchid):
        mappings = orchid.etl_to_mappings(build_example_job())
        job, plan = orchid.mappings_to_etl(mappings)
        assert len(plan.boxes) >= 4
        instance = generate_instance(40)
        assert EtlEngine().execute(job, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )

    def test_incomplete_mapping_yields_skeleton(self, orchid):
        """The paper's motivating FastTrack flow: an analyst's incomplete
        mapping becomes a job skeleton with an unresolved placeholder
        Join stage carrying the business-rule annotation."""
        a = relation("A", ("id", "int", False), ("x", "float"))
        b = relation("B", ("id", "int", False), ("y", "float"))
        target = relation("T", ("id", "int"), ("x", "float"), ("y", "float"))
        incomplete = Mapping(
            [SourceBinding("a", a), SourceBinding("b", b)],
            target,
            [("id", "a.id"), ("x", "a.x"), ("y", "b.y")],
            annotations={"rule": "match on account ownership (to refine)"},
        )
        skeleton, _plan = orchid.mappings_to_etl(MappingSet([incomplete]))
        joins = skeleton.stages_of_type("Join")
        assert len(joins) == 1
        (join,) = joins
        assert join.is_placeholder
        assert "placeholder" in join.annotations
        assert join.annotations["rule"].startswith("match on account")

    def test_refined_skeleton_becomes_runnable(self, orchid):
        a = relation("A", ("id", "int", False), ("x", "float", False))
        b = relation("B", ("id", "int", False), ("y", "float", False))
        target = relation("T", ("id", "int"), ("x", "float"), ("y", "float"))
        incomplete = Mapping(
            [SourceBinding("a", a), SourceBinding("b", b)],
            target,
            [("id", "a.id"), ("x", "a.x"), ("y", "b.y")],
        )
        skeleton, _plan = orchid.mappings_to_etl(MappingSet([incomplete]))
        (join,) = skeleton.stages_of_type("Join")
        # the skeleton disambiguated b's colliding id column as b_id; the
        # ETL programmer fills in the predicate against it...
        join.keys = [("id", "b_id")]
        join.annotations.pop("placeholder", None)
        # ...and the job runs
        from repro.data.dataset import Dataset, Instance

        instance = Instance([
            Dataset(a, [{"id": 1, "x": 1.0}]),
            Dataset(b, [{"id": 1, "y": 2.0}]),
        ])
        result = EtlEngine().execute(skeleton, instance)
        assert result.dataset("T").rows == [{"id": 1, "x": 1.0, "y": 2.0}]


class TestRoundTrips:
    def test_round_trip_etl(self, orchid):
        job = build_example_job()
        regenerated, mappings = orchid.round_trip_etl(job)
        instance = generate_instance(40)
        assert EtlEngine().execute(regenerated, instance).same_bags(
            EtlEngine().execute(job, instance)
        )
        assert len(mappings) == 3

    def test_round_trip_mappings_stable(self, orchid):
        """Regenerated mappings 'will match the original mappings':
        a second round trip reproduces the first one's text exactly."""
        original = orchid.etl_to_mappings(build_example_job())
        once, _job = orchid.round_trip_mappings(original)
        twice, _job = orchid.round_trip_mappings(once)
        def canonical(ms):
            return [
                (
                    sorted(b.relation.name for b in m.sources),
                    m.target.name,
                    sorted(c.to_sql() for c in m.where_conjuncts()),
                    sorted((c, e.to_sql()) for c, e in m.derivations),
                )
                for m in ms.in_dependency_order()
            ]
        assert canonical(once) == canonical(twice)

    def test_optimize_in_place(self, orchid):
        graph = orchid.import_etl(build_example_job())
        report = orchid.optimize(graph)
        assert report.total >= 0
        instance = generate_instance(30)
        from repro.ohm import OhmExecutor

        assert OhmExecutor().execute(graph, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )

    def test_hybrid_deployment(self, orchid):
        graph = orchid.import_etl(build_example_job())
        hybrid = orchid.to_hybrid(graph)
        instance = generate_instance(30)
        assert hybrid.execute(instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )

"""OHM→mappings tests: composition, materialization points, the paper's
section V-B behaviours."""

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.ohm import (
    BasicProject,
    Filter,
    Group,
    Join,
    OhmExecutor,
    OhmGraph,
    Project,
    Source,
    Split,
    Target,
    Union,
)
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


@pytest.fixture
def rel():
    return relation("R", ("id", "int", False), ("v", "float", False),
                    ("kind", "varchar"))


def rel_instance(rel, n=6):
    rows = [
        {"id": i, "v": float(i * 10), "kind": "ab"[i % 2]} for i in range(n)
    ]
    return Instance([Dataset(rel, rows)])


def check_equivalence(graph, instance):
    mappings = ohm_to_mappings(graph)
    assert MappingExecutor().execute(mappings, instance).same_bags(
        OhmExecutor().execute(graph, instance)
    )
    return mappings


class TestComposition:
    def test_filter_project_chain_composes_to_one_mapping(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("v > 10"))
        p = g.add(Project([("id", "id"), ("doubled", "v * 2")]))
        t = g.add(Target(relation("Out", ("id", "int"), ("doubled", "float"))))
        g.chain(s, f, p, t)
        mappings = check_equivalence(g, rel_instance(rel))
        assert len(mappings) == 1
        (m,) = mappings
        assert dict(m.derivations)["doubled"].to_sql() == "(r.v * 2)"

    def test_filter_after_project_unfolds_derivation(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(Project([("doubled", "v * 2")]))
        f = g.add(Filter("doubled > 50"))
        t = g.add(Target(relation("Out", ("doubled", "float"))))
        g.chain(s, p, f, t)
        mappings = check_equivalence(g, rel_instance(rel))
        (m,) = mappings
        # the condition is expressed over the source, not the view
        assert m.where.to_sql() == "((r.v * 2) > 50)"

    def test_join_composes_both_sides(self):
        left = relation("L", ("id", "int", False), ("v", "float"))
        right = relation("Rt", ("id", "int", False), ("w", "float"))
        g = OhmGraph()
        s1 = g.add(Source(left))
        s2 = g.add(Source(right))
        f = g.add(Filter("w > 1"))
        j = g.add(Join("A.id = B.id"))
        bp = g.add(BasicProject([("id", "A.id"), ("v", "v"), ("w", "w")]))
        t = g.add(Target(relation("Out", ("id", "int"), ("v", "float"),
                                  ("w", "float"))))
        g.connect(s1, j, name="A")
        g.connect(s2, f, name="Rin")
        g.connect(f, j, dst_port=1, name="B")
        g.chain(j, bp, t)
        mappings = ohm_to_mappings(g)
        assert len(mappings) == 1
        (m,) = mappings
        assert len(m.sources) == 2
        conjuncts = {c.to_sql() for c in m.where_conjuncts()}
        assert "(r.w > 1)" in conjuncts
        assert "(l.id = r.id)" in conjuncts
        instance = Instance([
            Dataset(left, [{"id": 1, "v": 5.0}]),
            Dataset(right, [{"id": 1, "w": 7.0}, {"id": 1, "w": 0.5}]),
        ])
        assert MappingExecutor().execute(mappings, instance).same_bags(
            OhmExecutor().execute(g, instance)
        )


class TestMaterializationPoints:
    def test_split_materializes_at_incoming_edge(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("v > 10"))
        sp = g.add(Split())
        t1 = g.add(Target(rel.renamed("A")))
        t2 = g.add(Target(rel.renamed("B")))
        g.connect(s, f, name="in")
        g.connect(f, sp, name="MatPoint")
        g.connect(sp, t1, src_port=0)
        g.connect(sp, t2, src_port=1)
        mappings = check_equivalence(g, rel_instance(rel))
        assert len(mappings) == 3
        assert mappings.intermediate_relation_names() == ["MatPoint"]

    def test_split_directly_after_source_adds_no_mapping(self, rel):
        # nothing composed yet: no intermediate copy mapping is emitted
        g = OhmGraph()
        s = g.add(Source(rel))
        sp = g.add(Split())
        t1 = g.add(Target(rel.renamed("A")))
        t2 = g.add(Target(rel.renamed("B")))
        g.connect(s, sp)
        g.connect(sp, t1, src_port=0)
        g.connect(sp, t2, src_port=1)
        mappings = check_equivalence(g, rel_instance(rel))
        assert len(mappings) == 2
        assert mappings.intermediate_relation_names() == []

    def test_filter_after_group_materializes(self, rel):
        # "we cannot compose two mappings that involve grouping and
        # aggregation": a filter over aggregate output starts a new mapping
        g = OhmGraph()
        s = g.add(Source(rel))
        gr = g.add(Group(["kind"], [("total", "SUM(v)")]))
        f = g.add(Filter("total > 30"))
        t = g.add(Target(relation("Out", ("kind", "varchar"),
                                  ("total", "float"))))
        g.connect(s, gr, name="in")
        g.connect(gr, f, name="Grouped")
        g.connect(f, t, name="out")
        mappings = check_equivalence(g, rel_instance(rel))
        assert len(mappings) == 2
        assert mappings.intermediate_relation_names() == ["Grouped"]
        first, second = mappings.in_dependency_order()
        assert first.is_grouping
        assert second.where.to_sql() == "(g.total > 30)"

    def test_rename_after_group_still_composes(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        gr = g.add(Group(["kind"], [("total", "SUM(v)")]))
        bp = g.add(BasicProject([("category", "kind"), ("sum_v", "total")]))
        t = g.add(Target(relation("Out", ("category", "varchar"),
                                  ("sum_v", "float"))))
        g.chain(s, gr, bp, t)
        mappings = check_equivalence(g, rel_instance(rel))
        assert len(mappings) == 1  # BASIC PROJECT composed through

    def test_second_group_materializes(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        g1 = g.add(Group(["kind", "id"], [("total", "SUM(v)")]))
        g2 = g.add(Group(["kind"], [("m", "MAX(total)")]))
        t = g.add(Target(relation("Out", ("kind", "varchar"), ("m", "float"))))
        g.connect(s, g1, name="a")
        g.connect(g1, g2, name="Mid")
        g.connect(g2, t, name="b")
        mappings = check_equivalence(g, rel_instance(rel))
        assert len(mappings) == 2


class TestUnions:
    def test_union_emits_mapping_per_branch(self, rel):
        other = rel.renamed("R2")
        g = OhmGraph()
        s1 = g.add(Source(rel))
        s2 = g.add(Source(other))
        u = g.add(Union())
        t = g.add(Target(rel.renamed("Out")))
        g.connect(s1, u, dst_port=0)
        g.connect(s2, u, dst_port=1)
        g.connect(u, t, name="U")
        mappings = ohm_to_mappings(g)
        # two mappings into the union edge + the copy to the target is
        # composed into... the union target edge IS consumed by target
        producers = mappings.producers_of("U")
        assert len(producers) == 2
        instance = Instance([
            Dataset(rel, [{"id": 1, "v": 1.0, "kind": "a"}]),
            Dataset(other, [{"id": 2, "v": 2.0, "kind": "b"}]),
        ])
        assert MappingExecutor().execute(mappings, instance).same_bags(
            OhmExecutor().execute(g, instance)
        )


class TestOuterJoinOpacity:
    def test_left_join_becomes_opaque_mapping(self):
        left = relation("L", ("id", "int", False), ("v", "float"))
        right = relation("Rt", ("id", "int", False), ("w", "float"))
        g = OhmGraph()
        s1 = g.add(Source(left))
        s2 = g.add(Source(right))
        j = g.add(Join("A.id = B.id", kind="left"))
        t = g.add(Target(relation("Out", ("A.id", "int"), ("v", "float"),
                                  ("B.id", "int"), ("w", "float"))))
        g.connect(s1, j, name="A")
        g.connect(s2, j, dst_port=1, name="B")
        g.connect(j, t, name="out")
        mappings = ohm_to_mappings(g)
        assert any(m.is_opaque for m in mappings)


class TestPaperScenarios:
    def test_example_job_gives_three_mappings(self):
        graph = compile_job(build_example_job())
        mappings = ohm_to_mappings(graph)
        assert mappings.names == ["M1", "M2", "M3"]
        assert mappings.intermediate_relation_names() == ["DSLink10"]

    def test_unknown_scenario_gives_five_mappings(self):
        graph = compile_job(build_example_job(custom_after_join=True))
        mappings = ohm_to_mappings(graph)
        assert len(mappings) == 5
        opaque = [m for m in mappings if m.is_opaque]
        assert len(opaque) == 1
        assert opaque[0].reference == "AuditBalances"
        # both black-box boundary edges are materialization points
        assert set(mappings.intermediate_relation_names()) == {
            "DSLink5", "DSLink6", "DSLink10",
        }

    def test_example_semantics_three_ways(self):
        job = build_example_job()
        graph = compile_job(job)
        mappings = ohm_to_mappings(graph)
        instance = generate_instance(60)
        etl = EtlEngine().execute(job, instance)
        assert OhmExecutor().execute(graph, instance).same_bags(etl)
        assert MappingExecutor().execute(mappings, instance).same_bags(etl)

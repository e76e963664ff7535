"""Dead-column elimination tests."""

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
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
from repro.rewrite import prune_unused_columns, required_columns
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


@pytest.fixture
def rel():
    return relation(
        "R", ("id", "int", False), ("a", "float", False), ("b", "varchar"),
        ("c", "varchar"),
    )


def data(rel):
    return Dataset(
        rel,
        [
            {"id": 1, "a": 2.0, "b": "x", "c": "p"},
            {"id": 2, "a": 5.0, "b": "y", "c": "q"},
        ],
    )


class TestRequiredColumns:
    def test_target_requires_its_attributes(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        t = g.add(Target(relation("Out", ("id", "int"), ("a", "float"))))
        edge = g.connect(s, t)
        needed = required_columns(g)
        assert needed[(s.uid, 0)] == {"id", "a"}

    def test_filter_adds_condition_columns(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("b = 'x'"))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.chain(s, f, t)
        needed = required_columns(g)
        assert needed[(s.uid, 0)] == {"id", "b"}

    def test_group_requires_all_keys(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        gr = g.add(Group(["b", "c"], [("total", "SUM(a)")]))
        # the target only reads b + total, but grouping by c still
        # requires c upstream
        t = g.add(Target(relation("Out", ("b", "varchar"),
                                  ("total", "float"))))
        g.chain(s, gr, t)
        needed = required_columns(g)
        assert needed[(s.uid, 0)] == {"a", "b", "c"}

    def test_join_requirements_split_by_side(self, rel):
        other = relation("S", ("id", "int", False), ("d", "varchar"))
        g = OhmGraph()
        s1 = g.add(Source(rel))
        s2 = g.add(Source(other))
        j = g.add(Join("L.id = Rt.id"))
        bp = g.add(BasicProject([("a", "a"), ("d", "d")]))
        t = g.add(Target(relation("Out", ("a", "float"), ("d", "varchar"))))
        g.connect(s1, j, name="L")
        g.connect(s2, j, dst_port=1, name="Rt")
        g.chain(j, bp, t)
        needed = required_columns(g)
        assert needed[(s1.uid, 0)] == {"id", "a"}
        assert needed[(s2.uid, 0)] == {"id", "d"}

    def test_split_unions_branch_requirements(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        sp = g.add(Split())
        t1 = g.add(Target(relation("O1", ("id", "int"))))
        t2 = g.add(Target(relation("O2", ("b", "varchar"))))
        g.connect(s, sp)
        g.connect(sp, t1, src_port=0)
        g.connect(sp, t2, src_port=1)
        needed = required_columns(g)
        assert needed[(s.uid, 0)] == {"id", "b"}


class TestPruning:
    def test_unused_derivation_dropped(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(Project([("id", "id"), ("x", "a * 2"),
                           ("wasted", "UPPER(b)")]))
        t = g.add(Target(relation("Out", ("id", "int"), ("x", "float"))))
        g.chain(s, p, t)
        assert prune_unused_columns(g) == 1
        (project,) = g.operators_of_kind("PROJECT")
        assert [c for c, _e in project.derivations] == ["id", "x"]

    def test_semantics_preserved(self, rel):
        def build():
            g = OhmGraph()
            s = g.add(Source(rel))
            p = g.add(Project([("id", "id"), ("x", "a * 2"),
                               ("wasted", "UPPER(b)")]))
            f = g.add(Filter("x > 3"))
            t = g.add(Target(relation("Out", ("id", "int"), ("x", "float"))))
            g.chain(s, p, f, t)
            return g

        pruned = build()
        prune_unused_columns(pruned)
        plain = build()
        instance = Instance([data(rel)])
        assert OhmExecutor().execute(pruned, instance).same_bags(
            OhmExecutor().execute(plain, instance)
        )

    def test_idempotent(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(Project([("id", "id"), ("wasted", "b")]))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.chain(s, p, t)
        assert prune_unused_columns(g) == 1
        assert prune_unused_columns(g) == 0

    def test_keeps_one_column_minimum(self, rel):
        # a COUNT(*)-style consumer needs no particular column; the
        # projection must still produce a non-empty relation
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(BasicProject([("b", "b"), ("c", "c")]))
        gr = g.add(Group([], [("n", "COUNT(*)")]))
        t = g.add(Target(relation("Out", ("n", "int"))))
        g.chain(s, p, gr, t)
        prune_unused_columns(g)
        (project,) = g.operators_of_kind("BASIC PROJECT")
        assert len(project.derivations) >= 1
        instance = Instance([data(rel)])
        result = OhmExecutor().execute(g, instance)
        assert result.dataset("Out").rows == [{"n": 2}]

    def test_basic_project_columns_stay_consistent(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(BasicProject([("id", "id"), ("bb", "b")]))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.chain(s, p, t)
        prune_unused_columns(g)
        (project,) = g.operators_of_kind("BASIC PROJECT")
        assert project.columns == [("id", "id")]

    def test_filter_condition_columns_survive(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(Project([("id", "id"), ("x", "a * 2")]))
        f = g.add(Filter("x > 3"))
        bp = g.add(BasicProject([("id", "id")]))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.chain(s, p, f, bp, t)
        prune_unused_columns(g)
        (project,) = g.operators_of_kind("PROJECT")
        # x is not in the target but the filter reads it
        assert dict(project.derivations).keys() == {"id", "x"}
        instance = Instance([data(rel)])
        assert sorted(
            r["id"] for r in OhmExecutor().execute(g, instance).dataset("Out")
        ) == [1, 2]  # x = 4 and 10, both above the threshold

    def test_example_job_has_no_dead_columns(self):
        graph = compile_job(build_example_job())
        assert prune_unused_columns(graph) == 0

    def test_example_with_wide_source_prunes_nothing_needed(self):
        # widen the target requirements test: drop a target column from
        # the example and the corresponding derivation gets pruned
        from repro.etl import TableTarget

        job = build_example_job()
        narrow = relation(
            "BigCustomers", ("customerID", "int", False),
            ("totalBalance", "float"),
        )
        old = job.stage("BigCustomers")
        # rebuild the target stage with a narrower relation
        old.relation = narrow
        graph = compile_job(job)
        dropped = prune_unused_columns(graph)
        assert dropped == 0  # OtherCustomers still needs every column

    def test_union_branches_stay_compatible(self, rel):
        other = rel.renamed("R2")
        g = OhmGraph()
        s1 = g.add(Source(rel))
        s2 = g.add(Source(other))
        p1 = g.add(BasicProject([("id", "id"), ("b", "b")]))
        p2 = g.add(BasicProject([("id", "id"), ("b", "b")]))
        u = g.add(Union())
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.connect(s1, p1)
        g.connect(s2, p2)
        g.connect(p1, u, dst_port=0)
        g.connect(p2, u, dst_port=1)
        g.connect(u, t)
        prune_unused_columns(g)
        g.propagate_schemas()  # union compatibility still holds
        instance = Instance([data(rel), Dataset(other, data(rel).rows)])
        assert len(OhmExecutor().execute(g, instance).dataset("Out")) == 4

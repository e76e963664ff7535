"""Rewrite-rule unit tests: each rule's effect and its semantic safety."""

import pytest

from repro.data.dataset import Dataset, Instance
from repro.ohm import (
    BasicProject,
    Filter,
    Join,
    OhmExecutor,
    OhmGraph,
    Project,
    Source,
    Split,
    Target,
)
from repro.rewrite.rules import (
    MergeAdjacentFilters,
    MergeAdjacentProjects,
    PushFilterThroughJoin,
    PushFilterThroughProject,
    RemoveIdentityProject,
    RemoveTrivialSplit,
    RemoveTrueFilter,
)
from repro.schema import relation


@pytest.fixture
def rel():
    return relation("R", ("id", "int", False), ("v", "float"),
                    ("name", "varchar"))


def data(rel):
    return Dataset(
        rel,
        [
            {"id": 1, "v": 10.0, "name": "a"},
            {"id": 2, "v": 20.0, "name": "b"},
            {"id": 3, "v": None, "name": "A"},
        ],
    )


def run(graph, rel):
    return OhmExecutor().execute(graph, Instance([data(rel)]))


class TestRemoveIdentityProject:
    def test_fires_on_identity(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        bp = g.add(BasicProject.identity(rel))
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, bp, t)
        g.propagate_schemas()
        assert RemoveIdentityProject()(g) is True
        assert g.kinds_in_order() == ["SOURCE", "TARGET"]

    def test_skips_renaming_project(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        bp = g.add(BasicProject([("ident", "id"), ("v", "v"), ("name", "name")]))
        t = g.add(Target(relation("Out", ("ident", "int"), ("v", "float"),
                                  ("name", "varchar"))))
        g.chain(s, bp, t)
        g.propagate_schemas()
        assert RemoveIdentityProject()(g) is False

    def test_skips_dropping_project(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        bp = g.add(BasicProject([("id", "id")]))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.chain(s, bp, t)
        g.propagate_schemas()
        assert RemoveIdentityProject()(g) is False


class TestRemoveTrivialSplit:
    def test_fires_on_single_output_split(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        sp = g.add(Split())
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, sp, t)
        g.propagate_schemas()
        assert RemoveTrivialSplit()(g) is True
        assert "SPLIT" not in g.kinds_in_order()

    def test_skips_real_split(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        sp = g.add(Split())
        t1 = g.add(Target(rel.renamed("A")))
        t2 = g.add(Target(rel.renamed("B")))
        g.connect(s, sp)
        g.connect(sp, t1, src_port=0)
        g.connect(sp, t2, src_port=1)
        g.propagate_schemas()
        assert RemoveTrivialSplit()(g) is False


class TestRemoveTrueFilter:
    def test_fires_on_true(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("TRUE"))
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, f, t)
        g.propagate_schemas()
        assert RemoveTrueFilter()(g) is True

    def test_skips_tautology_it_cannot_see(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("1 = 1"))  # not the literal TRUE
        t = g.add(Target(rel.renamed("Out")))
        g.chain(s, f, t)
        g.propagate_schemas()
        assert RemoveTrueFilter()(g) is False


class TestMergeAdjacentFilters:
    def test_merges_and_preserves_semantics(self, rel):
        def build(merged):
            g = OhmGraph()
            s = g.add(Source(rel))
            f1 = g.add(Filter("v > 5"))
            f2 = g.add(Filter("id < 3"))
            t = g.add(Target(rel.renamed("Out")))
            g.chain(s, f1, f2, t)
            g.propagate_schemas()
            if merged:
                assert MergeAdjacentFilters()(g) is True
            return g

        merged = build(True)
        plain = build(False)
        assert merged.kinds_in_order().count("FILTER") == 1
        assert run(merged, rel).same_bags(run(plain, rel))


class TestMergeAdjacentProjects:
    def test_composes_derivations(self, rel):
        def build(merged):
            g = OhmGraph()
            s = g.add(Source(rel))
            p1 = g.add(Project([("doubled", "v * 2"), ("name", "name")]))
            p2 = g.add(Project([("final", "doubled + 1")]))
            t = g.add(Target(relation("Out", ("final", "float"))))
            g.chain(s, p1, p2, t)
            g.propagate_schemas()
            if merged:
                assert MergeAdjacentProjects()(g) is True
            return g

        merged = build(True)
        plain = build(False)
        assert merged.kinds_in_order().count("PROJECT") == 1
        assert run(merged, rel).same_bags(run(plain, rel))


class TestPushFilterThroughProject:
    def test_pushes_and_preserves_semantics(self, rel):
        def build(pushed):
            g = OhmGraph()
            s = g.add(Source(rel))
            p = g.add(Project([("doubled", "v * 2"), ("name", "name")]))
            f = g.add(Filter("doubled > 25"))
            t = g.add(Target(relation("Out", ("doubled", "float"),
                                      ("name", "varchar"))))
            g.chain(s, p, f, t)
            g.propagate_schemas()
            if pushed:
                assert PushFilterThroughProject()(g) is True
            return g

        pushed = build(True)
        plain = build(False)
        kinds = pushed.kinds_in_order()
        assert kinds.index("FILTER") < kinds.index("PROJECT")
        assert run(pushed, rel).same_bags(run(plain, rel))

    def test_does_not_push_past_keygen_column(self, rel):
        # a filter on a column the project does not derive cannot move
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(Project([("doubled", "v * 2")]))
        f = g.add(Filter("doubled IS NULL"))
        t = g.add(Target(relation("Out", ("doubled", "float"))))
        g.chain(s, p, f, t)
        g.propagate_schemas()
        assert PushFilterThroughProject()(g) is True  # derivable: moves


class TestPushFilterThroughJoin:
    def _build(self, pushed):
        left = relation("L", ("id", "int", False), ("v", "float"))
        right = relation("R", ("id", "int", False), ("w", "float"))
        g = OhmGraph()
        s1 = g.add(Source(left))
        s2 = g.add(Source(right))
        j = g.add(Join("L.id = R.id"))
        f = g.add(Filter("w > 5 AND v < 100"))
        out = relation("Out", ("L.id", "int"), ("R.id", "int"),
                       ("v", "float"), ("w", "float"))
        t = g.add(Target(out))
        g.connect(s1, j, name="L")
        g.connect(s2, j, dst_port=1, name="R")
        g.chain(j, f, t)
        g.propagate_schemas()
        if pushed:
            assert PushFilterThroughJoin()(g) is True
        return g, left, right

    def _instance(self, left, right):
        return Instance([
            Dataset(left, [{"id": 1, "v": 50.0}, {"id": 2, "v": 150.0}]),
            Dataset(right, [{"id": 1, "w": 10.0}, {"id": 2, "w": 3.0}]),
        ])

    def test_pushes_single_side_conjuncts(self):
        g, left, right = self._build(True)
        kinds = g.kinds_in_order()
        # at least one filter now sits before the join
        assert kinds.index("FILTER") < kinds.index("JOIN")

    def test_semantics_preserved(self):
        pushed, left, right = self._build(True)
        plain, *_ = self._build(False)
        instance = self._instance(left, right)
        assert OhmExecutor().execute(pushed, instance).same_bags(
            OhmExecutor().execute(plain, instance)
        )

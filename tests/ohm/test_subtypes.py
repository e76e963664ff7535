"""Operator subtyping tests.

The paper's contract: "a refined operator must be a specialization of its
more generic base operator. That is, its behavior must be realizable by
the base operator." The property test executes each subtype and its
``as_base_project()`` generalization on the same data and asserts
identical results.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import Dataset, Instance
from repro.errors import ValidationError
from repro.ohm import (
    BasicProject,
    ColumnMerge,
    ColumnSplit,
    KeyGen,
    OhmExecutor,
    OhmGraph,
    Project,
    Source,
    Target,
    reset_keygen_sequences,
)
from repro.schema import relation


@pytest.fixture
def rel():
    return relation(
        "R", ("id", "int", False), ("name", "varchar"), ("code", "varchar")
    )


def run_project(project_op, rel, rows, out_attrs):
    graph = OhmGraph()
    source = graph.add(Source(rel))
    graph.add(project_op)
    target = graph.add(Target(relation("Out", *out_attrs)))
    graph.chain(source, project_op, target)
    instance = Instance([Dataset(rel, rows)])
    return OhmExecutor().execute(graph, instance).dataset("Out")


class TestBasicProject:
    def test_renames_and_drops(self, rel):
        op = BasicProject([("ident", "id"), ("name", "name")])
        result = run_project(
            op, rel, [{"id": 1, "name": "a", "code": "x-y"}],
            [("ident", "int"), ("name", "varchar")],
        )
        assert result.rows == [{"ident": 1, "name": "a"}]

    def test_is_a_project(self):
        assert isinstance(BasicProject([("a", "a")]), Project)

    def test_identity_constructor(self, rel):
        op = BasicProject.identity(rel)
        assert op.is_identity_for(rel)

    def test_keep_constructor(self):
        op = BasicProject.keep(["a", "b"])
        assert op.columns == [("a", "a"), ("b", "b")]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BasicProject([])

    def test_derivations_are_pure_column_refs(self):
        op = BasicProject([("x", "y")])
        from repro.expr.ast import ColumnRef

        assert all(isinstance(e, ColumnRef) for _c, e in op.derivations)


class TestKeyGen:
    def test_appends_monotone_key(self, rel):
        reset_keygen_sequences()
        op = KeyGen("sk", sequence="test-seq-1", start=100)
        result = run_project(
            op, rel,
            [{"id": 1}, {"id": 2}, {"id": 3}],
            [("id", "int"), ("name", "varchar"), ("code", "varchar"),
             ("sk", "int")],
        )
        assert result.column("sk") == [100, 101, 102]
        assert result.column("id") == [1, 2, 3]

    def test_existing_column_rejected(self, rel):
        op = KeyGen("id")
        with pytest.raises(ValidationError):
            op.validate([rel])

    def test_separate_sequences_are_independent(self, rel):
        reset_keygen_sequences()
        a = KeyGen("sk", sequence="seq-a", start=1)
        b = KeyGen("sk", sequence="seq-b", start=1)
        run_project(a, rel, [{"id": 1}],
                    [("id", "int"), ("name", "varchar"), ("code", "varchar"),
                     ("sk", "int")])
        result = run_project(
            b, rel, [{"id": 1}],
            [("id", "int"), ("name", "varchar"), ("code", "varchar"),
             ("sk", "int")],
        )
        assert result.column("sk") == [1]


class TestColumnSplit:
    def test_splits_by_delimiter(self, rel):
        op = ColumnSplit(
            "code", ["part1", "part2"], "-", passthrough=["id"]
        )
        result = run_project(
            op, rel, [{"id": 1, "code": "ab-cd"}],
            [("id", "int"), ("part1", "varchar"), ("part2", "varchar")],
        )
        assert result.rows == [{"id": 1, "part1": "ab", "part2": "cd"}]

    def test_missing_parts_become_empty(self, rel):
        op = ColumnSplit("code", ["p1", "p2", "p3"], "-")
        result = run_project(
            op, rel, [{"id": 1, "code": "only"}],
            [("p1", "varchar"), ("p2", "varchar"), ("p3", "varchar")],
        )
        assert result.rows == [{"p1": "only", "p2": "", "p3": ""}]

    def test_needs_two_targets(self):
        with pytest.raises(ValidationError):
            ColumnSplit("c", ["only"], "-")


class TestColumnMerge:
    def test_merges_with_delimiter(self, rel):
        op = ColumnMerge(["name", "code"], "merged", ":", passthrough=["id"])
        result = run_project(
            op, rel, [{"id": 1, "name": "a", "code": "b"}],
            [("id", "int"), ("merged", "varchar")],
        )
        assert result.rows == [{"id": 1, "merged": "a:b"}]

    def test_inverse_of_split(self, rel):
        # COLUMN SPLIT then COLUMN MERGE restores the original column
        split = ColumnSplit("code", ["p1", "p2"], "-", passthrough=["id"])
        merged = ColumnMerge(["p1", "p2"], "code", "-", passthrough=["id"])
        mid = run_project(
            split, rel, [{"id": 1, "code": "x-y"}],
            [("id", "int"), ("p1", "varchar"), ("p2", "varchar")],
        )
        back = run_project(
            merged, mid.relation, mid.rows, [("id", "int"), ("code", "varchar")]
        )
        assert back.rows == [{"id": 1, "code": "x-y"}]

    def test_needs_two_sources(self):
        with pytest.raises(ValidationError):
            ColumnMerge(["one"], "m", "-")


class TestSubtypeRealizableByBase:
    """The refinement contract, checked behaviourally."""

    rows_strategy = st.lists(
        st.fixed_dictionaries(
            {
                "id": st.integers(min_value=0, max_value=99),
                "name": st.text(
                    alphabet="abcxyz", min_size=0, max_size=6
                ),
                "code": st.text(alphabet="abc-", min_size=0, max_size=8),
            }
        ),
        max_size=8,
    )

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_basic_project_equals_base(self, rows):
        rel = relation(
            "R", ("id", "int", False), ("name", "varchar"), ("code", "varchar")
        )
        refined = BasicProject([("n", "name"), ("i", "id")])
        base = refined.as_base_project()
        out_attrs = [("n", "varchar"), ("i", "int")]
        a = run_project(refined, rel, rows, out_attrs)
        b = run_project(base, rel, rows, out_attrs)
        assert a.same_bag(b)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_column_split_equals_base(self, rows):
        rel = relation(
            "R", ("id", "int", False), ("name", "varchar"), ("code", "varchar")
        )
        refined = ColumnSplit("code", ["p1", "p2"], "-", passthrough=["id"])
        base = refined.as_base_project()
        out_attrs = [("id", "int"), ("p1", "varchar"), ("p2", "varchar")]
        rows = [dict(r, code=r["code"] or "x") for r in rows]
        a = run_project(refined, rel, rows, out_attrs)
        b = run_project(base, rel, rows, out_attrs)
        assert a.same_bag(b)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_column_merge_equals_base(self, rows):
        rel = relation(
            "R", ("id", "int", False), ("name", "varchar"), ("code", "varchar")
        )
        refined = ColumnMerge(["name", "code"], "m", "|", passthrough=["id"])
        base = refined.as_base_project()
        out_attrs = [("id", "int"), ("m", "varchar")]
        rows = [dict(r, name=r["name"] or "n", code=r["code"] or "c") for r in rows]
        a = run_project(refined, rel, rows, out_attrs)
        b = run_project(base, rel, rows, out_attrs)
        assert a.same_bag(b)

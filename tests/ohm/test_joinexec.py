"""Hash-join execution tests: decomposition and equivalence with the
nested-loop semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import Dataset, Instance
from repro.expr.parser import parse
from repro.ohm import BasicProject, Join, OhmExecutor, OhmGraph, Source, Target
from repro.exec.kernels import split_equi_condition
from repro.schema import relation


@pytest.fixture
def left_rel():
    return relation("L", ("id", "int"), ("v", "float"))


@pytest.fixture
def right_rel():
    return relation("R", ("id", "int"), ("w", "float"))


class TestDecomposition:
    def test_simple_equi_join(self, left_rel, right_rel):
        pairs, residual = split_equi_condition(
            parse("L.id = R.id"), left_rel, right_rel
        )
        assert len(pairs) == 1 and residual == []
        left_expr, right_expr = pairs[0]
        assert left_expr == parse("L.id")
        assert right_expr == parse("R.id")

    def test_reversed_sides_normalized(self, left_rel, right_rel):
        pairs, _ = split_equi_condition(
            parse("R.id = L.id"), left_rel, right_rel
        )
        ((left_expr, right_expr),) = pairs
        assert left_expr == parse("L.id")
        assert right_expr == parse("R.id")

    def test_residual_kept(self, left_rel, right_rel):
        pairs, residual = split_equi_condition(
            parse("L.id = R.id AND L.v < R.w"), left_rel, right_rel
        )
        assert len(pairs) == 1
        assert residual == [parse("L.v < R.w")]

    def test_expression_keys(self, left_rel, right_rel):
        pairs, residual = split_equi_condition(
            parse("L.id + 1 = R.id"), left_rel, right_rel
        )
        assert len(pairs) == 1 and residual == []

    def test_same_side_equality_is_residual(self, left_rel, right_rel):
        pairs, residual = split_equi_condition(
            parse("L.id = L.v"), left_rel, right_rel
        )
        assert pairs == [] and len(residual) == 1

    def test_ambiguous_unqualified_is_residual(self, left_rel, right_rel):
        # `id` exists on both sides: not safely attributable
        pairs, residual = split_equi_condition(
            parse("id = R.id"), left_rel, right_rel
        )
        assert pairs == [] and len(residual) == 1

    def test_non_equality_is_residual(self, left_rel, right_rel):
        pairs, residual = split_equi_condition(
            parse("L.id < R.id"), left_rel, right_rel
        )
        assert pairs == [] and len(residual) == 1


def run_join(condition, kind, left_rows, right_rows):
    left_rel = relation("L", ("id", "int"), ("v", "float"))
    right_rel = relation("R", ("id", "int"), ("w", "float"))
    g = OhmGraph()
    s1 = g.add(Source(left_rel))
    s2 = g.add(Source(right_rel))
    j = g.add(Join(condition, kind=kind))
    bp = g.add(BasicProject([
        ("lid", "L.id"), ("v", "v"), ("rid", "R.id"), ("w", "w"),
    ]))
    t = g.add(Target(relation(
        "Out", ("lid", "int"), ("v", "float"), ("rid", "int"), ("w", "float"),
    )))
    g.connect(s1, j, name="L")
    g.connect(s2, j, dst_port=1, name="R")
    g.chain(j, bp, t)
    instance = Instance([
        Dataset(left_rel, left_rows), Dataset(right_rel, right_rows),
    ])
    return OhmExecutor().execute(g, instance).dataset("Out")


row_lists = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
            "v": st.floats(min_value=0, max_value=10, allow_nan=False,
                           width=16),
        }
    ),
    max_size=10,
)


class TestHashVsNestedLoopEquivalence:
    """The hash path (pure equi-join) must agree with the nested-loop
    path (forced via a tautological non-equi residual)."""

    @pytest.mark.parametrize("kind", ["inner", "left", "right", "full"])
    @given(left=row_lists, right=row_lists)
    @settings(max_examples=25, deadline=None)
    def test_all_join_kinds(self, kind, left, right):
        right = [{"id": r["id"], "w": r["v"]} for r in right]
        hashed = run_join("L.id = R.id", kind, left, right)
        # appending a tautology leaves no pure-equi fast path... it stays
        # a residual, but the equi pair still hashes; force pure nested
        # loop with a >=-shaped equivalent instead
        looped = run_join(
            "L.id <= R.id AND L.id >= R.id", kind, left, right
        )
        assert hashed.same_bag(looped)

    @given(left=row_lists, right=row_lists)
    @settings(max_examples=25, deadline=None)
    def test_residual_predicates(self, left, right):
        right = [{"id": r["id"], "w": r["v"]} for r in right]
        mixed = run_join("L.id = R.id AND L.v < R.w", "inner", left, right)
        looped = run_join(
            "L.id <= R.id AND L.id >= R.id AND L.v < R.w", "inner",
            left, right,
        )
        assert mixed.same_bag(looped)


class TestNullSemantics:
    def test_null_keys_never_match(self):
        out = run_join(
            "L.id = R.id", "inner",
            [{"id": None, "v": 1.0}, {"id": 1, "v": 2.0}],
            [{"id": None, "w": 3.0}, {"id": 1, "w": 4.0}],
        )
        assert len(out) == 1
        assert out.rows[0]["lid"] == 1

    def test_null_keys_padded_in_outer_joins(self):
        out = run_join(
            "L.id = R.id", "full",
            [{"id": None, "v": 1.0}],
            [{"id": None, "w": 2.0}],
        )
        assert len(out) == 2  # both unmatched, both padded

    def test_int_float_keys_join(self):
        left_rel = relation("L", ("k", "float"))
        right_rel = relation("R", ("k", "int"))
        g = OhmGraph()
        s1 = g.add(Source(left_rel))
        s2 = g.add(Source(right_rel))
        j = g.add(Join("L.k = R.k"))
        t = g.add(Target(relation("Out", ("L.k", "float"), ("R.k", "int"))))
        g.connect(s1, j, name="L")
        g.connect(s2, j, dst_port=1, name="R")
        g.connect(j, t)
        instance = Instance([
            Dataset(left_rel, [{"k": 2.0}]),
            Dataset(right_rel, [{"k": 2}]),
        ])
        assert len(OhmExecutor().execute(g, instance).dataset("Out")) == 1

"""Unit tests for the RowBlock container and the block kernels.

Mirrors :mod:`tests.exec.test_kernels` over the columnar tier: the same
fixtures, the same expected outputs (the kernels must agree row-for-row
with the row path), plus the container's structural contracts — column
aliasing survives slice/take, NULL keys group.
"""

import pytest

from repro.data.dataset import Dataset
from repro.errors import ExecutionError
from repro.etl.stages import RemoveDuplicatesStage
from repro.exec import ExpressionPlanner, block, kernels
from repro.exec.block import RowBlock, relation_resolver
from repro.exec.compile_block import (
    aggregate_values_reducer,
    compile_block_expr,
    compile_block_predicate,
)
from repro.expr.ast import AggregateCall, ColumnRef
from repro.expr.parser import parse
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.ohm.operators import Filter, Project
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, STRING

ROWS = [
    {"id": 1, "grp": "a", "v": 10},
    {"id": 2, "grp": "b", "v": None},
    {"id": 3, "grp": "a", "v": 30},
    {"id": 4, "grp": None, "v": 40},
    {"id": 5, "grp": None, "v": 50},
]
NAMES = ["id", "grp", "v"]
RESOLVE = relation_resolver("T", NAMES)


def make_block(rows=ROWS):
    return RowBlock.from_rows(NAMES, rows)


def predicate(sql):
    fn = compile_block_predicate(parse(sql), None, RESOLVE)
    assert fn is not None, sql
    return fn


def scalar(sql):
    fn = compile_block_expr(parse(sql), None, RESOLVE)
    assert fn is not None, sql
    return fn


def ids(blk):
    return blk.columns["id"]


# filtering, projection and deduplication have no kernel of their own:
# on the compiled tier they are the operator's chain body
T_REL = Relation(
    "T",
    [Attribute("id", INTEGER), Attribute("grp", STRING), Attribute("v", INTEGER)],
)


def block_tier_operator(op, out_relation=T_REL):
    """``op`` over ROWS at the compiled tier; the input block and the
    output chain, gathered."""
    data = Dataset.adopt_block(T_REL, make_block())
    executor = OhmExecutor(compiled=True)
    (out,) = executor.run_operator(op, [data], [out_relation])
    assert out.peek_fused() is not None
    return data.peek_block(), out.as_block()


# --- container ----------------------------------------------------------------


def test_from_rows_to_rows_round_trip():
    blk = make_block()
    assert blk.length == len(blk) == len(ROWS)
    assert blk.names == NAMES
    assert blk.to_rows() == ROWS
    # explicit name order prevails and missing keys are an error upstream
    assert blk.to_rows(["v", "id"]) == [
        {"v": r["v"], "id": r["id"]} for r in ROWS
    ]
    assert RowBlock({}, 0).to_rows() == []


def test_take_gathers_aliased_columns_once():
    shared = ["a", "b", "c"]
    blk = RowBlock({"x": shared, "y": shared, "z": [1, 2, 3]}, 3)
    out = blk.take([2, 0])
    assert out.columns["x"] == ["c", "a"]
    assert out.columns["x"] is out.columns["y"]
    assert out.columns["z"] == [3, 1]
    assert out.length == 2


# --- selection kernels --------------------------------------------------------


def test_filter_block_drops_unknown():
    _blk, out = block_tier_operator(Filter("v > 15"))
    assert ids(out) == [3, 4, 5]  # NULL v filters out


def test_project_block_pass_through_aliasing():
    out_relation = Relation(
        "P", [Attribute("double", INTEGER), Attribute("v", INTEGER)]
    )
    blk, out = block_tier_operator(
        Project([("double", "id * 2"), ("v", "v")]), out_relation
    )
    assert out.to_rows(["double", "v"]) == [
        {"double": r["id"] * 2, "v": r["v"]} for r in ROWS
    ]
    # a bare column reference costs nothing: the output aliases the input
    assert out.columns["v"] is blk.columns["v"]


def test_route_block_fallback_and_only_once():
    specs = [
        ("pred", predicate("id < 3")),
        ("pred", predicate("id < 5")),
        ("fallback", None),
    ]
    blk = make_block()
    outs = block.route_block(blk, specs)
    assert outs == [[0, 1], [0, 1, 2, 3], [4]]
    once = block.route_block(blk, specs, only_once=True)
    assert once == [[0, 1], [2, 3], [4]]


def test_route_block_always_does_not_count_as_match():
    specs = [
        ("always", None),
        ("pred", predicate("id = 1")),
        ("fallback", None),
    ]
    outs = block.route_block(make_block(), specs)
    assert outs == [[0, 1, 2, 3, 4], [0], [1, 2, 3, 4]]


def test_route_block_no_predicates_never_falls_back():
    outs = block.route_block(
        make_block(), [("always", None), ("fallback", None)]
    )
    assert outs == [[0, 1, 2, 3, 4], []]


def test_switch_block_first_match_and_default():
    outs = block.switch_block(
        make_block(), scalar("grp"), ["a", "b"], True
    )
    assert outs == [[0, 2], [1], [3, 4]]  # NULL selector → default
    no_default = block.switch_block(
        make_block(), scalar("grp"), ["a", "b"], False
    )
    assert no_default == [[0, 2], [1]]


# --- grouping kernels ---------------------------------------------------------


def _sum_aggregate(name, column):
    return (
        name,
        scalar(column),
        aggregate_values_reducer(AggregateCall("SUM", ColumnRef(column))),
    )


def test_group_aggregate_block_null_keys_and_count_star():
    out = block.group_aggregate_block(
        make_block(), ["grp"], [_sum_aggregate("total", "v"), ("n", None, None)]
    )
    assert out.to_rows(["grp", "total", "n"]) == [
        {"grp": "a", "total": 40, "n": 2},
        {"grp": "b", "total": None, "n": 1},
        {"grp": None, "total": 90, "n": 2},
    ]


def test_group_aggregate_block_numeric_keys_collide_like_rows():
    rows = [{"id": 1, "grp": 1, "v": 5}, {"id": 2, "grp": 1.0, "v": 7}]
    out = block.group_aggregate_block(
        RowBlock.from_rows(NAMES, rows), ["grp"], [("n", None, None)]
    )
    assert out.length == 1  # 1 and 1.0 are one group, like the row kernel
    assert out.columns["n"] == [2]


def test_dedup_block_first_and_last():
    planner = ExpressionPlanner(compiled=True)

    def dedup(retain):
        data = Dataset.adopt_block(T_REL, make_block())
        (out,) = RemoveDuplicatesStage(["grp"], retain).execute(
            [data], [T_REL], planner
        )
        return out.as_block()

    assert ids(dedup("first")) == [1, 2, 4]
    assert ids(dedup("last")) == [3, 2, 5]


def test_union_block_distinct():
    a = RowBlock.from_rows(["x", "y"], [{"x": 1, "y": "p"}])
    b = RowBlock.from_rows(
        ["x", "y"], [{"x": 1, "y": "p"}, {"x": None, "y": "q"}]
    )
    out = block.union_block([a, b], ["x", "y"], distinct=True)
    assert out.to_rows() == [{"x": 1, "y": "p"}, {"x": None, "y": "q"}]
    bag = block.union_block([a, b], ["x", "y"])
    assert bag.length == 3


def test_sort_block_matches_row_kernel_permutation():
    for keys in [
        [("grp", "asc"), ("id", "desc")],
        [("grp", "desc"), ("id", "asc")],
        [("v", "desc")],
    ]:
        expected = [r["id"] for r in kernels.sort_rows(ROWS, keys)]
        blk = make_block()
        order = block.sort_permutation(blk, keys)
        assert ids(blk.take(order)) == expected, keys


# --- joins --------------------------------------------------------------------

LEFT_REL = Relation("L", [Attribute("k", INTEGER), Attribute("s", STRING)])
RIGHT_REL = Relation("R", [Attribute("k", INTEGER), Attribute("t", STRING)])
LEFT_ROWS = [
    {"k": 1, "s": "x"},
    {"k": 2, "s": "y"},
    {"k": None, "s": "z"},
]
RIGHT_ROWS = [
    {"k": 1.0, "t": "hit"},
    {"k": None, "t": "nope"},
    {"k": 3, "t": "miss"},
]
JOIN_PLAN = [("s", "left", "s"), ("t", "right", "t")]


def _join(kind, condition="L.k = R.k"):
    return block.hash_join_block(
        RowBlock.from_rows(["k", "s"], LEFT_ROWS),
        RowBlock.from_rows(["k", "t"], RIGHT_ROWS),
        LEFT_REL,
        RIGHT_REL,
        parse(condition),
        kind,
        JOIN_PLAN,
        # pinned so the kernel is exercised regardless of the process
        # mode defaults (REPRO_COMPILED=0 would otherwise disable it)
        ExpressionPlanner(compiled=True),
    )


def test_hash_join_block_kinds_match_row_kernel():
    for kind, expected in [
        ("inner", [("x", "hit")]),
        ("left", [("x", "hit"), ("y", None), ("z", None)]),
        ("right", [("x", "hit"), (None, "nope"), (None, "miss")]),
        (
            "full",
            [
                ("x", "hit"),
                ("y", None),
                ("z", None),
                (None, "nope"),
                (None, "miss"),
            ],
        ),
    ]:
        out = _join(kind)
        assert out is not None, kind
        assert list(zip(out.columns["s"], out.columns["t"])) == expected, kind


def test_hash_join_block_falls_back_without_equi_keys():
    assert _join("inner", "L.k < R.k") is None  # no equi-conjunct
    assert _join("inner", "L.k = R.k AND L.s <> R.t") is None  # residual


def test_lookup_block_failure_modes():
    stream = RowBlock.from_rows(["k", "s"], LEFT_ROWS)
    reference = RowBlock.from_rows(["k", "t"], RIGHT_ROWS)
    kept = block.lookup_block(
        stream, reference, [("k", "k")], ["t"], "continue"
    )
    # raw-tuple keys: 1 matches 1.0 and NULL matches NULL — exactly the
    # row-path Lookup stage's dict semantics
    assert kept.to_rows(["s", "t"]) == [
        {"s": "x", "t": "hit"},
        {"s": "y", "t": None},
        {"s": "z", "t": "nope"},
    ]
    dropped = block.lookup_block(
        stream, reference, [("k", "k")], ["t"], "drop"
    )
    assert dropped.to_rows(["s", "t"]) == [
        {"s": "x", "t": "hit"},
        {"s": "z", "t": "nope"},
    ]
    with pytest.raises(ExecutionError, match="Lookup"):
        block.lookup_block(
            stream, reference, [("k", "k")], ["t"], "fail", label="lk"
        )


def test_lookup_block_first_reference_match_wins():
    stream = RowBlock.from_rows(["k"], [{"k": 7}])
    reference = RowBlock.from_rows(
        ["k", "t"], [{"k": 7, "t": "first"}, {"k": 7, "t": "second"}]
    )
    out = block.lookup_block(stream, reference, [("k", "k")], ["t"], "fail")
    assert out.columns["t"] == ["first"]


# --- observability ------------------------------------------------------------


def test_block_kernels_record_row_counts():
    obs = Observability(stats=True)
    specs = [("pred", predicate("id < 3")), ("fallback", None)]
    block.route_block(make_block(), specs, obs=obs)
    assert obs.metrics.counter("exec.block.route.rows_in") == len(ROWS)
    assert obs.metrics.counter("exec.block.route.rows_out") == len(ROWS)
    assert obs.metrics.counter("exec.block.route.blocks_in") == 1
    assert obs.metrics.counter("exec.block.route.blocks_out") == 2

"""Unit tests for the shared batch kernels."""

from repro.exec import ExpressionPlanner, kernels
from repro.expr.parser import parse
from repro.obs import Observability
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, STRING

PLANNER = ExpressionPlanner()

ROWS = [
    {"id": 1, "grp": "a", "v": 10},
    {"id": 2, "grp": "b", "v": None},
    {"id": 3, "grp": "a", "v": 30},
    {"id": 4, "grp": None, "v": 40},
    {"id": 5, "grp": None, "v": 50},
]


def bind():
    return kernels.row_binder("T")


def test_group_key_value_nulls_and_numbers():
    assert kernels.group_key_value(None) == kernels.group_key_value(None)
    assert kernels.group_key_value(1) == kernels.group_key_value(1.0)
    assert kernels.group_key_value(True) != kernels.group_key_value(1)
    assert kernels.group_key_value("1") != kernels.group_key_value(1)


def test_filter_rows_drops_unknown():
    kept = kernels.filter_rows(
        ROWS, PLANNER.predicate(parse("v > 15")), bind()
    )
    assert [r["id"] for r in kept] == [3, 4, 5]  # NULL v drops


def test_filter_rows_qualified_reference():
    kept = kernels.filter_rows(
        ROWS, PLANNER.predicate(parse("T.id <= 2")), bind()
    )
    assert [r["id"] for r in kept] == [1, 2]


def test_project_rows_with_defaults():
    out = kernels.project_rows(
        ROWS[:2],
        [("double", PLANNER.scalar(parse("id * 2")))],
        bind(),
        defaults={"extra": None, "double": 0},
    )
    assert out == [
        {"extra": None, "double": 2},
        {"extra": None, "double": 4},
    ]


def test_route_rows_fallback_and_only_once():
    specs = [
        ("pred", PLANNER.predicate(parse("id < 3"))),
        ("pred", PLANNER.predicate(parse("id < 5"))),
        ("fallback", None),
    ]
    outs = kernels.route_rows(ROWS, specs, bind())
    assert [r["id"] for r in outs[0]] == [1, 2]
    assert [r["id"] for r in outs[1]] == [1, 2, 3, 4]
    assert [r["id"] for r in outs[2]] == [5]
    once = kernels.route_rows(ROWS, specs, bind(), only_once=True)
    assert [r["id"] for r in once[0]] == [1, 2]
    assert [r["id"] for r in once[1]] == [3, 4]  # 1,2 already matched
    assert [r["id"] for r in once[2]] == [5]


def test_route_rows_always_does_not_count_as_match():
    specs = [
        ("always", None),
        ("pred", PLANNER.predicate(parse("id = 1"))),
        ("fallback", None),
    ]
    outs = kernels.route_rows(ROWS, specs, bind())
    assert len(outs[0]) == len(ROWS)
    assert [r["id"] for r in outs[1]] == [1]
    assert [r["id"] for r in outs[2]] == [2, 3, 4, 5]


def test_route_rows_no_predicates_never_falls_back():
    outs = kernels.route_rows(ROWS, [("always", None), ("fallback", None)], bind())
    assert len(outs[0]) == len(ROWS)
    assert outs[1] == []


def test_switch_rows_first_match_and_default():
    outs = kernels.switch_rows(
        ROWS, PLANNER.scalar(parse("grp")), ["a", "b"], True, bind()
    )
    assert [r["id"] for r in outs[0]] == [1, 3]
    assert [r["id"] for r in outs[1]] == [2]
    assert [r["id"] for r in outs[2]] == [4, 5]  # NULL selector → default


def test_group_aggregate_rows():
    out = kernels.group_aggregate_rows(
        ROWS,
        ["grp"],
        [("total", PLANNER.aggregate(parse("SUM(v)")))],
    )
    assert out == [
        {"grp": "a", "total": 40},
        {"grp": "b", "total": None},
        {"grp": None, "total": 90},
    ]


def test_dedup_rows_first_and_last():
    first = kernels.dedup_rows(ROWS, ["grp"], "first")
    assert [r["id"] for r in first] == [1, 2, 4]
    last = kernels.dedup_rows(ROWS, ["grp"], "last")
    assert [r["id"] for r in last] == [3, 2, 5]


def test_union_rows_distinct():
    rows = kernels.union_rows(
        [[{"x": 1, "y": "p"}], [{"x": 1, "y": "p"}, {"x": None, "y": "q"}]],
        ["x", "y"],
        distinct=True,
    )
    assert rows == [{"x": 1, "y": "p"}, {"x": None, "y": "q"}]


def test_sort_rows_null_placement():
    # NULLs sort last in both directions
    rows = kernels.sort_rows(ROWS, [("grp", "asc"), ("id", "desc")])
    assert [r["id"] for r in rows] == [3, 1, 2, 5, 4]
    rows = kernels.sort_rows(ROWS, [("grp", "desc"), ("id", "asc")])
    assert [r["id"] for r in rows] == [2, 1, 3, 4, 5]


def test_sort_rows_mixed_types_nulls_last():
    # regression: a column mixing ints, strings, and NULLs must order
    # deterministically (numbers, then strings by type name, NULLs last)
    # instead of raising or placing NULLs first
    mixed = [
        {"id": 1, "k": "b"},
        {"id": 2, "k": None},
        {"id": 3, "k": 10},
        {"id": 4, "k": "a"},
        {"id": 5, "k": 2},
        {"id": 6, "k": None},
    ]
    ascending = kernels.sort_rows(mixed, [("k", "asc"), ("id", "asc")])
    assert [r["id"] for r in ascending] == [5, 3, 4, 1, 2, 6]
    descending = kernels.sort_rows(mixed, [("k", "desc"), ("id", "asc")])
    assert [r["id"] for r in descending] == [1, 4, 3, 5, 2, 6]


def test_nest_unnest_round_trip():
    nested = kernels.nest_rows(ROWS, ["grp"], ["id", "v"], "members")
    assert nested[0]["grp"] == "a"
    assert nested[0]["members"] == [{"id": 1, "v": 10}, {"id": 3, "v": 30}]
    flat = kernels.unnest_rows(nested, "members", ["grp"])
    assert sorted(r["id"] for r in flat) == [1, 2, 3, 4, 5]


def test_hash_join_and_residual():
    left_rel = Relation("L", [Attribute("k", INTEGER), Attribute("s", STRING)])
    right_rel = Relation("R", [Attribute("k", INTEGER), Attribute("t", STRING)])
    left = [
        {"k": 1, "s": "x"},
        {"k": 2, "s": "y"},
        {"k": None, "s": "z"},
    ]
    right = [
        {"k": 1.0, "t": "hit"},
        {"k": None, "t": "nope"},
        {"k": 3, "t": "miss"},
    ]
    condition = parse("L.k = R.k")

    def merge(lr, rr):
        return {
            "k": None if lr is None else lr["k"],
            "s": None if lr is None else lr["s"],
            "t": None if rr is None else rr["t"],
        }

    for kind, expected in [
        ("inner", [("x", "hit")]),
        ("left", [("x", "hit"), ("y", None), ("z", None)]),
        ("full", [("x", "hit"), ("y", None), ("z", None), (None, "nope"), (None, "miss")]),
    ]:
        out = []
        kernels.hash_join(
            left, right, left_rel, right_rel, condition, kind,
            merge, out.append, ExpressionPlanner(),
        )
        assert [(r["s"], r["t"]) for r in out] == expected, kind


def test_kernels_record_row_counts():
    obs = Observability(stats=True)
    kernels.filter_rows(ROWS, PLANNER.predicate(parse("id < 3")), bind(), obs=obs)
    assert obs.metrics.counter("exec.kernel.filter.rows_in") == len(ROWS)
    assert obs.metrics.counter("exec.kernel.filter.rows_out") == 2

"""Evaluator ↔ column compiler parity: the pinned corner cases.

The tree-walking evaluator is the single oracle: every row closure a
planner hands out is the evaluator, and the column compiler
(:func:`compile_block_expr`) is the one lowering checked against it —
same values (including SQL three-valued logic over NULL), same Python
types, and an :class:`EvaluationError` exactly when the evaluator
raises one. Seeded random expressions (the generators of
:mod:`tests.exec.test_block_parity`, other seeds) check both directions,
then the classic three-valued-logic corner cases are pinned explicitly.
"""

import random

import pytest

from repro.errors import EvaluationError
from repro.exec import ExpressionPlanner, block
from repro.exec.block import RowBlock, relation_resolver
from repro.exec.compile_block import aggregate_values_reducer, compile_block_expr
from repro.expr.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    Like,
    Literal,
    UnaryOp,
)
from repro.expr.evaluator import evaluate, evaluate_aggregate
from tests.exec.test_block_parity import (
    NAMES,
    RELATION,
    ROWS,
    block_for,
    check_block_parity,
    env_for,
    gen_boolean,
    gen_numeric,
    gen_string,
)

check_parity = check_block_parity


def column_value(expr, row=ROWS[0]):
    """``expr``'s column function over a one-row block, checked equal to
    the evaluator's value on that row."""
    fn = compile_block_expr(expr, None, relation_resolver(RELATION, NAMES))
    (value,) = fn(block_for([row]))
    assert value == evaluate(expr, env_for(row)), expr.to_sql()
    return value


def outcome(fn):
    """(value, error type) of ``fn()``."""
    try:
        return fn(), None
    except EvaluationError as exc:
        return None, type(exc)


@pytest.mark.parametrize("seed", range(40))
def test_random_numeric_parity(seed):
    rng = random.Random(seed)
    for _ in range(8):
        check_parity(gen_numeric(rng, rng.randint(1, 4)))


@pytest.mark.parametrize("seed", range(40))
def test_random_boolean_parity(seed):
    rng = random.Random(seed + 1000)
    for _ in range(8):
        check_parity(gen_boolean(rng, rng.randint(1, 4)))


@pytest.mark.parametrize("seed", range(20))
def test_random_string_parity(seed):
    rng = random.Random(seed + 2000)
    for _ in range(8):
        check_parity(gen_string(rng, rng.randint(1, 4)))


def test_interpreting_planner_matches_compiling_planner():
    """A compiled planner's column function and the oracle planner's row
    closure agree on every row, errors included."""
    rng = random.Random(7)
    compiled = ExpressionPlanner(compiled=True)
    interpreted = ExpressionPlanner(compiled=False)
    resolve = relation_resolver(RELATION, NAMES)
    for _ in range(50):
        expr = gen_boolean(rng, 3)
        column = compiled.block_scalar(expr, resolve)
        row_closure = interpreted.scalar(expr)
        assert column is not None, expr.to_sql()
        for row in ROWS:
            got = outcome(lambda: column(block_for([row]))[0])
            want = outcome(lambda: row_closure(env_for(row)))
            assert got == want, expr.to_sql()


# --- pinned three-valued-logic corner cases ----------------------------------


TVL = [True, False, None]


def test_and_or_not_truth_tables():
    for x in TVL:
        for y in TVL:
            check_parity(
                BinaryOp("AND", Literal(x), Literal(y)), rows=[ROWS[0]]
            )
            check_parity(
                BinaryOp("OR", Literal(x), Literal(y)), rows=[ROWS[0]]
            )
        check_parity(UnaryOp("NOT", Literal(x)), rows=[ROWS[0]])


def test_null_comparisons_are_unknown():
    expr = BinaryOp("=", ColumnRef("b"), Literal(2))
    assert column_value(expr, ROWS[1]) is None  # b is NULL → unknown
    check_parity(expr)


def test_in_list_null_semantics():
    # 5 IN (1, NULL) is unknown, 1 IN (1, NULL) is true
    assert column_value(InList(Literal(5), [Literal(1), Literal(None)])) is None
    assert column_value(InList(Literal(1), [Literal(1), Literal(None)])) is True
    # NOT IN flips true/false but keeps unknown
    assert (
        column_value(InList(Literal(5), [Literal(1), Literal(None)], negated=True))
        is None
    )
    # the same over a column, where the list is swept, not folded
    check_parity(InList(ColumnRef("a"), [Literal(1), Literal(None)]))


def test_between_null_semantics():
    # 5 BETWEEN NULL AND 10 is unknown; 20 BETWEEN NULL AND 10 is false
    assert column_value(Between(Literal(5), Literal(None), Literal(10))) is None
    assert column_value(Between(Literal(20), Literal(None), Literal(10))) is False
    check_parity(Between(ColumnRef("a"), Literal(None), Literal(10)))


def test_like_null_semantics():
    assert column_value(Like(Literal(None), Literal("%a%"))) is None
    assert column_value(Like(Literal("abc"), Literal("a%"))) is True
    check_parity(Like(ColumnRef("s"), Literal("a%")))


def test_error_parity_division_by_zero():
    expr = BinaryOp("/", ColumnRef("a"), Literal(0))
    check_parity(expr)


def test_error_parity_unknown_column():
    # the column compiler declines what it cannot resolve, so the
    # operator runs its row body: the evaluator's own error, per row
    expr = ColumnRef("nope")
    resolve = relation_resolver(RELATION, NAMES)
    assert compile_block_expr(expr, None, resolve) is None
    for row in ROWS:
        with pytest.raises(EvaluationError, match="unbound column"):
            evaluate(expr, env_for(row))


def test_error_parity_incomparable_types():
    expr = BinaryOp(">", Literal("x"), Literal(1))
    check_parity(expr)


def test_null_propagating_call_still_evaluates_later_args():
    # the oracle evaluates every argument even when the first one is
    # NULL — an error in a later argument must surface identically
    expr = FunctionCall(
        "MOD", [Literal(None), BinaryOp("/", Literal(1), Literal(0))]
    )
    check_parity(expr, rows=[ROWS[0]])


def test_aggregate_parity():
    """The grouped column kernel folds each group to what the evaluator
    folds it to, for every aggregate, DISTINCT or not."""
    rows = [
        {"k": 1, "v": 3},
        {"k": 2, "v": None},
        {"k": 1, "v": 3},
        {"k": 2, "v": 1.5},
        {"k": 3, "v": None},
        {"k": 1, "v": 7},
    ]
    groups = {}
    for row in rows:
        groups.setdefault(row["k"], []).append(row)
    resolve = relation_resolver(None, ["k", "v"])
    calls = [
        AggregateCall(func, ColumnRef("v"), distinct)
        for func in ["COUNT", "SUM", "AVG", "MIN", "MAX", "FIRST", "LAST"]
        for distinct in (False, True)
    ] + [AggregateCall("COUNT", None)]
    lowered = [
        (
            f"a{i}",
            None if agg.arg is None else compile_block_expr(agg.arg, None, resolve),
            None if agg.arg is None else aggregate_values_reducer(agg),
        )
        for i, agg in enumerate(calls)
    ]
    grouped = block.group_aggregate_block(
        RowBlock.from_rows(["k", "v"], rows), ["k"], lowered
    )
    assert grouped.columns["k"] == list(groups)
    for i, agg in enumerate(calls):
        expected = [evaluate_aggregate(agg, members) for members in groups.values()]
        assert grouped.columns[f"a{i}"] == expected, agg.to_sql()
    assert evaluate_aggregate(AggregateCall("SUM", ColumnRef("v")), []) is None

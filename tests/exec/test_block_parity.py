"""Randomized evaluator ↔ column compiler and engine-mode parity suite.

The columnar tier must be observationally identical to the oracle:
:func:`compile_block_expr` evaluated over a :class:`RowBlock` must
return exactly what the tree-walking evaluator returns row by row
(values, Python types, SQL three-valued logic, and errors), and the
compiled tier's block kernels must compute the oracle's instances for
every runtime.

The seeded expression generators and NULL-heavy sample rows live here;
:mod:`tests.exec.test_parity` pins the NULL and error corner cases with
them.
"""

import random

import pytest

from repro.errors import EvaluationError
from repro.etl.engine import EtlEngine
from repro.exec.block import RowBlock, relation_resolver
from repro.exec.compile_block import (
    aggregate_values_reducer,
    compile_block_expr,
    compile_block_predicate,
    is_foldable,
)
from repro.expr.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.expr.evaluator import (
    Environment,
    evaluate,
    evaluate_aggregate,
    evaluate_predicate,
)
from repro.expr.parser import parse
from repro.fasttrack.orchid import Orchid
from repro.mapping.executor import MappingExecutor
from repro.obs import Observability
from repro.ohm.engine import OhmExecutor
from repro.workloads import (
    build_example_job,
    build_kitchen_sink_job,
    generate_instance,
    generate_kitchen_sink_instance,
)

RELATION = "T"

#: NULL-heavy sample rows: every column is NULL somewhere.
ROWS = [
    {"a": 1, "b": 2, "f": 1.5, "s": "alpha", "flag": True},
    {"a": 0, "b": None, "f": -2.25, "s": "Beta", "flag": False},
    {"a": -7, "b": 100, "f": 0.0, "s": None, "flag": None},
    {"a": None, "b": 3, "f": None, "s": "", "flag": True},
    {"a": 42, "b": -1, "f": 3.5, "s": "a%b_c", "flag": None},
    {"a": None, "b": None, "f": None, "s": None, "flag": None},
]

INT_COLUMNS = ["a", "b"]
FLOAT_COLUMNS = ["f"]
STR_COLUMNS = ["s"]
NAMES = list(ROWS[0])


def env_for(row):
    return Environment(row).bind(RELATION, row)


def oracle(expr, row):
    """(value, error_type) of the evaluator on one row."""
    try:
        return evaluate(expr, env_for(row)), None
    except EvaluationError as exc:
        return None, type(exc)


# --- random expression generator ---------------------------------------------


def gen_numeric(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return ColumnRef(
                rng.choice(INT_COLUMNS + FLOAT_COLUMNS),
                qualifier=RELATION if rng.random() < 0.3 else None,
            )
        if choice < 0.5:
            return Literal(None)
        if choice < 0.8:
            return Literal(rng.randint(-10, 10))
        return Literal(round(rng.uniform(-5, 5), 2))
    choice = rng.random()
    if choice < 0.6:
        op = rng.choice(["+", "-", "*", "/", "%"])
        return BinaryOp(
            op, gen_numeric(rng, depth - 1), gen_numeric(rng, depth - 1)
        )
    if choice < 0.7:
        return UnaryOp("-", gen_numeric(rng, depth - 1))
    if choice < 0.85:
        return FunctionCall("ABS", [gen_numeric(rng, depth - 1)])
    return Case(
        [(gen_boolean(rng, depth - 1), gen_numeric(rng, depth - 1))],
        gen_numeric(rng, depth - 1),
    )


def gen_string(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return ColumnRef(rng.choice(STR_COLUMNS))
        return Literal(rng.choice(["x", "alpha", "", "%", None]))
    choice = rng.random()
    if choice < 0.4:
        return BinaryOp(
            "||", gen_string(rng, depth - 1), gen_string(rng, depth - 1)
        )
    if choice < 0.7:
        return FunctionCall(
            rng.choice(["UPPER", "LOWER", "TRIM"]),
            [gen_string(rng, depth - 1)],
        )
    return FunctionCall(
        "COALESCE", [gen_string(rng, depth - 1), gen_string(rng, depth - 1)]
    )


def gen_boolean(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ColumnRef("flag")
        return Literal(rng.choice([True, False, None]))
    choice = rng.random()
    if choice < 0.3:
        op = rng.choice(["AND", "OR"])
        return BinaryOp(
            op, gen_boolean(rng, depth - 1), gen_boolean(rng, depth - 1)
        )
    if choice < 0.45:
        return UnaryOp("NOT", gen_boolean(rng, depth - 1))
    if choice < 0.6:
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        return BinaryOp(
            op, gen_numeric(rng, depth - 1), gen_numeric(rng, depth - 1)
        )
    if choice < 0.7:
        return IsNull(
            gen_numeric(rng, depth - 1), negated=rng.random() < 0.5
        )
    if choice < 0.8:
        return InList(
            gen_numeric(rng, depth - 1),
            [
                Literal(rng.choice([1, 2, 42, None, -7]))
                for _ in range(rng.randint(1, 3))
            ],
            negated=rng.random() < 0.5,
        )
    if choice < 0.9:
        return Between(
            gen_numeric(rng, depth - 1),
            gen_numeric(rng, depth - 1),
            gen_numeric(rng, depth - 1),
            negated=rng.random() < 0.5,
        )
    return Like(
        gen_string(rng, depth - 1),
        Literal(rng.choice(["%a%", "a_b%", "", "%", "alpha"])),
        negated=rng.random() < 0.5,
    )


def block_for(rows):
    return RowBlock.from_rows(NAMES, rows)


def check_block_parity(expr, rows=ROWS):
    """The block compiler must agree with the row oracle on every row:
    same value, same Python type, same error class, same WHERE flag."""
    resolve = relation_resolver(RELATION, NAMES)
    fn = compile_block_expr(expr, None, resolve)
    predicate = compile_block_predicate(expr, None, resolve)
    # everything the generators emit is lowerable — a silent fallback
    # here would quietly skip the whole parity check
    assert fn is not None, expr.to_sql()
    expected = [oracle(expr, row) for row in rows]
    for row, (value, error) in zip(rows, expected):
        single = block_for([row])
        if error is not None:
            with pytest.raises(error):
                fn(single)
            continue
        (actual,) = fn(single)
        assert actual == value, (expr.to_sql(), row, actual, value)
        assert type(actual) is type(value), (expr.to_sql(), row)
        (flag,) = predicate(single)
        assert flag == evaluate_predicate(expr, env_for(row))
    if not any(error for _v, error in expected):
        # whole-block evaluation must equal the row-wise transcript too
        # (chunking/zip bugs don't show up on single-row blocks)
        assert fn(block_for(rows)) == [value for value, _e in expected]


@pytest.mark.parametrize("seed", range(30))
def test_random_numeric_block_parity(seed):
    rng = random.Random(seed + 5000)
    for _ in range(8):
        check_block_parity(gen_numeric(rng, rng.randint(1, 4)))


@pytest.mark.parametrize("seed", range(30))
def test_random_boolean_block_parity(seed):
    rng = random.Random(seed + 6000)
    for _ in range(8):
        check_block_parity(gen_boolean(rng, rng.randint(1, 4)))


@pytest.mark.parametrize("seed", range(15))
def test_random_string_block_parity(seed):
    rng = random.Random(seed + 7000)
    for _ in range(8):
        check_block_parity(gen_string(rng, rng.randint(1, 4)))


# --- fallback and error-deferral contracts ------------------------------------


def test_unresolvable_column_falls_back_to_rows():
    expr = ColumnRef("nope")
    resolve = relation_resolver(RELATION, NAMES)
    assert compile_block_expr(expr, None, resolve) is None
    assert compile_block_predicate(expr, None, resolve) is None


def test_non_constant_in_list_falls_back_to_rows():
    # the row path evaluates IN items lazily per row — only a constant
    # list is expressible as a column function
    expr = InList(ColumnRef("a"), [ColumnRef("b")])
    assert (
        compile_block_expr(expr, None, relation_resolver(RELATION, NAMES))
        is None
    )


def test_aggregate_call_falls_back_to_rows():
    expr = AggregateCall("SUM", ColumnRef("a"))
    assert (
        compile_block_expr(expr, None, relation_resolver(RELATION, NAMES))
        is None
    )


def test_is_foldable():
    assert is_foldable(parse("1 + 2 * 3"))
    assert is_foldable(parse("'a' || 'b'"))
    assert not is_foldable(parse("a + 1"))
    assert not is_foldable(parse("UPPER('x')"))  # functions may be impure
    assert not is_foldable(AggregateCall("SUM", ColumnRef("v")))


def test_foldable_error_defers_and_skips_empty_blocks():
    # the row path raises 1/0 once per row — and therefore not at all
    # over zero rows; the block function must match both behaviours
    expr = BinaryOp("/", Literal(1), Literal(0))
    fn = compile_block_expr(expr, None, relation_resolver(RELATION, NAMES))
    assert fn(block_for([])) == []
    with pytest.raises(EvaluationError):
        fn(block_for(ROWS))


def test_case_laziness_matches_row_path():
    # CASE must evaluate each WHEN's value only on matching rows: the
    # row oracle never divides by zero for a = 1, so neither may the
    # block path even though other rows take the error-free branch
    expr = Case(
        [
            (
                BinaryOp("=", ColumnRef("a"), Literal(1)),
                Literal(99),
            )
        ],
        BinaryOp("/", Literal(100), ColumnRef("a")),
    )
    rows = [{**ROWS[0], "a": 1}, {**ROWS[0], "a": 4}]
    fn = compile_block_expr(expr, None, relation_resolver(RELATION, NAMES))
    assert fn(block_for(rows)) == [99, 25.0]
    with pytest.raises(EvaluationError):
        # a = 0 falls through to the default → division by zero, exactly
        # like the oracle
        fn(block_for([{**ROWS[0], "a": 0}]))


def test_qualified_references_resolve_like_environment_lookup():
    expr = BinaryOp(
        "+",
        ColumnRef("a", qualifier=RELATION),
        ColumnRef("b"),
    )
    check_block_parity(expr)
    # an unknown qualifier falls through to the plain anonymous column,
    # exactly like Environment.lookup
    check_block_parity(ColumnRef("a", qualifier="Other"))
    # but a qualified miss on every fall-through → row fallback (the row
    # path raises its own unbound-column error), never a guess
    assert (
        compile_block_expr(
            ColumnRef("nope", qualifier="Other"),
            None,
            relation_resolver(RELATION, NAMES),
        )
        is None
    )


def test_aggregate_reducer_matches_row_aggregates():
    rows = [{"v": 3}, {"v": None}, {"v": 3}, {"v": 1.5}, {"v": None}, {"v": 7}]
    values = [row["v"] for row in rows]
    for func in ["COUNT", "SUM", "AVG", "MIN", "MAX", "FIRST", "LAST"]:
        for distinct in (False, True):
            agg = AggregateCall(func, ColumnRef("v"), distinct)
            reducer = aggregate_values_reducer(agg)
            # FIRST / LAST are member positions the grouped kernel picks
            got = values[reducer] if isinstance(reducer, int) else reducer(values)
            assert got == evaluate_aggregate(agg, rows), (func, distinct)
    empty = AggregateCall("SUM", ColumnRef("v"))
    assert aggregate_values_reducer(empty)([]) is None
    assert aggregate_values_reducer(AggregateCall("COUNT", ColumnRef("v")))(
        []
    ) == 0


# --- engine-level agreement ---------------------------------------------------


def test_three_modes_agree_on_kitchen_sink():
    # the oracle, the compiled tier in memory, and the compiled tier
    # spilling its blocking kernels under a 16-row budget
    job = build_kitchen_sink_job()
    instance = generate_kitchen_sink_instance(n_orders=150)
    interpreted = EtlEngine(compiled=False).execute(job, instance)
    compiled = EtlEngine(compiled=True).execute(job, instance)
    obs = Observability(stats=True)
    spilled = EtlEngine(obs=obs, compiled=True, memory_budget=16).execute(
        job, instance
    )
    assert compiled.same_bags(interpreted)
    assert spilled.same_bags(interpreted)
    assert obs.metrics.snapshot()["counters"].get("exec.spill.runs", 0) > 0


def test_all_three_runtimes_agree_batched():
    job = build_example_job()
    instance = generate_instance(n_customers=80)
    orchid = Orchid()
    graph = orchid.import_etl(job)
    mappings = orchid.to_mappings(graph)
    baseline = EtlEngine(compiled=False).execute(job, instance)
    assert (
        EtlEngine(compiled=True)
        .execute(job, instance)
        .same_bags(baseline)
    )
    assert (
        OhmExecutor(compiled=True)
        .execute(graph, instance)
        .same_bags(baseline)
    )
    assert (
        MappingExecutor(compiled=True)
        .execute(mappings, instance)
        .same_bags(baseline)
    )


def test_batched_mode_emits_block_metrics_row_mode_does_not():
    job = build_kitchen_sink_job()
    instance = generate_kitchen_sink_instance(n_orders=40)

    obs = Observability(stats=True)
    EtlEngine(obs=obs, compiled=True).execute(job, instance)
    block_counters = [
        name
        for name in obs.metrics.snapshot()["counters"]
        if name.startswith("exec.block.")
    ]
    assert block_counters, "a compiled run must report exec.block.* counters"

    # the oracle runs row kernels only
    obs = Observability(stats=True)
    EtlEngine(obs=obs, compiled=False).execute(job, instance)
    assert not any(
        name.startswith("exec.block.")
        for name in obs.metrics.snapshot()["counters"]
    )


def test_coalesce_block_parity_over_nulls():
    expr = FunctionCall("COALESCE", [ColumnRef("s"), Literal("fallback")])
    check_block_parity(expr)

"""Randomized row ↔ block compiler and engine-mode parity suite.

The columnar tier must be observationally identical to the row tier:
:func:`compile_block_expr` evaluated over a :class:`RowBlock` must
return exactly what the tree-walking oracle returns row by row
(values, Python types, SQL three-valued logic, and errors), and the
three engine modes (interpreted / compiled-row / batched) must compute
identical instances for every runtime at every batch size.

Reuses the seeded expression generators and NULL-heavy sample rows from
:mod:`tests.exec.test_parity`.
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
)
from repro.exec.compile_expr import compile_aggregate
from repro.expr.ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    Literal,
)
from repro.expr.evaluator import evaluate_predicate
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
from tests.exec.test_parity import (
    RELATION,
    ROWS,
    env_for,
    gen_boolean,
    gen_numeric,
    gen_string,
    oracle,
)

NAMES = list(ROWS[0])


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
    from repro.expr.ast import Case

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
            assert got == compile_aggregate(agg)(rows), (func, distinct)
    empty = AggregateCall("SUM", ColumnRef("v"))
    assert aggregate_values_reducer(empty)([]) is None
    assert aggregate_values_reducer(AggregateCall("COUNT", ColumnRef("v")))(
        []
    ) == 0


# --- engine-level three-mode agreement ----------------------------------------


def test_three_modes_agree_on_kitchen_sink():
    job = build_kitchen_sink_job()
    instance = generate_kitchen_sink_instance(n_orders=150)
    interpreted = EtlEngine(compiled=False).execute(job, instance)
    compiled = EtlEngine(compiled=True, batched=False).execute(job, instance)
    batched = EtlEngine(compiled=True, batched=True).execute(job, instance)
    assert compiled.same_bags(interpreted)
    assert batched.same_bags(interpreted)


def test_all_three_runtimes_agree_batched():
    job = build_example_job()
    instance = generate_instance(n_customers=80)
    orchid = Orchid()
    graph = orchid.import_etl(job)
    mappings = orchid.to_mappings(graph)
    baseline = EtlEngine(compiled=False).execute(job, instance)
    assert (
        EtlEngine(compiled=True, batched=True)
        .execute(job, instance)
        .same_bags(baseline)
    )
    assert (
        OhmExecutor(compiled=True, batched=True)
        .execute(graph, instance)
        .same_bags(baseline)
    )
    assert (
        MappingExecutor(compiled=True, batched=True)
        .execute(mappings, instance)
        .same_bags(baseline)
    )


def test_batched_mode_emits_block_metrics_row_mode_does_not():
    job = build_kitchen_sink_job()
    instance = generate_kitchen_sink_instance(n_orders=40)

    obs = Observability(stats=True)
    EtlEngine(obs=obs, compiled=True, batched=True).execute(job, instance)
    block_counters = [
        name
        for name in obs.metrics.snapshot()["counters"]
        if name.startswith("exec.block.")
    ]
    assert block_counters, "batched run must report exec.block.* counters"

    obs = Observability(stats=True)
    EtlEngine(obs=obs, compiled=True, batched=False).execute(job, instance)
    assert not any(
        name.startswith("exec.block.")
        for name in obs.metrics.snapshot()["counters"]
    )


def test_coalesce_block_parity_over_nulls():
    expr = FunctionCall("COALESCE", [ColumnRef("s"), Literal("fallback")])
    check_block_parity(expr)

"""The block tier's class-sweep specialisation, held to its rule.

``compile_block`` proves a check for a whole column (one sweep over the
column's classes) and then runs a comprehension with the operator
inline; where it cannot, it runs the evaluator's helpers per cell. This
suite generates columns over {int, float, bool, str, date, datetime,
NULL} — single-class, numeric-mixed, mixed-class (which must raise),
empty, all-NULL, NaN, zero divisors — crosses them with every operator
that has an inline loop, in column ⊕ constant, constant ⊕ column and
column ⊕ column form, and requires

* swept loop ≡ per-cell loop ≡ the tree-walking oracle row by row
  (values *and* Python classes), and on a raising column the same
  exception class, message and first failing index;
* through ``EtlEngine``, ``OhmExecutor`` and ``MappingExecutor`` under
  ``on_error="reject"``: accepted bags and reject multisets equal to
  ``compiled=False``;
* ``key_columns`` partitions a column exactly as ``key_encoder()``
  does, first-seen order included;
* the hash kernels, CASE and function calls, which prove their cases
  for a column too: grouped SUM / COUNT / AVG / MIN / MAX (plain and
  DISTINCT, with and without NULLs) and joins of every kind on one key
  and on two give the oracle's rows, in its order and classes, over
  duplicate-rich keys (``1`` / ``1.0`` / ``True``, ``-0.0``, ``2**53``,
  NaN, a date and its text); a CASE over a wide block agrees with the
  oracle; a raising function column raises the class the
  ``ScalarFunction`` wrapper raises and reruns on rows once.

It also pins the big-integer key fix (``2**53`` apart from ``2**53 + 1``
on every tier, as sqlite has it) and ``Dataset.columns`` over ragged
rows.
"""

import datetime
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import compile_job
from repro.data import Dataset, Instance
from repro.deploy import plan_pushdown
from repro.errors import EvaluationError, SchemaError, TransientError
from repro.etl.engine import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import (
    AggregatorStage,
    FilterStage,
    JoinStage,
    RemoveDuplicatesStage,
    SortStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.exec import ExpressionPlanner, compile_block, ops
from repro.exec import block as block_module
from repro.exec.block import (
    Fold,
    RowBlock,
    group_aggregate_block,
    hash_join_block,
    relation_resolver,
)
from repro.exec.compile_block import compile_block_expr, compile_block_predicate
from repro.exec.kernels import (
    group_aggregate_rows,
    group_key_value,
    key_columns,
    key_encoder,
)
from repro.exec.ops import FALLBACK_COUNTER
from repro.expr.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    InList,
    Like,
    Literal,
    UnaryOp,
)
from repro.expr.evaluator import evaluate
from repro.expr import functions as functions_module
from repro.expr.functions import DEFAULT_REGISTRY, ScalarFunction
from repro.expr.parser import parse
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.ohm.operators import Join as OhmJoin
from repro.resilience import format_row
from repro.schema.model import relation
from repro.schema.types import ANY

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# -- generated columns ---------------------------------------------------------

INTS = st.integers(-3, 3) | st.sampled_from([0, 2**53, 2**53 + 1, -(10**30)])
FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.5, 3.0, 1e308, float("nan"), float("inf")])
STRS = st.sampled_from(["", "a", "ab", "b%", "1", "A", "2008-01-07"])
DATES = st.sampled_from([datetime.date(2008, 1, 7), datetime.date(2008, 4, 12)])
STAMPS = st.sampled_from(
    [datetime.datetime(2008, 1, 7), datetime.datetime(2008, 1, 7, 12, 30)]
)
CLASSES = [INTS, FLOATS, st.booleans(), STRS, DATES, STAMPS]
SCALARS = st.one_of(CLASSES)


def nullable(cells):
    return st.none() | cells


def columns(size):
    """A column of ``size`` cells: one class, numbers mixed, any mix."""
    shapes = [st.lists(nullable(cells), min_size=size, max_size=size) for cells in CLASSES]
    shapes.append(st.lists(nullable(INTS | FLOATS), min_size=size, max_size=size))
    shapes.append(st.lists(nullable(SCALARS), min_size=size, max_size=size))
    shapes.append(st.just([None] * size))
    return st.one_of(shapes)


@st.composite
def column_pairs(draw):
    size = draw(st.integers(0, 6))
    return draw(columns(size)), draw(columns(size))


# -- the three readings of one expression -------------------------------------

A, B = ColumnRef("a"), ColumnRef("b")
RESOLVE = relation_resolver(None, ["a", "b"])


def shown(values):
    """Values with their classes (``1`` is not ``1.0`` is not ``True``;
    NaN equals itself)."""
    return [(type(v).__name__, repr(v)) for v in values]


def outcome(fn):
    """``("ok", values)`` or ``("raised", class, message)``."""
    try:
        return ("ok", shown(fn()))
    except Exception as exc:  # noqa: BLE001 — the outcome under test
        return ("raised", type(exc), str(exc))


def oracle_rows(expr, rows):
    """The tree-walker row by row: values up to the first failing row,
    then that row's index and error (``None`` when every row passes)."""
    values = []
    for index, row in enumerate(rows):
        try:
            values.append(evaluate(expr, row))
        except Exception as exc:  # noqa: BLE001
            return values, index, exc
    return values, None, None


def check_three_readings(expr, ls, rs, monkeypatch, compiler=compile_block_expr):
    rows = [{"a": l, "b": r} for l, r in zip(ls, rs)]
    block = RowBlock({"a": ls, "b": rs}, len(ls))
    fn = compiler(expr, None, RESOLVE)
    assert fn is not None, expr.to_sql()
    swept = outcome(lambda: fn(block))
    with monkeypatch.context() as patch:
        # two classes no rule relates prove nothing: every node takes its
        # per-cell loop
        patch.setattr(compile_block, "column_classes", lambda col: {object, type})
        per_cell = outcome(lambda: fn(block))
    assert swept == per_cell, expr.to_sql()

    values, failing, error = oracle_rows(expr, rows)
    if compiler is compile_block_predicate:
        values = [value is True for value in values]
    if failing is None:
        assert swept == ("ok", shown(values)), expr.to_sql()
        return
    assert swept == ("raised", type(error), str(error)), expr.to_sql()
    # ... and it is the *first* failing cell: the rows before it pass,
    # one row more raises the same error
    assert outcome(lambda: fn(block.take(range(failing)))) == ("ok", shown(values))
    assert outcome(lambda: fn(block.take(range(failing + 1)))) == swept


def operand_forms(form, constant):
    if form == "column-const":
        return A, Literal(constant)
    if form == "const-column":
        return Literal(constant), B
    return A, B


BINARY_OPS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR"]
FORMS = ["column-const", "const-column", "column-column"]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("op", BINARY_OPS)
@settings(max_examples=60, **COMMON)
@given(pair=column_pairs(), constant=nullable(SCALARS))
def test_binary_operators(op, form, pair, constant, monkeypatch):
    left, right = operand_forms(form, constant)
    check_three_readings(BinaryOp(op, left, right), *pair, monkeypatch)


@pytest.mark.parametrize("op", ["-", "NOT"])
@settings(max_examples=60, **COMMON)
@given(pair=column_pairs())
def test_unary_operators(op, pair, monkeypatch):
    check_three_readings(UnaryOp(op, A), *pair, monkeypatch)


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("form", FORMS)
@settings(max_examples=60, **COMMON)
@given(pair=column_pairs(), low=nullable(SCALARS), high=nullable(SCALARS))
def test_between(form, negated, pair, low, high, monkeypatch):
    if form == "column-const":
        expr = Between(A, Literal(low), Literal(high), negated)
    elif form == "const-column":
        expr = Between(Literal(low), A, B, negated)
    else:
        expr = Between(A, B, Literal(high), negated)
    check_three_readings(expr, *pair, monkeypatch)


@pytest.mark.parametrize("negated", [False, True])
@settings(max_examples=80, **COMMON)
@given(pair=column_pairs(), items=st.lists(nullable(SCALARS), min_size=1, max_size=3))
def test_constant_in(negated, pair, items, monkeypatch):
    expr = InList(A, [Literal(item) for item in items], negated)
    check_three_readings(expr, *pair, monkeypatch)


@pytest.mark.parametrize("negated", [False, True])
@settings(max_examples=60, **COMMON)
@given(pair=column_pairs(), pattern=st.sampled_from(["a%", "_", "%", "b\\%", ""]))
def test_like_literal_pattern(negated, pair, pattern, monkeypatch):
    check_three_readings(Like(A, Literal(pattern), negated), *pair, monkeypatch)


PATTERNS = st.sampled_from(["a%", "_", "%", "b\\%", "", "a_b", "\\", "%\\_"])


@st.composite
def like_pairs(draw):
    """Operands and patterns, each NULL or a non-string now and then."""
    size = draw(st.integers(0, 6))
    operands = st.lists(nullable(STRS | INTS), min_size=size, max_size=size)
    patterns = st.lists(nullable(PATTERNS | INTS), min_size=size, max_size=size)
    return draw(operands), draw(patterns)


@pytest.mark.parametrize("negated", [False, True])
@settings(max_examples=80, **COMMON)
@given(pair=like_pairs())
def test_like_column_pattern(negated, pair, monkeypatch):
    check_three_readings(Like(A, B, negated), *pair, monkeypatch)


@pytest.mark.parametrize("op", ["=", "<", "AND", "OR"])
@settings(max_examples=60, **COMMON)
@given(pair=column_pairs())
def test_predicate_wrapper(op, pair, monkeypatch):
    check_three_readings(
        BinaryOp(op, A, B), *pair, monkeypatch, compiler=compile_block_predicate
    )


def test_mixed_class_columns_reach_the_per_cell_helpers(monkeypatch):
    """Guard against a vacuous suite: a mixed-class column really takes
    ``_cmp_cell`` / ``_arith`` / ``_and3`` / ``_or3``, a proven one
    never does."""
    called = Counter()
    for name in ("_cmp_cell", "_arith", "_and3", "_or3"):
        helper = getattr(compile_block, name)

        def counting(*args, _name=name, _helper=helper, **kwargs):
            called[_name] += 1
            return _helper(*args, **kwargs)

        monkeypatch.setattr(compile_block, name, counting)
    plan = [
        ("<", "_cmp_cell", [1, 2.5], 1),
        ("+", "_arith", [1, 2.5], 1),
        ("AND", "_and3", [True, None], True),
        ("OR", "_or3", [False, None], False),
    ]
    for op, helper, proven, partner in plan:
        fn = compile_block_expr(BinaryOp(op, A, B), None, RESOLVE)
        fn(RowBlock({"a": proven, "b": proven}, 2))
        assert called[helper] == 0, op
        with pytest.raises(EvaluationError):
            fn(RowBlock({"a": proven + ["x"], "b": proven + [partner]}, 3))
        assert called[helper] >= 1, op


# -- the three runtimes under on_error="reject" -------------------------------

SOURCE = relation("S", ("id", "INTEGER", False), ("a", ANY), ("b", ANY))
OUT = relation("Out", ("id", "INTEGER", False), ("a", ANY), ("b", ANY), ("v", ANY))

#: (derived column, filter) pairs covering every inlined operator
PROGRAMS = [
    ("a / b", "v > 1"),
    ("a % b", "a <= b"),
    ("a * b - a", "v >= 0 AND a <> b"),
    ("-a + b", "a < b OR v = 0"),
    ("a", "a BETWEEN 0 AND 2"),
    ("a", "NOT (a IN (1, 2.5, 3))"),
    ("b", "a LIKE 'a%'"),
    ("CASE WHEN b = 0 THEN a ELSE a / b END", "v <> 0"),
    ("ABS(a) + b", "v > 0"),
]


def program_job(derived, predicate):
    job = Job("specialised")
    source = job.add(TableSource(SOURCE))
    compute = job.add(
        Transformer.single(
            [("id", "id"), ("a", "a"), ("b", "b"), ("v", derived)], name="Compute"
        )
    )
    keep = job.add(FilterStage.single(predicate, name="Keep"))
    target = job.add(TableTarget(OUT))
    job.link(source, compute, name="s")
    job.link(compute, keep, name="computed")
    job.link(keep, target, name="out")
    return job


def accepted_and_rejected(runtime, job, instance, **options):
    if runtime == "etl":
        engine = EtlEngine(on_error="reject", **options)
        targets = engine.execute(job, instance)
        rejected = Counter(format_row(r.row) for r in engine.last_run.rejected)
    elif runtime == "ohm":
        targets, rejects, _rows, _edges = OhmExecutor(
            on_error="reject", **options
        ).run(compile_job(job), instance)
        rejected = Counter(r["row"] for r in rejects.rows)
    else:
        targets, rejects, _rows, _edges = MappingExecutor(
            on_error="reject", **options
        ).run(ohm_to_mappings(compile_job(job)), instance)
        rejected = Counter(r["row"] for r in rejects.rows)
    return Counter(format_row(r) for r in targets.dataset("Out").rows), rejected


@pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p[0] + " | " + p[1])
@settings(max_examples=8, **COMMON)
@given(pair=column_pairs())
def test_runtimes_reject_what_the_oracle_rejects(runtime, program, pair):
    ls, rs = pair
    rows = [{"id": i, "a": l, "b": r} for i, (l, r) in enumerate(zip(ls, rs))]
    instance = Instance([Dataset(SOURCE, rows)])
    job = program_job(*program)
    oracle = accepted_and_rejected(runtime, job, instance, compiled=False)
    # the compiled tier itself, whatever the environment pins
    assert accepted_and_rejected(runtime, job, instance, compiled=True) == oracle


# -- key_columns ---------------------------------------------------------------


def partition(keys):
    """Row-index groups in first-seen order."""
    groups = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    return list(groups.values())


@settings(max_examples=200, **COMMON)
@given(pair=column_pairs())
def test_key_columns_partition_as_the_encoder_does(pair):
    for col in pair:
        encode = key_encoder()
        (keyed,) = key_columns([col])
        assert partition(keyed) == partition([encode(v) for v in col])
        assert [k is None for k in keyed] == [v is None for v in col]
    encoders = key_encoder(), key_encoder()
    rows = list(zip(*pair))
    assert partition(zip(*key_columns(pair))) == partition(
        tuple(encode(v) for encode, v in zip(encoders, row)) for row in rows
    )


def test_key_columns_edges():
    plain = [1, 2.0, "a", None]
    assert key_columns([plain])[0] is plain  # no copy of a proven column
    (keyed,) = key_columns([[True, 1, 1.0, None, None, False, 0]])
    assert partition(keyed) == [[0], [1, 2], [3, 4], [5], [6]]
    # a column encoded apart still matches a plain one cell for cell
    left, right = key_columns([[1, 2, "x"]]), key_columns([[True, 2.0, "x"]])
    assert [l == r for l, r in zip(left[0], right[0])] == [False, True, True]
    assert key_columns([]) == []


# -- big integers are their own keys ------------------------------------------

BIG = 2**53
# ANY: a FLOAT column would have its ints made floats at the source
IDS = relation("Ids", ("id", ANY, False), ("n", "INTEGER", False))
NAMES = relation("Names", ("key", "INTEGER", False), ("label", "STRING", False))

#: ``rows`` is the oracle's row kernels; ``block`` and ``parallel`` are
#: the retired tiers' keyword sets, dropped (with a warning) onto the
#: compiled tier until the benchmark harness stops passing them
TIERS = {
    "oracle": dict(compiled=False),
    "rows": dict(compiled=False),
    "block": dict(batched=True, fused=False),
    "fused": dict(compiled=True),
    "parallel": dict(mode="parallel", workers=2),
}


def ids_instance():
    # 2**53 + 1.0 *is* the float 2**53: it keys with the int 2**53
    ids = [BIG, BIG + 1, BIG + 1.0, BIG + 1, BIG]
    return Instance(
        [
            Dataset.adopt(IDS, [{"id": v, "n": i} for i, v in enumerate(ids)]),
            Dataset(NAMES, [{"key": BIG, "label": "even"}, {"key": BIG + 1, "label": "odd"}]),
        ]
    )


def single_stage_job(stage, out_relation, sources=(IDS,)):
    job = Job("bigint")
    stage = job.add(stage)
    for index, source in enumerate(sources):
        job.link(job.add(TableSource(source)), stage, name=f"in{index}", dst_port=index)
    job.link(stage, job.add(TableTarget(out_relation)), name="out")
    return job


def run_tier(job, tier):
    targets = EtlEngine(**TIERS[tier]).execute(job, ids_instance())
    (out,) = list(targets)
    return out.rows


@pytest.mark.filterwarnings("ignore:.*execution tier that is gone:DeprecationWarning")
@pytest.mark.parametrize("tier", TIERS)
class TestBigIntegerKeys:
    def test_group(self, tier):
        job = single_stage_job(
            AggregatorStage(["id"], [("rows", "count", None)]),
            relation("Out", ("id", ANY, False), ("rows", "INTEGER", False)),
        )
        rows = run_tier(job, tier)
        assert [(r["id"], r["rows"]) for r in rows] == [(BIG, 3), (BIG + 1, 2)]

    def test_dedup(self, tier):
        job = single_stage_job(RemoveDuplicatesStage(["id"]), IDS.renamed("Out"))
        assert [r["n"] for r in run_tier(job, tier)] == [0, 1]

    def test_sort(self, tier):
        job = single_stage_job(SortStage([("id", "desc")]), IDS.renamed("Out"))
        assert [r["n"] for r in run_tier(job, tier)] == [1, 3, 0, 2, 4]

    def test_join(self, tier):
        out = relation("Out", ("n", "INTEGER", False), ("label", "STRING", False))
        job = single_stage_job(
            JoinStage(keys=[("id", "key")]), out, sources=(IDS, NAMES)
        )
        found = sorted((r["n"], r["label"]) for r in run_tier(job, tier))
        assert found == [(0, "even"), (1, "odd"), (2, "even"), (3, "odd"), (4, "even")]


@pytest.mark.filterwarnings("ignore:.*execution tier that is gone:DeprecationWarning")
def test_group_by_agrees_with_sqlite():
    """engine ≡ hybrid: the engines keep apart what sqlite keeps apart."""
    ids = relation("Ids", ("id", "INTEGER", False), ("n", "INTEGER", False))
    job = single_stage_job(
        AggregatorStage(["id"], [("rows", "count", None)]),
        relation("Out", ("id", "INTEGER", False), ("rows", "INTEGER", False)),
        sources=(ids,),
    )
    values = [BIG, BIG + 1, BIG]
    instance = Instance(
        [Dataset(ids, [{"id": v, "n": i} for i, v in enumerate(values)])]
    )
    graph = compile_job(job)
    plan = plan_pushdown(graph)
    assert plan.pushed_operator_uids, "the GROUP BY did not reach sqlite"
    pushed = plan.execute(instance).dataset("Out")
    assert sorted((r["id"], r["rows"]) for r in pushed.rows) == [(BIG, 2), (BIG + 1, 1)]
    for options in TIERS.values():
        engine = OhmExecutor(**options).execute(graph, instance).dataset("Out")
        assert engine.same_bag(pushed), options


# -- Dataset.columns over row dicts -------------------------------------------


def test_dataset_columns_reads_ragged_rows_as_null():
    rel = relation("R", ("x", "INTEGER"), ("y", "STRING"))
    full = [{"x": 1, "y": "a"}, {"x": 2, "y": None}, {"x": None, "y": "c"}]
    ragged = [{"x": 1, "y": "a"}, {"x": 2}, {"y": "c"}]
    expected = [[1, 2, None], ["a", None, "c"]]
    assert Dataset.adopt(rel, full).columns() == expected
    assert Dataset.adopt(rel, ragged).columns() == expected
    assert Dataset.adopt(rel, ragged).columns(["y", "z"]) == [["a", None, "c"], [None] * 3]
    assert Dataset.adopt(rel, []).columns() == [[], []]
    # ... and block-backed data agrees
    assert Dataset(rel, full).with_relation(rel).columns() == expected


# -- the hash kernels, CASE and function calls ---------------------------------

NAN = float("nan")
#: key cells rich in near-misses: ``1`` / ``1.0`` / ``True``, ``0`` /
#: ``-0.0``, ``2**53`` and its neighbour, a date, its text and the
#: datetime of its midnight, and one NaN object (its own key, by identity)
KEY_CELL_VALUES = [
    0, 1, 1.0, True, -0.0, BIG, BIG + 1, NAN, "1", "2008-01-07",
    datetime.date(2008, 1, 7), datetime.date(2008, 4, 12),
    datetime.datetime(2008, 1, 7),
]
KEY_CELLS = st.sampled_from(KEY_CELL_VALUES)
#: aggregate arguments whose folds tell order, sign and class apart
FOLD_CELLS = st.sampled_from([0, 1, BIG, BIG + 1, -0.0, 0.0, 0.1, 1e16, -1e16, NAN, 2.5])
FOLDS = ["SUM", "COUNT", "AVG", "MIN", "MAX"]
GROUPED = ["id", "k1", "k2", "v"]


def typed(rows, names):
    return [shown([row[n] for n in names]) for row in rows]


@st.composite
def grouped_rows(draw):
    """A few rows over duplicate-rich keys; the folded column holds a
    NULL in some examples and none in others."""
    values = nullable(FOLD_CELLS) if draw(st.booleans()) else FOLD_CELLS
    return [
        {"id": i, "k1": draw(nullable(KEY_CELLS)), "k2": draw(nullable(KEY_CELLS)), "v": draw(values)}
        for i in range(draw(st.integers(0, 12)))
    ]


@settings(max_examples=200, **COMMON)
@given(rows=grouped_rows(), keys=st.sampled_from([["k1"], ["k1", "k2"], ["k2", "k1"]]))
def test_group_folds_equal_the_oracle(rows, keys):
    aggs = [
        (f"{func}{distinct}", AggregateCall(func, ColumnRef("v"), distinct))
        for func in FOLDS
        for distinct in (False, True)
    ]
    names = [*keys, *(name for name, _agg in aggs)]
    compiled = ExpressionPlanner(compiled=True)
    resolve = relation_resolver(None, GROUPED)
    lowered = [(name, *compiled.block_aggregate(agg, resolve)) for name, agg in aggs]
    got = group_aggregate_block(RowBlock.from_rows(GROUPED, rows), keys, lowered)
    oracle = ExpressionPlanner(compiled=False)
    expected = group_aggregate_rows(
        rows, keys, [(name, oracle.aggregate(agg)) for name, agg in aggs]
    )
    assert typed(got.to_rows(names), names) == typed(expected, names)


def test_a_null_free_fold_builds_no_value_list_a_group():
    calls = []

    def counting(values):
        calls.append(list(values))
        return sum(v for v in values if v is not None)

    blk = RowBlock({"k": [1, 2, 1, 2, 3], "v": [1.5, 2, -0.0, 4, 5]}, 5)
    fold = Fold("SUM", counting)
    out = group_aggregate_block(blk, ["k"], [("s", lambda b: b.columns["v"], fold)])
    assert out.columns["s"] == [1.5, 6, 5] and calls == []
    with_null = RowBlock({"k": [1, 2, 1], "v": [1, None, 2]}, 3)
    out = group_aggregate_block(with_null, ["k"], [("s", lambda b: b.columns["v"], fold)])
    assert out.columns["s"] == [3, 0] and calls == [[1, 2], [None]]
    lowering = ExpressionPlanner(compiled=True).block_aggregate(
        AggregateCall("SUM", ColumnRef("v")), relation_resolver(None, ["v"])
    )
    assert isinstance(lowering[1], Fold) and lowering[1].func == "SUM"


def test_a_date_column_is_its_own_key_column():
    dates = [datetime.date(2008, 1, 7), None, datetime.date(2008, 1, 7)]
    assert key_columns([dates])[0] is dates
    stamps = [datetime.datetime(2008, 1, 7)]
    assert key_columns([stamps])[0] == [("datetime", "2008-01-07 00:00:00")]


JL = relation("L", ("id", "INTEGER", False), ("k1", ANY), ("k2", ANY))
JR = relation("R", ("rid", "INTEGER", False), ("k1", ANY), ("k2", ANY))
JOIN_PLAN = [(a.name, side, source) for a, side, source in OhmJoin.joined_attributes(JL, JR)]
JOIN_NAMES = [name for name, _side, _source in JOIN_PLAN]


#: the near-misses and NULL (a fifth of the draws) and other keys, so a
#: side of 200 distinct keys exists
WIDE_KEY_CELLS = (KEY_CELL_VALUES + [None]) * 8 + list(range(2, 400))
#: the index each side strategy forces: build side unique, probe side
#: unique, both unique (the smaller side decides), neither (row lists)
JOIN_PATHS = ["build", "probe", "both", "neither"]


def join_key(row, width):
    """The key ``hash_join_block`` hashes for a row, NULLs included."""
    return tuple(group_key_value(row[k]) for k in ("k1", "k2")[:width])


def unique_keys(rows, width):
    return len({join_key(row, width) for row in rows}) == len(rows)


@st.composite
def join_sides(draw, width=1):
    """A left and a right side: a few rows over the near-miss keys, or
    up to 200 rows whose uniqueness forces one of ``JOIN_PATHS``."""
    path = draw(st.sampled_from([None] + JOIN_PATHS))
    # a wide side's cells come from one drawn seed: hypothesis draws
    # cell by cell are what would make 200-row sides slow
    rng = draw(st.randoms(use_true_random=False))

    def side(id_name, unique=None):
        if path is None:
            rows = [
                {"k1": draw(nullable(KEY_CELLS)), "k2": draw(nullable(KEY_CELLS))}
                for _ in range(draw(st.integers(0, 8)))
            ]
        else:
            rows = [
                {"k1": rng.choice(WIDE_KEY_CELLS), "k2": rng.choice(WIDE_KEY_CELLS)}
                for _ in range(draw(st.integers(0, 200)))
            ]
        if unique is not None:
            seen = {}
            for row in rows:
                seen.setdefault(join_key(row, width), row)
            rows = list(seen.values())
            if not unique:  # a repeated key, NULL or not
                twin = draw(st.sampled_from(rows)) if rows else {"k1": None, "k2": None}
                rows.insert(draw(st.integers(0, len(rows))), dict(twin))
                if len(rows) == 1:
                    rows.append(dict(twin))
        return [dict(row, **{id_name: i}) for i, row in enumerate(rows)]

    if path is None:
        return side("id"), side("rid")
    left_unique = path in ("probe", "both")
    right_unique = path in ("build", "both")
    return side("id", left_unique), side("rid", right_unique)


def block_join(left_rows, right_rows, condition, kind):
    return hash_join_block(
        RowBlock.from_rows(JL.attribute_names, left_rows),
        RowBlock.from_rows(JR.attribute_names, right_rows),
        JL, JR, parse(condition), kind, JOIN_PLAN, ExpressionPlanner(compiled=True),
    )


def index_path(left_rows, right_rows, width):
    """The pair builder the kernel must pick: the smaller side (the build
    side on a tie) is tested for unique keys first, then the other."""
    tests = [("build", right_rows), ("probe", left_rows)]
    if len(left_rows) < len(right_rows):
        tests.reverse()
    for name, rows in tests:
        if unique_keys(rows, width):
            return name
    return "lists"


@pytest.mark.parametrize("kind", ["inner", "left", "right", "full"])
@pytest.mark.parametrize("condition", ["L.k1 = R.k1", "L.k1 = R.k1 AND L.k2 = R.k2"])
@settings(max_examples=100, **COMMON)
@given(data=st.data())
def test_join_emits_what_the_oracle_emits(kind, condition, data, monkeypatch):
    width = condition.count("=")
    left_rows, right_rows = data.draw(join_sides(width))
    taken = []
    for name, builder in [
        ("build", "_pairs_unique_build"),
        ("probe", "_pairs_unique_probe"),
        ("lists", "_pairs_by_lists"),
    ]:
        real = getattr(block_module, builder)
        monkeypatch.setattr(
            block_module, builder,
            lambda *a, _real=real, _name=name: taken.append(_name) or _real(*a),
        )
    got = block_join(left_rows, right_rows, condition, kind)
    assert got is not None, "the block join declined"
    assert taken == [index_path(left_rows, right_rows, width)]
    (out,) = OhmJoin(condition, kind).output_relations([JL, JR], ["J"])
    expected = ops.join(
        Dataset.adopt(JL, left_rows), Dataset.adopt(JR, right_rows), parse(condition),
        kind, JOIN_PLAN, out, ExpressionPlanner(compiled=False), None,
    ).rows
    # the same rows in the same order: matches in probe order, left
    # paddings inline, right paddings last
    assert typed(got.to_rows(JOIN_NAMES), JOIN_NAMES) == typed(expected, JOIN_NAMES)


def test_a_single_key_join_builds_no_tuple(monkeypatch):
    zipped = []

    def spying_zip(*cols):
        zipped.append(len(cols))
        return zip(*cols)

    monkeypatch.setattr(block_module, "zip", spying_zip, raising=False)
    rows = [{"id": 0, "k1": 1, "k2": None}, {"id": 1, "k1": None, "k2": None}]
    right = [{"rid": 0, "k1": 1.0, "k2": None}, {"rid": 1, "k1": None, "k2": None}]
    out = block_join(rows, right, "L.k1 = R.k1", "full")
    assert out.to_rows(["id", "rid"]) == [
        {"id": 0, "rid": 0}, {"id": 1, "rid": None}, {"id": None, "rid": 1},
    ]
    assert 1 not in zipped  # zip over one key column is what builds 1-tuples


GL = relation("GL", ("id", "INTEGER", False), ("k1", ANY))
GR = relation("GR", ("rid", "INTEGER", False), ("rk1", ANY), ("v", ANY))
GROUPED_OUT = relation(
    "Out", ("k1", ANY), ("n", ANY), ("total", ANY), ("low", ANY), ("high", ANY), ("mean", ANY)
)


def join_group_job(kind):
    """``GL ⟕ GR`` on one key column, then every fold grouped by it."""
    job = Job("hash kernels")
    left, right = job.add(TableSource(GL)), job.add(TableSource(GR))
    join = job.add(JoinStage(keys=[("k1", "rk1")], join_type=kind, name="Join"))
    folds = [("n", "count", "v"), ("total", "sum", "v"), ("low", "min", "v")]
    folds += [("high", "max", "v"), ("mean", "avg", "v")]
    group = job.add(AggregatorStage(["k1"], folds, name="Fold"))
    job.link(left, join, name="l")
    job.link(right, join, name="r", dst_port=1)
    job.link(join, group, name="joined")
    job.link(group, job.add(TableTarget(GROUPED_OUT)), name="out")
    return job


# the mapping runtime is left out: its oracle evaluates the join's
# WHERE per pair, which raises on keys no comparison relates (``0`` and
# ``'1'``), where its compiled tier finds no match
@pytest.mark.parametrize("runtime", ["etl", "ohm"])
@pytest.mark.parametrize("kind", ["inner", "left"])
@settings(max_examples=15, **COMMON)
@given(sides=join_sides(), values=st.lists(nullable(FOLD_CELLS), min_size=8, max_size=8))
def test_runtimes_join_and_fold_as_the_oracle_does(runtime, kind, sides, values):
    left_rows = [{"id": r["id"], "k1": r["k1"]} for r in sides[0]]
    right_rows = [{"rid": r["rid"], "rk1": r["k1"], "v": v} for r, v in zip(sides[1], values)]
    instance = Instance([Dataset.adopt(GL, left_rows), Dataset.adopt(GR, right_rows)])
    job = join_group_job(kind)
    oracle = accepted_and_rejected(runtime, job, instance, compiled=False)
    assert accepted_and_rejected(runtime, job, instance, compiled=True) == oracle


@pytest.mark.xfail(
    strict=True,
    reason="the mapping runtime's oracle rejects a pair whose keys no "
    "comparison relates; its compiled tier joins by hash key and finds no "
    "match (docs/robustness.md)",
)
def test_mapping_tiers_agree_on_keys_no_comparison_relates():
    instance = Instance([
        Dataset.adopt(GL, [{"id": 0, "k1": 0}]),
        Dataset.adopt(GR, [{"rid": 0, "rk1": "1", "v": None}]),
    ])
    job = join_group_job("inner")
    oracle = accepted_and_rejected("mapping", job, instance, compiled=False)
    assert accepted_and_rejected("mapping", job, instance, compiled=True) == oracle


WIDE = ["a", "b", "c", "d", "e", "f"]
WIDE_RESOLVE = relation_resolver(None, WIDE)
#: CASEs reading two columns of six; in the first, the second WHEN would
#: divide by zero on the rows the first WHEN took
WIDE_CASES = [
    "CASE WHEN b = 0 THEN 'zero' WHEN a / b > 1 THEN 'big' ELSE 'small' END",
    "CASE WHEN a IS NULL THEN b WHEN a > b THEN a - b END",
]


@pytest.mark.parametrize("text", WIDE_CASES)
@settings(max_examples=100, **COMMON)
@given(pair=column_pairs(), other=columns(6))
def test_case_over_a_wide_block(text, pair, other):
    ls, rs = pair
    cols = {"a": ls, "b": rs}
    cols.update({name: (other * 2)[: len(ls)] for name in WIDE[2:]})
    expr = parse(text)
    fn = compile_block_expr(expr, None, WIDE_RESOLVE)
    swept = outcome(lambda: fn(RowBlock(cols, len(ls))))
    rows = [dict(zip(cols, cells)) for cells in zip(*cols.values())]
    values, failing, error = oracle_rows(expr, rows)
    if failing is None:
        assert swept == ("ok", shown(values))
    else:
        assert swept[:2] == ("raised", type(error))


class CountingList(list):
    reads = 0

    def __getitem__(self, index):
        CountingList.reads += 1
        return super().__getitem__(index)


def test_case_gathers_only_the_columns_it_reads():
    unread = CountingList(["x", "y", "z"])
    blk = RowBlock({"a": [1, 5, None], "b": [0, 2, 3], "c": unread}, 3)
    fn = compile_block_expr(parse(WIDE_CASES[0]), None, relation_resolver(None, ["a", "b", "c"]))
    CountingList.reads = 0
    assert fn(blk) == ["zero", "big", "small"]
    assert CountingList.reads == 0


class Flaky:
    """An impl that raises ``error`` on its first call, then echoes."""

    def __init__(self, error):
        self.error = error
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        if self.calls == 1:
            raise self.error
        return value


FUNCTION_ERRORS = [ValueError("bad cell"), TransientError("flaky"), SchemaError("static")]


@pytest.mark.parametrize("error", FUNCTION_ERRORS, ids=lambda e: type(e).__name__)
def test_a_raising_function_column_raises_what_the_wrapper_raises(error):
    registry = DEFAULT_REGISTRY.child()
    function = registry.register(ScalarFunction("BOOM", Flaky(error), ANY, 1))
    with pytest.raises(Exception) as per_cell:
        function(1)
    function.impl = Flaky(error)
    fn = compile_block_expr(parse("BOOM(a)"), registry, RESOLVE)
    with pytest.raises(Exception) as per_column:
        fn(RowBlock({"a": [1, None, 2]}, 3))
    assert type(per_column.value) is type(per_cell.value)
    if isinstance(per_cell.value, EvaluationError):
        assert per_column.value.__cause__ is error
    else:  # an infrastructure error propagates as it stands
        assert per_column.value is error


@pytest.mark.parametrize("error", FUNCTION_ERRORS, ids=lambda e: type(e).__name__)
def test_a_raising_function_column_reruns_on_rows_once(error):
    """The operator's rerun sees the class the wrapper raised — a
    static error inside a function is a data error, not a plan defect —
    reruns its row body, and books one ``columnar_to_rows``."""
    registry = DEFAULT_REGISTRY.child()
    registry.register(ScalarFunction("BOOM", Flaky(error), ANY, 1))
    source = relation("S", ("id", "INTEGER", False), ("a", ANY))
    out = relation("Out", ("id", "INTEGER", False), ("v", ANY))
    data = Dataset(source, [{"id": i, "a": i * 2} for i in range(4)])
    obs = Observability(stats=True)
    derived = ops.derive(
        data, [("id", parse("id")), ("v", parse("BOOM(a)"))], out,
        ExpressionPlanner(registry, compiled=True), obs,
    )
    assert derived.rows == [{"id": i, "v": i * 2} for i in range(4)]
    assert obs.metrics.snapshot()["counters"][FALLBACK_COUNTER] == 1


def test_a_zero_argument_function_fills_its_column():
    registry = DEFAULT_REGISTRY.child()
    registry.register(ScalarFunction("SEVEN", lambda: 7, ANY, 0))
    fn = compile_block_expr(parse("SEVEN()"), registry, RESOLVE)
    assert fn(RowBlock({"a": [1, 2, 3]}, 3)) == [7, 7, 7]


D1, D2 = datetime.date(2008, 1, 7), datetime.date(2008, 4, 12)
ADD_DAYS_COLUMNS = {
    "dates": [D1, None, D2, None],
    "nulls": [None, None],
    "empty": [],
    "datetime": [D1, datetime.datetime(2008, 1, 7, 12), None],
    "overflow": [D1, datetime.date.max, None],
}
ADD_DAYS_LITERALS = ["3650", "-1", "TRUE", "1.5", "'x'", "10000000000"]


@pytest.mark.parametrize("literal", ADD_DAYS_LITERALS)
@pytest.mark.parametrize("cells", list(ADD_DAYS_COLUMNS))
def test_add_days_binds_its_literal_once_and_agrees_with_impl(cells, literal, monkeypatch):
    """``ADD_DAYS(a, literal)`` over a column: the values or the error
    that ``impl`` cell by cell gives under the column's ``try``, with
    one ``timedelta`` a call over exact dates (none without a non-NULL
    cell) and the per-cell path for any other column."""
    col = ADD_DAYS_COLUMNS[cells]
    days = evaluate(parse(literal), {})
    impl = DEFAULT_REGISTRY.lookup("ADD_DAYS").impl

    def per_cell():
        try:
            return [None if v is None else impl(v, days) for v in col]
        except Exception as exc:  # noqa: BLE001 — worded as the column's try words it
            raise EvaluationError(f"ADD_DAYS failed: {exc}") from exc

    expected = outcome(per_cell)
    fn = compile_block_expr(parse(f"ADD_DAYS(a, {literal})"), None, RESOLVE)
    built = []

    def timedelta(**kw):
        built.append(kw)
        return datetime.timedelta(**kw)

    monkeypatch.setattr(
        functions_module, "datetime",
        SimpleNamespace(date=datetime.date, timedelta=timedelta),
    )
    assert outcome(lambda: fn(RowBlock({"a": col, "b": col}, len(col)))) == expected
    if cells in ("dates", "nulls", "empty", "overflow"):
        assert len(built) == (0 if cells in ("nulls", "empty") else 1)
    else:  # a datetime cell: impl per cell, up to the first raise
        assert 1 <= len(built) <= 2

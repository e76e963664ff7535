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
  does, first-seen order included.

It also pins the big-integer key fix (``2**53`` apart from ``2**53 + 1``
on every tier, as sqlite has it) and ``Dataset.columns`` over ragged
rows.
"""

import datetime
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import compile_job
from repro.data import Dataset, Instance
from repro.deploy import plan_pushdown
from repro.errors import EvaluationError
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
from repro.exec import compile_block
from repro.exec.block import RowBlock, relation_resolver
from repro.exec.compile_block import compile_block_expr, compile_block_predicate
from repro.exec.kernels import key_columns, key_encoder
from repro.expr.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    InList,
    Like,
    Literal,
    UnaryOp,
)
from repro.expr.evaluator import evaluate
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.ohm import OhmExecutor
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
STRS = st.sampled_from(["", "a", "ab", "b%", "1", "A"])
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
        targets, _ = engine.run(job, instance)
        rejected = Counter(format_row(r.row) for r in engine.last_run.rejected)
    elif runtime == "ohm":
        targets, _edges, rejects = OhmExecutor(
            on_error="reject", **options
        ).run_with_rejects(compile_job(job), instance)
        rejected = Counter(r["row"] for r in rejects.rows)
    else:
        targets, _inter, rejects = MappingExecutor(
            on_error="reject", **options
        ).run_with_rejects(ohm_to_mappings(compile_job(job)), instance)
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
    # whichever tier the environment pins (REPRO_BATCH / REPRO_FUSE /
    # REPRO_PARALLEL in the CI scenario rows), plus the block tier itself
    assert accepted_and_rejected(runtime, job, instance) == oracle
    assert accepted_and_rejected(runtime, job, instance, batched=True) == oracle


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

TIERS = {
    "oracle": dict(compiled=False),
    "rows": dict(mode="rows"),
    "block": dict(batched=True, fused=False),
    "fused": dict(batched=True, fused=True),
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
    targets, _ = EtlEngine(**TIERS[tier]).run(job, ids_instance())
    (out,) = list(targets)
    return out.rows


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

"""The FIRST / LAST pick path of the grouped kernel.

A GROUP whose aggregates are all FIRST / LAST keeps one row index per
group (``block.group_picks``) instead of member lists. Over generated
blocks it must equal the member-list path, the compiled row kernel and
the interpreting oracle, spilled or not; and a RemoveDuplicates stage
must equal the GROUP it lowers to on every runtime.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config
from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.etl import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import RemoveDuplicatesStage, TableSource, TableTarget
from repro.exec import ExpressionPlanner, block, kernels
from repro.exec.block import RowBlock, relation_resolver
from repro.expr.ast import AggregateCall, ColumnRef
from repro.mapping import execute_mappings, ohm_to_mappings
from repro.ohm import execute
from repro.schema import relation
from repro.supervision import MemoryBudget, governed

NAMES = ["k1", "k2", "v", "w"]
#: keys that collide (``1 == 1.0``) and keys that must not (``True``)
KEYS = st.sampled_from([None, 0, 1, 1.0, True, False, 2.5, "a", "b"])
VALUES = st.one_of(st.none(), st.integers(-5, 5), st.sampled_from(["x", "y"]))
ROWS = st.lists(
    st.fixed_dictionaries({"k1": KEYS, "k2": KEYS, "v": VALUES, "w": VALUES}),
    max_size=40,
)
PICKS = st.lists(
    st.tuples(st.sampled_from(["FIRST", "LAST"]), st.sampled_from(["v", "w"])),
    min_size=1,
    max_size=3,
)
KEY_SETS = st.sampled_from([["k1"], ["k2"], ["k1", "k2"], []])

BLOCK = ExpressionPlanner(compiled=True)
#: the row kernel a compiled operator falls back to runs the same
#: planner's row closures
ROW = BLOCK
ORACLE = ExpressionPlanner(compiled=False)
RESOLVE = relation_resolver(None, NAMES)


def aggregates(picks):
    return [
        (f"a{i}", AggregateCall(func, ColumnRef(column)))
        for i, (func, column) in enumerate(picks)
    ]


def lowered(aggs):
    out = []
    for name, agg in aggs:
        values_fn, reducer = BLOCK.block_aggregate(agg, RESOLVE)
        out.append((name, values_fn, reducer))
    return out


def member_path(lowering):
    """The same lowering with each pick as a reducer over the gathered
    member values, which sends the kernel down its member-list path."""
    return [
        (name, fn, (lambda values, p=r: values[p]) if isinstance(r, int) else r)
        for name, fn, r in lowering
    ]


def typed(rows, names):
    """Rows as ``(class, value)`` cells: ``1``, ``1.0`` and ``True``
    compare equal, so bit-identity compares classes too."""
    return [[(type(r[n]), r[n]) for n in names] for r in rows]


def row_kernel(planner, rows, keys, aggs):
    return kernels.group_aggregate_rows(
        rows, keys, [(name, planner.aggregate(agg)) for name, agg in aggs]
    )


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(rows=ROWS, keys=KEY_SETS, picks=PICKS)
def test_pick_path_equals_members_rows_and_oracle(rows, keys, picks):
    aggs = aggregates(picks)
    names = [*keys, *(name for name, _ in aggs)]
    blk = RowBlock.from_rows(NAMES, rows)
    lowering = lowered(aggs)
    assert all(isinstance(reducer, int) for _n, _f, reducer in lowering)
    got = typed(block.group_aggregate_block(blk, keys, lowering).to_rows(names), names)
    members = block.group_aggregate_block(blk, keys, member_path(lowering))
    assert got == typed(members.to_rows(names), names)
    assert got == typed(row_kernel(ROW, rows, keys, aggs), names)
    assert got == typed(row_kernel(ORACLE, rows, keys, aggs), names)


@SETTINGS
@given(rows=ROWS, keys=KEY_SETS, picks=PICKS)
def test_first_beside_sum_equals_rows_and_oracle(rows, keys, picks):
    aggs = aggregates(picks) + [
        ("total", AggregateCall("SUM", ColumnRef("k1"))),
        ("n", AggregateCall("COUNT", None)),
    ]
    # SUM over mixed keys: keep it numeric
    rows = [dict(r, k1=r["k1"] if not isinstance(r["k1"], str) else 7) for r in rows]
    names = [*keys, *(name for name, _ in aggs)]
    blk = RowBlock.from_rows(NAMES, rows)
    got = block.group_aggregate_block(blk, keys, lowered(aggs)).to_rows(names)
    assert typed(got, names) == typed(row_kernel(ROW, rows, keys, aggs), names)
    assert typed(got, names) == typed(row_kernel(ORACLE, rows, keys, aggs), names)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS, keys=KEY_SETS, picks=PICKS, max_rows=st.sampled_from([1, 4, 16]))
def test_pick_path_spilled_is_bit_identical(rows, keys, picks, max_rows):
    aggs = aggregates(picks)
    names = [*keys, *(name for name, _ in aggs)]
    blk = RowBlock.from_rows(NAMES, rows)
    expected = block.group_aggregate_block(blk, keys, lowered(aggs)).to_rows(names)
    with governed(MemoryBudget(max_rows)):
        got = block.group_aggregate_block(blk, keys, lowered(aggs)).to_rows(names)
    assert typed(got, names) == typed(expected, names)


def test_empty_block_and_mixed_first_last():
    lowering = lowered(aggregates([("FIRST", "v"), ("LAST", "v")]))
    empty = block.group_aggregate_block(RowBlock.from_rows(NAMES, []), ["k1"], lowering)
    assert empty.length == 0 and empty.to_rows() == []
    rows = [
        {"k1": 1, "k2": None, "v": "p", "w": None},
        {"k1": 1.0, "k2": None, "v": "q", "w": None},
        {"k1": True, "k2": None, "v": "r", "w": None},
        {"k1": None, "k2": None, "v": "s", "w": None},
        {"k1": None, "k2": None, "v": "t", "w": None},
    ]
    out = block.group_aggregate_block(RowBlock.from_rows(NAMES, rows), ["k1"], lowering)
    # 1 and 1.0 are one group keyed by its first cell; True stays apart
    assert out.to_rows(["k1", "a0", "a1"]) == [
        {"k1": 1, "a0": "p", "a1": "q"},
        {"k1": True, "a0": "r", "a1": "r"},
        {"k1": None, "a0": "s", "a1": "t"},
    ]
    assert type(out.columns["k1"][0]) is int


def test_group_picks_first_seen_order():
    blk = RowBlock.from_rows(["k"], [{"k": k} for k in "abacbd"])
    assert block.group_picks(blk, ["k"], 0) == [0, 1, 3, 5]
    # the last row of each group, still in first-seen group order
    assert block.group_picks(blk, ["k"], -1) == [2, 4, 3, 5]


# -- RemoveDuplicates ≡ its lowered GROUP, on every runtime --------------------

ORDERS = relation(
    "Orders", ("id", "int", False), ("k", "varchar"), ("g", "int"), ("v", "float")
)


def dedup_job(retain, keys):
    job = Job(f"dedup_{retain}")
    src = job.add(TableSource(ORDERS))
    stage = job.add(RemoveDuplicatesStage(keys, retain))
    tgt = job.add(TableTarget(ORDERS.renamed("Out")))
    job.link(src, stage, name="in")
    job.link(stage, tgt, name="out")
    return job


def orders_instance():
    rows = [
        {"id": i, "k": [None, "a", "b", "c"][i % 4], "g": [1, 2, None][i % 3],
         "v": None if i % 5 == 0 else i * 1.5}
        for i in range(30)
    ]
    return Instance([Dataset(ORDERS, rows)])


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("keys", [["k"], ["k", "g"]])
@pytest.mark.parametrize("retain", ["first", "last"])
def test_dedup_equals_lowered_group_on_every_runtime(retain, keys, compiled):
    job = dedup_job(retain, keys)
    graph = compile_job(job)
    assert [op.KIND for op in graph.topological_order()].count("GROUP") == 1
    instance = orders_instance()
    with config.overriding(compiled=compiled):
        etl = EtlEngine().execute(job, instance).dataset("Out").rows
        ohm = execute(graph, instance).dataset("Out").rows
        mapped = execute_mappings(ohm_to_mappings(graph), instance)
    picked = {}
    for row in instance.dataset("Orders").rows:
        key = tuple(row[k] for k in keys)
        if retain == "last" or key not in picked:
            picked[key] = row
    expected = sorted(r["id"] for r in picked.values())
    assert sorted(r["id"] for r in etl) == expected
    assert ohm == etl  # same rows, same order
    assert sorted(map(repr, mapped.dataset("Out").rows)) == sorted(map(repr, etl))

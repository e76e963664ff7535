"""``repro.exec.ops``: the five operators stages and OHM share.

Each function is run on a row planner, a gathering (block-tier) planner
and a fusing planner and compared, row for row and in order, with the
interpreting oracle; then the stage and the OHM operator that both call
it are run on the same inputs and must agree.
"""

import pytest

from repro.data.dataset import Dataset
from repro.errors import SchemaError
from repro.etl.stages import AggregatorStage, FunnelStage, JoinStage
from repro.exec import ExpressionPlanner, ops
from repro.expr.ast import AggregateCall, ColumnRef
from repro.expr.parser import parse
from repro.ohm import OhmExecutor
from repro.ohm.operators import Group, Join, Union
from repro.resilience import ErrorContext
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, STRING

# every tier flag stated: a CI scenario's REPRO_* pin must not move a tier
# (the scheduler's parallel / workers are not a planner's keywords)
ORACLE = dict(compiled=False)
TIERS = {
    "rows": dict(compiled=True, batched=False),
    "gathered": dict(compiled=True, batched=True, fused=False),
    "fused": dict(compiled=True, batched=True, fused=True),
}

ORDERS = Relation(
    "O",
    [Attribute("id", INTEGER), Attribute("cust", INTEGER), Attribute("amt", INTEGER)],
)
CUSTOMERS = Relation("C", [Attribute("cust", INTEGER), Attribute("name", STRING)])
ORDER_ROWS = [
    {"id": 1, "cust": 10, "amt": 5},
    {"id": 2, "cust": None, "amt": 7},
    {"id": 3, "cust": 11, "amt": None},
    {"id": 4, "cust": 10, "amt": 9},
    {"id": 5, "cust": 12, "amt": 1},
]
CUSTOMER_ROWS = [
    {"cust": 10, "name": "ann"},
    {"cust": 11, "name": "bob"},
    {"cust": None, "name": "nobody"},
    {"cust": 13, "name": "unmatched"},
]


def orders():
    return Dataset(ORDERS, ORDER_ROWS)


def customers():
    return Dataset(CUSTOMERS, CUSTOMER_ROWS)


def on_every_tier(run):
    """``run(planner)``'s rows at each tier, after checking each equals
    the oracle's (same rows, same order)."""
    expected = run(ExpressionPlanner(**ORACLE)).rows
    for name, tier in TIERS.items():
        assert run(ExpressionPlanner(**tier)).rows == expected, name
    return expected


JOIN_PLAN = [
    (attr.name, side, source)
    for attr, side, source in Join.joined_attributes(ORDERS, CUSTOMERS)
]


@pytest.mark.parametrize("kind", Join.JOIN_KINDS)
@pytest.mark.parametrize(
    "condition",
    ["O.cust = C.cust", "O.cust = C.cust AND O.amt > 5", "O.cust < C.cust"],
    ids=["equi", "residual", "theta"],
)
def test_join(kind, condition):
    join = Join(condition, kind)
    (out,) = join.output_relations([ORDERS, CUSTOMERS], ["J"])
    rows = on_every_tier(
        lambda planner: ops.join(
            orders(), customers(), join.condition, kind, JOIN_PLAN, out,
            planner, None,
        )
    )
    assert rows, "every join here matches or pads something"
    assert set(rows[0]) == {"id", "O.cust", "amt", "C.cust", "name"}


def test_join_is_columnar_only_on_a_pure_equi_condition():
    (out,) = Join("O.cust = C.cust").output_relations([ORDERS, CUSTOMERS], ["J"])
    planner = ExpressionPlanner(**TIERS["gathered"])

    def backing(condition):
        joined = ops.join(
            orders(), customers(), parse(condition), "inner", JOIN_PLAN, out,
            planner, None,
        )
        return joined.peek_block()

    assert backing("O.cust = C.cust") is not None
    assert backing("O.cust = C.cust AND O.amt > 5") is None  # row kernel


AGGREGATES = [
    ("total", AggregateCall("SUM", ColumnRef("amt"))),
    ("n", AggregateCall("COUNT", None)),
]
GROUPED = Relation(
    "G",
    [Attribute("cust", INTEGER), Attribute("total", INTEGER), Attribute("n", INTEGER)],
)


def test_group():
    rows = on_every_tier(
        lambda planner: ops.group(
            orders(), ["cust"], AGGREGATES, GROUPED, planner, None
        )
    )
    assert rows == [
        {"cust": 10, "total": 14, "n": 2},
        {"cust": None, "total": 7, "n": 1},  # NULL keys group
        {"cust": 11, "total": None, "n": 1},
        {"cust": 12, "total": 1, "n": 1},
    ]


def test_group_continues_a_fused_chain_without_gathering_it():
    planner = ExpressionPlanner(**TIERS["fused"])
    (copy,) = ops.fan_out(orders(), [ORDERS.renamed("O2")], planner, None)
    assert copy.peek_fused() is not None
    grouped = ops.group(copy, ["cust"], AGGREGATES, GROUPED, planner, None)
    assert copy.peek_fused() is not None  # read through a view, still lazy
    assert len(grouped) == 4


@pytest.mark.parametrize("distinct", [False, True], ids=["bag", "distinct"])
def test_union(distinct):
    out = ORDERS.renamed("U")
    rows = on_every_tier(
        lambda planner: ops.union(
            [orders(), orders(), Dataset(ORDERS, ORDER_ROWS[:2])], out,
            distinct, planner, None,
        )
    )
    assert len(rows) == (5 if distinct else 12)


def test_fan_out():
    outs = [ORDERS.renamed("A"), ORDERS.project(["amt", "id"], "B")]
    expected = ops.fan_out(orders(), outs, ExpressionPlanner(**ORACLE), None)
    for name, tier in TIERS.items():
        planner = ExpressionPlanner(**tier)
        got = ops.fan_out(orders(), outs, planner, None)
        # gathered or lazy is the planner's decision, not the operator's
        assert [d.peek_fused() is not None for d in got] == [planner.fused] * 2
        assert [d.rows for d in got] == [d.rows for d in expected], name
    assert expected[1].rows[0] == {"amt": 5, "id": 1}


TARGET = Relation(
    "T", [Attribute("id", INTEGER), Attribute("amt", INTEGER), Attribute("extra", STRING)]
)
DELIVERED = [{"id": r["id"], "amt": r["amt"], "extra": None} for r in ORDER_ROWS]


def backings():
    """Orders row-backed, block-backed and fused-backed."""
    fused = ExpressionPlanner(**TIERS["fused"])
    return {
        "rows": orders(),
        "block": Dataset.adopt_block(ORDERS, orders().as_block()),
        "fused": ops.fan_out(orders(), [ORDERS], fused, None)[0],
    }


@pytest.mark.parametrize("backing", ["rows", "block", "fused"])
@pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "checked"])
def test_deliver_subsets_and_null_fills(backing, trusted):
    data = backings()[backing]
    delivered = ops.deliver(data, TARGET, trusted)
    assert delivered.relation is TARGET
    assert delivered.rows == DELIVERED
    # trusted delivery never leaves the data's columnar form
    assert (delivered.peek_block() is not None) == (trusted and backing != "rows")


@pytest.mark.parametrize("backing", ["rows", "block", "fused"])
def test_deliver_checks_unless_trusted_and_a_policy_forces_the_check(backing):
    strict = Relation("T", [Attribute("id", INTEGER), Attribute("amt", INTEGER, nullable=False)])
    expected = [{"id": r["id"], "amt": r["amt"]} for r in ORDER_ROWS]
    assert ops.deliver(backings()[backing], strict, True).rows == expected
    with pytest.raises(SchemaError):
        ops.deliver(backings()[backing], strict, False)
    # an active policy forces the check even on a trusted delivery (and a
    # schema defect is a plan defect: the context re-raises it)
    with pytest.raises(SchemaError):
        ops.deliver(backings()[backing], strict, True, ErrorContext("T", "reject"))


# -- one function under the stage and under the operator ----------------------


def stage_and_operator(stage, op, inputs, **tier):
    """The rows ``stage`` and ``op`` produce from ``inputs`` at ``tier``."""
    relations = [data.relation for data in inputs]
    stage_out = stage.output_relations(relations, ["Out"])
    op_out = op.output_relations(relations, ["Out"])
    planner = ExpressionPlanner(**tier)
    (from_stage,) = stage.execute(inputs, stage_out, None, planner=planner)
    (from_op,) = OhmExecutor(**tier).run_operator(op, inputs, op_out)
    return from_stage.rows, from_op.rows


@pytest.mark.parametrize("tier", [ORACLE, *TIERS.values()], ids=["oracle", *TIERS])
class TestStageAndOperatorAgree:
    @pytest.mark.parametrize("kind", Join.JOIN_KINDS)
    def test_join_stage_is_the_join_operator(self, tier, kind):
        condition = "O.cust = C.cust"
        from_stage, from_op = stage_and_operator(
            JoinStage(condition=condition, join_type=kind),
            Join(condition, kind),
            [orders(), customers()],
            **tier,
        )
        assert from_stage == from_op
        assert from_stage

    def test_aggregator_stage_is_the_group_operator(self, tier):
        from_stage, from_op = stage_and_operator(
            AggregatorStage(["cust"], [("total", "sum", "amt"), ("n", "count", None)]),
            Group(["cust"], AGGREGATES),
            [orders()],
            **tier,
        )
        assert from_stage == from_op
        assert len(from_stage) == 4

    def test_funnel_stage_is_the_union_operator(self, tier):
        from_stage, from_op = stage_and_operator(
            FunnelStage(), Union(), [orders(), orders()], **tier
        )
        assert from_stage == from_op
        assert len(from_stage) == 10

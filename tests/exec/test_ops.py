"""``repro.exec.ops``: the nine operators stages and OHM share.

Each function is run on the compiled (fusing) planner and compared, row
for row and in order, with the interpreting oracle; then the stage and
the OHM operator that both call it are run on the same inputs and must
agree.
"""

import pytest

from repro.data.dataset import Dataset
from repro.errors import SchemaError
from repro.etl.stages import (
    AggregatorStage,
    CombineRecords,
    FilterStage,
    FunnelStage,
    JoinStage,
    PromoteSubrecord,
    Transformer,
)
from repro.exec import ExpressionPlanner, ops
from repro.expr.ast import AggregateCall, ColumnRef
from repro.expr.parser import parse
from repro.ohm import OhmExecutor
from repro.ohm.operators import Filter, Group, Join, Nest, Project, Union, Unnest
from repro.resilience import ErrorContext
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, STRING

# the tier stated: a CI scenario's REPRO_COMPILED pin must not move it.
# ``rows`` — the row bodies — are the oracle's since the row-kernel tier
# went
ORACLE = dict(compiled=False)
TIERS = {"rows": dict(compiled=False), "fused": dict(compiled=True)}

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
    """``run(planner)``'s rows at each tier (one list per output when it
    returns several datasets), after checking each equals the oracle's
    (same rows, same order)."""

    def rows(planner):
        out = run(planner)
        return [data.rows for data in out] if isinstance(out, list) else out.rows

    expected = rows(ExpressionPlanner(**ORACLE))
    for name, tier in TIERS.items():
        assert rows(ExpressionPlanner(**tier)) == expected, name
    return expected


def ids(rows):
    return [row["id"] for row in rows]


def test_route_to_several_outputs_and_a_reject_output():
    outputs = [(parse("amt > 5"), None), (parse("cust = 10"), None), (None, None)]
    outs = [ORDERS.renamed(n) for n in ("Big", "Ten", "Rest")]
    big, ten, rest = on_every_tier(
        lambda planner: ops.route(orders(), outputs, outs, False, planner, None)
    )
    assert (ids(big), ids(ten), ids(rest)) == ([2, 4], [1, 4], [3, 5])


def test_route_only_once_and_a_projection():
    outputs = [
        (parse("amt > 5"), [("key", "id")]),
        (parse("cust = 10"), [("key", "id"), ("value", "amt")]),
    ]
    outs = [
        Relation("Big", [Attribute("key", INTEGER)]),
        Relation("Ten", [Attribute("key", INTEGER), Attribute("value", INTEGER)]),
    ]
    big, ten = on_every_tier(
        lambda planner: ops.route(orders(), outputs, outs, True, planner, None)
    )
    assert big == [{"key": 2}, {"key": 4}]
    assert ten == [{"key": 1, "value": 5}]  # 4 was taken by the first output


def test_route_a_lone_reject_output_takes_every_row():
    (every,) = on_every_tier(
        lambda planner: ops.route(
            orders(), [(None, None)], [ORDERS.renamed("R")], False, planner, None
        )
    )
    assert ids(every) == [1, 2, 3, 4, 5]


def test_derive_passes_through_and_computes():
    derivations = [("key", parse("O.id")), ("twice", parse("amt * 2")), ("c", parse("cust"))]
    out = Relation(
        "D", [Attribute("key", INTEGER), Attribute("twice", INTEGER), Attribute("c", INTEGER)]
    )
    rows = on_every_tier(
        lambda planner: ops.derive(orders(), derivations, out, planner, None)
    )
    assert rows[:3] == [
        {"key": 1, "twice": 10, "c": 10},
        {"key": 2, "twice": 14, "c": None},
        {"key": 3, "twice": None, "c": 11},
    ]


def test_derive_rejects_a_bad_row_at_every_tier():
    out = Relation("D", [Attribute("id", INTEGER), Attribute("q", INTEGER)])
    derivations = [("id", parse("id")), ("q", parse("10 / (amt - 5)"))]
    for tier in [ORACLE, *TIERS.values()]:
        errors = ErrorContext("D", "reject")
        derived = ops.derive(
            orders(), derivations, out, ExpressionPlanner(**tier), None, errors
        )
        assert ids(derived.rows) == [2, 3, 4, 5], tier
        assert [r.row_index for r in errors.rejected] == [0], tier


NESTED = Nest(["cust"], ["id", "amt"], "items").output_relations([ORDERS], ["N"])[0]


def nested():
    return ops.nest(
        orders(), ["cust"], ["id", "amt"], "items", NESTED,
        ExpressionPlanner(**ORACLE), None,
    )


def test_nest_and_unnest():
    rows = on_every_tier(
        lambda planner: ops.nest(
            orders(), ["cust"], ["id", "amt"], "items", NESTED, planner, None
        )
    )
    assert rows[0] == {"cust": 10, "items": [{"id": 1, "amt": 5}, {"id": 4, "amt": 9}]}
    (flat,) = Unnest("items").output_relations([NESTED], ["F"])
    rows = on_every_tier(lambda planner: ops.unnest(nested(), "items", flat, planner, None))
    assert sorted(ids(rows)) == [1, 2, 3, 4, 5]


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


def test_join_rejects_a_bad_key_at_every_tier():
    (out,) = Join("O.cust = C.cust").output_relations([ORDERS, CUSTOMERS], ["J"])
    condition = parse("10 / (O.amt - 5) = C.cust")  # equi, so columnar when compiled
    for tier in [ORACLE, *TIERS.values()]:
        errors = ErrorContext("J", "reject")
        joined = ops.join(
            orders(), customers(), condition, "left", JOIN_PLAN, out,
            ExpressionPlanner(**tier), None, errors,
        )
        assert ids(joined.rows) == [2, 3, 4, 5], tier
        assert [r.row_index for r in errors.rejected] == [0], tier


def test_join_is_columnar_only_on_a_pure_equi_condition():
    (out,) = Join("O.cust = C.cust").output_relations([ORDERS, CUSTOMERS], ["J"])
    planner = ExpressionPlanner(**TIERS["fused"])

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
        # a compiled planner leaves both outputs lazy
        assert [d.peek_fused() is not None for d in got] == [planner.compiled] * 2
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
    (from_stage,) = stage.execute(inputs, stage_out, planner)
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

    def test_filter_stage_is_the_filter_operator(self, tier):
        from_stage, from_op = stage_and_operator(
            FilterStage.single("amt > 5"), Filter("amt > 5"), [orders()], **tier
        )
        assert from_stage == from_op
        assert ids(from_stage) == [2, 4]

    def test_transformer_is_the_project_operator(self, tier):
        derivations = [("key", "id"), ("twice", "amt * 2")]
        from_stage, from_op = stage_and_operator(
            Transformer.single(derivations), Project(derivations), [orders()], **tier
        )
        assert from_stage == from_op
        assert from_stage[0] == {"key": 1, "twice": 10}

    def test_combine_records_is_the_nest_operator(self, tier):
        from_stage, from_op = stage_and_operator(
            CombineRecords(["cust"], ["id", "amt"], "items"),
            Nest(["cust"], ["id", "amt"], "items"),
            [orders()],
            **tier,
        )
        assert from_stage == from_op
        assert len(from_stage) == 4

    def test_promote_subrecord_is_the_unnest_operator(self, tier):
        from_stage, from_op = stage_and_operator(
            PromoteSubrecord("items"), Unnest("items"), [nested()], **tier
        )
        assert from_stage == from_op
        assert sorted(ids(from_stage)) == [1, 2, 3, 4, 5]

"""Relational stage tests: Join, Lookup, Aggregator, Sort,
RemoveDuplicates."""

import pytest

from repro.data.dataset import Dataset
from repro.errors import ExecutionError, ValidationError
from repro.exec import ExpressionPlanner
from repro.resilience import ErrorContext
from repro.etl.stages import (
    AggregatorStage,
    JoinStage,
    LookupStage,
    RemoveDuplicatesStage,
    SortStage,
)
from repro.schema import relation


@pytest.fixture
def orders():
    return relation(
        "Orders", ("orderID", "int", False), ("customerID", "int"),
        ("amount", "float"),
    )


@pytest.fixture
def customers():
    return relation(
        "Customers", ("customerID", "int", False), ("name", "varchar")
    )


def orders_data(orders):
    return Dataset(
        orders,
        [
            {"orderID": 1, "customerID": 1, "amount": 10.0},
            {"orderID": 2, "customerID": 1, "amount": 20.0},
            {"orderID": 3, "customerID": 2, "amount": 30.0},
            {"orderID": 4, "customerID": 9, "amount": 40.0},
        ],
    )


def customers_data(customers):
    return Dataset(
        customers,
        [{"customerID": 1, "name": "ada"}, {"customerID": 2, "name": "ben"}],
    )


class TestJoinStage:
    def test_keys_mode_merges_key_columns(self, run, orders, customers):
        stage = JoinStage(keys=[("customerID", "customerID")])
        (out,) = run(stage, [orders_data(orders), customers_data(customers)])
        # DataStage behaviour: one customerID column, left copy
        assert out.relation.attribute_names == (
            "orderID", "customerID", "amount", "name",
        )
        assert len(out) == 3

    def test_left_join_null_fills(self, run, orders, customers):
        stage = JoinStage(
            keys=[("customerID", "customerID")], join_type="left"
        )
        (out,) = run(stage, [orders_data(orders), customers_data(customers)])
        assert len(out) == 4
        dangling = [r for r in out if r["orderID"] == 4][0]
        assert dangling["name"] is None

    def test_condition_mode_keeps_dotted_collisions(self, run, orders, customers):
        stage = JoinStage(
            condition="DSLink1.customerID = DSLink2.customerID"
        )
        left = orders_data(orders).renamed("DSLink1")
        right = customers_data(customers).renamed("DSLink2")
        (out,) = run(stage, [left, right])
        names = out.relation.attribute_names
        assert "DSLink1.customerID" in names
        assert "DSLink2.customerID" in names

    def test_non_equi_condition(self, run, orders, customers):
        stage = JoinStage(condition="DSLink1.amount > 25")
        left = orders_data(orders).renamed("DSLink1")
        right = customers_data(customers).renamed("DSLink2")
        (out,) = run(stage, [left, right])
        assert len(out) == 4  # 2 big orders x 2 customers

    def test_keys_and_condition_mutually_exclusive(self):
        with pytest.raises(ValidationError):
            JoinStage(keys=[("a", "a")], condition="a = b")

    def test_placeholder_join(self, orders, customers):
        stage = JoinStage()
        assert stage.is_placeholder
        assert "placeholder" in stage.annotations
        stage.validate([orders, customers])  # skeletons validate...
        with pytest.raises(ValidationError):
            stage.effective_condition(orders, customers)  # ...but can't run

    def test_unknown_join_type_rejected(self):
        with pytest.raises(ValidationError):
            JoinStage(keys=[("a", "a")], join_type="diagonal")


class TestLookupStage:
    def test_continue_null_fills(self, run, orders, customers):
        stage = LookupStage(keys=[("customerID", "customerID")])
        (out,) = run(stage, [orders_data(orders), customers_data(customers)])
        assert len(out) == 4
        miss = [r for r in out if r["orderID"] == 4][0]
        assert miss["name"] is None

    def test_drop_discards_misses(self, run, orders, customers):
        stage = LookupStage(
            keys=[("customerID", "customerID")], on_failure="drop"
        )
        (out,) = run(stage, [orders_data(orders), customers_data(customers)])
        assert sorted(out.column("orderID")) == [1, 2, 3]

    def test_fail_raises_on_miss(self, run, orders, customers):
        stage = LookupStage(
            keys=[("customerID", "customerID")], on_failure="fail"
        )
        with pytest.raises(ExecutionError):
            run(stage, [orders_data(orders), customers_data(customers)])

    def test_first_match_wins_on_duplicate_reference(self, run, orders, customers):
        dup = Dataset(
            customers,
            [
                {"customerID": 1, "name": "first"},
                {"customerID": 1, "name": "second"},
            ],
        )
        stage = LookupStage(
            keys=[("customerID", "customerID")], on_failure="drop"
        )
        (out,) = run(stage, [orders_data(orders), dup])
        assert set(out.column("name")) == {"first"}

    def test_return_columns_restriction(self, run, orders, customers):
        stage = LookupStage(
            keys=[("customerID", "customerID")], return_columns=["name"]
        )
        (out,) = run(stage, [orders_data(orders), customers_data(customers)])
        assert "name" in out.relation.attribute_names

    def test_returned_collision_rejected(self, orders):
        ref = relation("Ref", ("customerID", "int"), ("amount", "float"))
        stage = LookupStage(keys=[("customerID", "customerID")])
        with pytest.raises(ValidationError):
            stage.validate([orders, ref])


class TestAggregatorStage:
    def test_grouping_and_aggregation(self, run, orders):
        stage = AggregatorStage(
            ["customerID"],
            [("total", "sum", "amount"), ("n", "count", None)],
        )
        (out,) = run(stage, [orders_data(orders)])
        by_customer = {r["customerID"]: r for r in out}
        assert by_customer[1]["total"] == 30.0
        assert by_customer[1]["n"] == 2

    def test_all_aggregation_functions(self, run, orders):
        stage = AggregatorStage(
            ["customerID"],
            [
                ("s", "sum", "amount"),
                ("a", "avg", "amount"),
                ("lo", "min", "amount"),
                ("hi", "max", "amount"),
                ("c", "count", "amount"),
            ],
        )
        (out,) = run(stage, [orders_data(orders)])
        row = [r for r in out if r["customerID"] == 1][0]
        assert (row["s"], row["a"], row["lo"], row["hi"], row["c"]) == (
            30.0, 15.0, 10.0, 20.0, 2,
        )

    def test_pure_grouping(self, run, orders):
        stage = AggregatorStage(["customerID"])
        (out,) = run(stage, [orders_data(orders)])
        assert len(out) == 3

    def test_unknown_function_rejected(self):
        with pytest.raises(ValidationError):
            AggregatorStage(["a"], [("x", "median", "v")])

    def test_needs_group_keys(self):
        with pytest.raises(ValidationError):
            AggregatorStage([], [("x", "sum", "v")])

    def test_non_count_needs_column(self):
        with pytest.raises(ValidationError):
            AggregatorStage(["a"], [("x", "sum", None)])


class TestSortStage:
    def test_multi_key_sort(self, run, orders):
        stage = SortStage([("customerID", "asc"), ("amount", "desc")])
        (out,) = run(stage, [orders_data(orders)])
        assert [r["orderID"] for r in out] == [2, 1, 3, 4]

    def test_nulls_last_ascending(self, run, orders):
        data = orders_data(orders)
        data.append({"orderID": 5, "customerID": None, "amount": 1.0})
        stage = SortStage([("customerID", "asc")])
        (out,) = run(stage, [data])
        assert out.rows[-1]["orderID"] == 5

    def test_nulls_last_descending(self, run, orders):
        data = orders_data(orders)
        data.append({"orderID": 5, "customerID": None, "amount": 1.0})
        stage = SortStage([("customerID", "desc")])
        (out,) = run(stage, [data])
        assert out.rows[-1]["orderID"] == 5

    def test_bad_direction_rejected(self):
        with pytest.raises(ValidationError):
            SortStage([("a", "upwards")])

    @pytest.mark.parametrize(
        "direction, expected",
        [
            ("asc", [4, 3, 7, 0, 5, 1, 2, 6]),
            ("desc", [1, 5, 0, 7, 3, 4, 2, 6]),
        ],
    )
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "oracle"])
    def test_mixed_types_and_nulls_never_raise(self, compiled, direction, expected):
        """Sort keys are raw cells and every value orders — NULL last,
        numbers with numbers, any other class by name — so under
        ``fail_fast`` a Sort has no row error to raise, on either tier."""
        rel = relation("T", ("id", "int", False), ("k", "varchar"))
        keys = [3, "b", None, 1.5, True, "a", None, 2]
        data = Dataset(
            rel, [{"id": i, "k": k} for i, k in enumerate(keys)], validate=False
        )
        stage = SortStage([("k", direction)])
        (out,) = stage.execute(
            [data],
            stage.output_relations([rel], ["Out"]),
            ExpressionPlanner(compiled=compiled),
            errors=ErrorContext("Sort", "fail_fast"),
        )
        assert [row["id"] for row in out.rows] == expected


class TestRemoveDuplicates:
    def test_retain_first(self, run, orders):
        stage = RemoveDuplicatesStage(["customerID"])
        (out,) = run(stage, [orders_data(orders)])
        assert sorted(out.column("orderID")) == [1, 3, 4]

    def test_retain_last(self, run, orders):
        stage = RemoveDuplicatesStage(["customerID"], retain="last")
        (out,) = run(stage, [orders_data(orders)])
        assert sorted(out.column("orderID")) == [2, 3, 4]

    def test_bad_retain_rejected(self):
        with pytest.raises(ValidationError):
            RemoveDuplicatesStage(["a"], retain="middle")

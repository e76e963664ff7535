"""Transformation stage tests: Transformer, Modify, SurrogateKey."""

import pytest

from repro.data.dataset import Dataset
from repro.errors import ValidationError
from repro.etl.stages import Modify, SurrogateKey, Transformer
from repro.etl.stages.transform import OutputLink
from repro.exec import ExpressionPlanner
from repro.resilience import ErrorContext
from repro.schema import relation


@pytest.fixture
def rel():
    return relation(
        "R", ("id", "int", False), ("name", "varchar"), ("v", "float")
    )


@pytest.fixture
def data(rel):
    return Dataset(
        rel,
        [
            {"id": 1, "name": "ada", "v": 10.0},
            {"id": 2, "name": "ben", "v": 200.0},
            {"id": 3, "name": None, "v": None},
        ],
    )


class TestTransformer:
    def test_derivations(self, run, data):
        stage = Transformer.single(
            [("id", "id"), ("shout", "UPPER(name) || '!'")]
        )
        (out,) = run(stage, [data])
        assert out.rows[0] == {"id": 1, "shout": "ADA!"}
        assert out.rows[2]["shout"] is None  # NULL propagates

    def test_constraint_gates_output(self, run, data):
        stage = Transformer.single([("id", "id")], constraint="v > 100")
        (out,) = run(stage, [data])
        assert out.column("id") == [2]

    def test_multiple_outputs_with_constraints(self, run, data):
        stage = Transformer(
            [
                OutputLink([("id", "id")], constraint="v <= 100"),
                OutputLink([("id", "id")], constraint="v > 100"),
            ]
        )
        low, high = run(stage, [data])
        assert low.column("id") == [1]
        assert high.column("id") == [2]

    def test_otherwise_link_catches_unmatched(self, run, data):
        stage = Transformer(
            [
                OutputLink([("id", "id")], constraint="v > 100"),
                OutputLink([("id", "id")], otherwise=True),
            ]
        )
        matched, otherwise = run(stage, [data])
        assert matched.column("id") == [2]
        assert sorted(otherwise.column("id")) == [1, 3]

    def test_stage_variables(self, run, data):
        stage = Transformer(
            [OutputLink([("id", "id"), ("band", "bucket * 10")])],
            stage_variables=[("bucket", "CASE WHEN v > 100 THEN 2 ELSE 1 END")],
        )
        (out,) = run(stage, [data])
        assert [r["band"] for r in out] == [10, 20, 10]

    def test_stage_variable_chaining(self, run, data):
        stage = Transformer(
            [OutputLink([("x", "b")])],
            stage_variables=[("a", "id * 2"), ("b", "a + 1")],
        )
        (out,) = run(stage, [data])
        assert [r["x"] for r in out] == [3, 5, 7]

    def test_output_schema_types(self, rel):
        stage = Transformer.single([("n", "LENGTH(name)")])
        (out_rel,) = stage.output_relations([rel], ["o"])
        from repro.schema import INTEGER

        assert out_rel.attribute("n").dtype is INTEGER

    def test_at_most_one_otherwise(self):
        with pytest.raises(ValidationError):
            Transformer(
                [
                    OutputLink([("a", "a")], otherwise=True),
                    OutputLink([("a", "a")], otherwise=True),
                ]
            )

    def test_otherwise_with_constraint_rejected(self):
        with pytest.raises(ValidationError):
            OutputLink([("a", "a")], constraint="a > 1", otherwise=True)

    def test_duplicate_output_columns_rejected(self):
        with pytest.raises(ValidationError):
            OutputLink([("a", "x"), ("a", "y")])


class TestModify:
    def test_keep_drop_rename(self, run, data):
        stage = Modify(keep=["id", "name"], rename={"label": "name"})
        (out,) = run(stage, [data])
        assert out.relation.attribute_names == ("id", "label")
        assert out.rows[0]["label"] == "ada"

    def test_drop(self, run, data):
        stage = Modify(drop=["v"])
        (out,) = run(stage, [data])
        assert out.relation.attribute_names == ("id", "name")

    def test_convert_changes_type_and_value(self, run, data):
        stage = Modify(convert={"id": "varchar"})
        (out,) = run(stage, [data])
        assert out.rows[0]["id"] == "1"
        from repro.schema import STRING

        assert out.relation.attribute("id").dtype is STRING

    # the compiled tier runs the block body, the oracle the row body
    @pytest.mark.parametrize("compiled", [True, False], ids=["block", "rows"])
    def test_a_bad_conversion_is_rejected_on_either_body(self, rel, compiled):
        data = Dataset(rel, [{"id": 1, "name": "7", "v": 1.0}, {"id": 2, "name": "x", "v": 2.0}])
        stage = Modify(convert={"name": "int"})
        (out_rel,) = stage.output_relations([rel], ["o"])
        errors = ErrorContext("m", "reject")
        planner = ExpressionPlanner(compiled=compiled)
        (out,) = stage.execute([data], [out_rel], planner, errors=errors)
        assert out.column("name") == [7]
        assert [r.row_index for r in errors.rejected] == [1]

    def test_unknown_column_rejected(self, run, data):
        with pytest.raises(Exception):
            run(Modify(keep=["bogus"]), [data])

    def test_rename_source_must_exist(self, run, data):
        with pytest.raises(Exception):
            run(Modify(rename={"x": "bogus"}), [data])


class TestSurrogateKey:
    def test_appends_sequential_key(self, run, data):
        stage = SurrogateKey("sk", start=10)
        (out,) = run(stage, [data])
        assert out.column("sk") == [10, 11, 12]
        assert out.relation.attribute("sk").nullable is False

    def test_existing_column_rejected(self, run, data):
        with pytest.raises(ValidationError):
            run(SurrogateKey("id"), [data])

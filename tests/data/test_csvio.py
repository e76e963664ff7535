"""CSV I/O unit tests."""

import datetime
import io

import pytest

from repro.data.csvio import (
    dataset_from_csv_text,
    dataset_to_csv_text,
    read_csv,
    write_csv,
)
from repro.data.dataset import Dataset
from repro.errors import SchemaError, SerializationError
from repro.schema import relation
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, RecordType, SetType


@pytest.fixture
def rel():
    return relation(
        "T",
        ("id", "int", False),
        ("name", "varchar"),
        ("score", "float"),
        ("joined", "date"),
        ("active", "bool"),
    )


class TestParsing:
    def test_typed_parsing(self, rel):
        text = "id,name,score,joined,active\n1,ada,2.5,2008-01-31,true\n"
        data = dataset_from_csv_text(text, rel)
        row = data.rows[0]
        assert row["id"] == 1
        assert row["score"] == 2.5
        assert row["joined"] == datetime.date(2008, 1, 31)
        assert row["active"] is True

    def test_empty_cell_is_null(self, rel):
        data = dataset_from_csv_text("id,name\n1,\n", rel)
        assert data.rows[0]["name"] is None

    def test_header_reorders_columns(self, rel):
        data = dataset_from_csv_text("name,id\nada,3\n", rel)
        assert data.rows[0]["id"] == 3

    def test_unknown_header_column_rejected(self, rel):
        with pytest.raises(SerializationError):
            dataset_from_csv_text("id,bogus\n1,2\n", rel)

    def test_ragged_row_rejected(self, rel):
        with pytest.raises(SerializationError) as info:
            dataset_from_csv_text("id,name\n1\n", rel)
        assert "line 2" in str(info.value)

    def test_bad_value_rejected(self, rel):
        with pytest.raises(SerializationError):
            dataset_from_csv_text("id\nnot-a-number\n", rel)

    def test_duplicate_header_column_rejected(self, rel):
        with pytest.raises(SerializationError) as info:
            dataset_from_csv_text("id,name,name\n1,a,b\n", rel)
        assert "['name'] more than once" in str(info.value)

    def test_bad_cell_is_located(self, rel):
        text = "id,score,name\n1,2.5,a\n2,x,b\nz,y,c\n"
        with pytest.raises(SerializationError) as info:
            dataset_from_csv_text(text, rel)
        assert str(info.value).startswith(
            "line 3, column 'score': cannot parse 'x' as FLOAT"
        )

    def test_null_in_non_nullable_column_is_located(self, rel):
        with pytest.raises(SchemaError) as info:
            dataset_from_csv_text("name,id\na,1\nb,\n", rel)
        assert str(info.value) == (
            "line 3, column 'id': NULL in non-nullable column T.id"
        )
        # a required column the header leaves out is NULL on every line
        with pytest.raises(SchemaError, match="line 2, column 'id'"):
            dataset_from_csv_text("name\na\n", rel)
        # without a header the first record is line 1
        with pytest.raises(SchemaError, match="line 1, column 'id'"):
            read_csv(io.StringIO(",a,,,\n"), rel, has_header=False)

    def test_first_defect_in_line_order_is_reported(self, rel):
        text = "id,score\n1,1.0\n2\n3,x\n"
        with pytest.raises(SerializationError, match="line 3: expected 2 cells"):
            dataset_from_csv_text(text, rel)

    def test_boolean_spellings(self, rel):
        text = "id,active\n1,yes\n2,0\n3,T\n"
        data = dataset_from_csv_text(text, rel)
        assert [r["active"] for r in data] == [True, False, True]

    def test_nested_relation_rejected(self):
        nested = Relation(
            "N",
            [
                Attribute("id", INTEGER),
                Attribute("items", SetType(RecordType([("v", INTEGER)]))),
            ],
        )
        with pytest.raises(SerializationError):
            read_csv(io.StringIO("id,items\n"), nested)


class TestRoundTrip:
    def test_text_roundtrip(self, rel):
        data = Dataset(
            rel,
            [
                {"id": 1, "name": "ada", "score": 2.5,
                 "joined": datetime.date(2008, 1, 31), "active": True},
                {"id": 2, "name": None, "score": None,
                 "joined": None, "active": False},
            ],
        )
        text = dataset_to_csv_text(data)
        back = dataset_from_csv_text(text, rel)
        assert back.same_bag(data)

    def test_file_roundtrip(self, rel, tmp_path):
        path = str(tmp_path / "data.csv")
        data = Dataset(rel, [{"id": 7, "name": "x"}])
        write_csv(data, path)
        assert read_csv(path, rel).same_bag(data)

    def test_no_header_positional(self, rel, tmp_path):
        path = str(tmp_path / "data.csv")
        with open(path, "w") as handle:
            handle.write("5,ada,1.0,2008-01-01,false\n")
        data = read_csv(path, rel, has_header=False)
        assert data.rows[0]["id"] == 5

    def test_empty_file_with_header_expected(self, rel):
        assert len(dataset_from_csv_text("", rel)) == 0

    def test_header_only_file_is_an_empty_dataset(self, rel):
        data = dataset_from_csv_text("id,name\n", rel)
        assert len(data) == 0 and data.rows == []


class TestTransactionalWrite:
    def test_failed_write_leaves_no_temp_file_and_the_old_destination(
        self, rel, tmp_path
    ):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text form")

        path = str(tmp_path / "data.csv")
        write_csv(Dataset(rel, [{"id": 1, "name": "old"}]), path)
        before = open(path).read()
        bad = Dataset.adopt(
            rel, [{"id": 2, "name": "new"}, {"id": 3, "name": Unprintable()}]
        )
        with pytest.raises(RuntimeError, match="no text form"):
            write_csv(bad, path)
        assert open(path).read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_successful_write_leaves_no_temp_file(self, rel, tmp_path):
        path = str(tmp_path / "data.csv")
        write_csv(Dataset(rel, [{"id": 1}]), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

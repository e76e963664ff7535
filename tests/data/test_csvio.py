"""CSV I/O unit tests."""

import csv
import datetime
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import csvio
from repro.data.columns import format_column
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
from repro.schema.types import (
    BOOLEAN,
    DATE,
    FLOAT,
    INTEGER,
    STRING,
    TIMESTAMP,
    RecordType,
    SetType,
)


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
        with open(path, "w", encoding="utf-8") as handle:
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
        before = open(path, encoding="utf-8").read()
        bad = Dataset.adopt(
            rel, [{"id": 2, "name": "new"}, {"id": 3, "name": Unprintable()}]
        )
        with pytest.raises(RuntimeError, match="no text form"):
            write_csv(bad, path)
        assert open(path, encoding="utf-8").read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_successful_write_leaves_no_temp_file(self, rel, tmp_path):
        path = str(tmp_path / "data.csv")
        write_csv(Dataset(rel, [{"id": 1}]), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


# -- the split reader and the join writer agree with the csv module ----------
#
# ``read_csv`` splits plain text into columns and ``write_csv`` renders
# rows by ``join``; the ``csv.reader`` / ``csv.writer`` paths stay as the
# fallback and as the reference. The texts below mix what the split
# takes (plain cells, ``\n`` or ``\r\n`` throughout) with everything it
# must hand over: quotes, NUL, lone ``\r``, mixed line ends, blank lines,
# ragged lines and bad headers.

PLAIN_CELLS = {
    "id": ["1", "-7", "42"],
    "name": ["ada", " lead", "tab\tbed", "x\x1cy", "p q", "zoë"],
    "score": ["2.5", "-0.0", "1e3", "nan", "7"],
    "joined": ["2008-01-31", "1999-12-01"],
    "active": ["true", "no", "T", "0"],
}
BAD_CELLS = ["x", " 1", "2008-02-30", "maybe", "1.5.2"]
QUOTED_CELLS = ['"a,b"', '"say ""hi"""', 'x"y', '"two\nlines"', '"cr\rin"', "\x00", "a\rb"]


#: the ``rel`` fixture's relation, for the hypothesis tests
REL = relation(
    "T",
    ("id", "int", False),
    ("name", "varchar"),
    ("score", "float"),
    ("joined", "date"),
    ("active", "bool"),
)


@st.composite
def csv_texts(draw):
    """(text, has_header): a header (or none), lines of cells, line ends."""
    has_header = draw(st.booleans())
    names = list(PLAIN_CELLS)
    if has_header:
        header = draw(
            st.lists(st.sampled_from(names + ["bogus"]), min_size=1, max_size=6)
        )
        if draw(st.booleans()):
            header = list(dict.fromkeys(header))  # usually no duplicates
    else:
        header = names
    dirty = draw(st.sampled_from(["plain", "bad", "quoted"]))
    lines = [",".join(header)] if has_header else []
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for name in header:
            pool = PLAIN_CELLS.get(name, ["v"]) + ([""] if name != "id" else [])
            if dirty == "bad":
                pool = pool + BAD_CELLS + [""]
            elif dirty == "quoted":
                pool = pool + QUOTED_CELLS
            cells.append(draw(st.sampled_from(pool)))
        shape = draw(st.sampled_from(["even"] * 6 + ["short", "long", "blank"]))
        if shape == "short":
            cells = cells[:-1]
        elif shape == "long":
            cells = cells + ["1"]
        elif shape == "blank":
            lines.append("")
        lines.append(",".join(cells))
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if ends == "mixed":
        text = "".join(
            line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines
        )
    else:
        text = ends.join(lines) + (ends if draw(st.booleans()) else "")
    return text, has_header


def _reading(read):
    """The rows (values with their classes, by ``repr``) or the error's
    class and message."""
    try:
        return repr(read().rows)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_split_reader_agrees_with_csv_reader(tmp_path_factory, case):
    text, has_header = case
    rel = REL
    expected = _reading(
        lambda: csvio._read_rows(io.StringIO(text, newline=""), rel, has_header)
    )
    got = _reading(lambda: read_csv(io.StringIO(text, newline=""), rel, has_header))
    assert got == expected
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    assert _reading(lambda: read_csv(path, rel, has_header)) == expected


def test_split_reader_is_taken_only_for_plain_text():
    assert csvio._split_cells("a,b\r\n1,2\r\n", None) == (2, ["a", "b", "1", "2"])
    assert csvio._split_cells("a,b\n1,2", None) == (2, ["a", "b", "1", "2"])
    assert csvio._split_cells("1,2\n", 3) is None  # too few cells
    for text in ['a\n"1"\n', "a\r\n1\n", "a\r1\r", "a\n\n1\n", "a\x00\n", "", "\n"]:
        assert csvio._split_cells(text, None) is None, repr(text)
    limit = csv.field_size_limit()
    assert csvio._split_cells("a\n" + "x" * (limit + 1) + "\n", None) is None


@pytest.mark.parametrize("text", ["", "\n", "\r\n", "id\n", "id", "id\r\n\r\n"])
def test_degenerate_texts_read_as_the_csv_reader_reads_them(rel, text):
    for has_header in (True, False):
        expected = _reading(
            lambda: csvio._read_rows(io.StringIO(text, newline=""), rel, has_header)
        )
        got = _reading(
            lambda: read_csv(io.StringIO(text, newline=""), rel, has_header)
        )
        assert got == expected


def _writer_text(data):
    """``csv.writer`` over the formatted columns: the reference bytes."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(data.relation.attribute_names)
    writer.writerows(zip(*map(format_column, data.columns())))
    return buffer.getvalue()


WRITE_DTYPES = {
    INTEGER: st.integers(-(2**70), 2**70),
    FLOAT: st.floats(allow_nan=True, allow_infinity=True),
    STRING: st.text(alphabet=st.sampled_from('ab ,"\r\n\x00\x1c é'), max_size=4),
    BOOLEAN: st.booleans(),
    DATE: st.dates(),
    TIMESTAMP: st.datetimes(),
}


@st.composite
def datasets(draw):
    dtypes = draw(st.lists(st.sampled_from(list(WRITE_DTYPES)), min_size=1, max_size=4))
    rel = Relation(
        "W", [Attribute(f"c{i}", d) for i, d in enumerate(dtypes)]
    )
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    f"c{i}": st.none() | WRITE_DTYPES[d]
                    for i, d in enumerate(dtypes)
                }
            ),
            max_size=6,
        )
    )
    return Dataset(rel, rows)


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_join_writer_bytes_equal_csv_writer(tmp_path_factory, data):
    expected = _writer_text(data)
    assert dataset_to_csv_text(data) == expected
    path = str(tmp_path_factory.mktemp("csv") / "w.csv")
    write_csv(data, path)
    with open(path, "rb") as handle:
        assert handle.read() == expected.encode("utf-8")


def test_join_writer_edge_cases_equal_csv_writer():
    one = Relation("O", [Attribute("s", STRING)])
    two = Relation("P", [Attribute("s", STRING), Attribute("f", FLOAT)])
    cases = [
        Dataset(one, [{"s": ""}, {"s": "a"}]),  # written as ""
        Dataset(one, [{"s": None}]),
        Dataset(one, []),
        Dataset(two, [{"s": "", "f": 0.1 + 0.2}, {"s": None, "f": None}]),
        Dataset(two, [{"s": "x", "f": 1e300}, {"s": "y", "f": float("-inf")}]),
    ]
    for data in cases:
        assert dataset_to_csv_text(data) == _writer_text(data)
    assert dataset_to_csv_text(cases[0]) == 's\r\n""\r\na\r\n'

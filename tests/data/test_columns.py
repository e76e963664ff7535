"""The columnar data boundaries agree with the row-wise code they replace.

``repro.data.columns`` judges, parses and formats a column at a time;
the row-wise code (``Dataset.append``, ``csvio._parse_rows``) stays as
the reference and as the only place that words an error. These tests
hold the two together: same block or same exception for source
validation, the memo rules of ``Dataset.with_relation``, CSV round
trips and seed-identical bytes, and the sqlite load/fetch boundary.
"""

import csv
import datetime
import io
import random

import pytest

from repro.data import columns
from repro.data.csvio import (
    dataset_from_csv_text,
    dataset_to_csv_text,
    read_csv,
    write_csv,
)
from repro.data.dataset import Dataset, Instance
from repro.deploy.sql import SqliteRunner
from repro.errors import SchemaError
from repro.etl import EtlEngine
from repro.exec.block import RowBlock
from repro.schema.model import Attribute, Relation
from repro.schema.types import (
    BOOLEAN,
    DATE,
    DECIMAL,
    FLOAT,
    INTEGER,
    STRING,
    TIMESTAMP,
)
from repro.workloads import build_example_job, generate_instance

DTYPES = (INTEGER, FLOAT, DECIMAL, STRING, BOOLEAN, DATE, TIMESTAMP)


class SubInt(int):
    """An ``int`` subclass: legal wherever ``isinstance(v, int)`` is."""


def _legal(dtype, rng):
    if dtype is INTEGER:
        return rng.randrange(-50, 50)
    if dtype in (FLOAT, DECIMAL):
        return rng.randrange(-500, 500) / 4
    if dtype is STRING:
        return rng.choice(["", "a", 'say "hi"', "x,y", "two\nlines", " pad "])
    if dtype is BOOLEAN:
        return rng.random() < 0.5
    if dtype is DATE:
        return datetime.date(2008, 1, 1) + datetime.timedelta(rng.randrange(400))
    return datetime.datetime(2008, 1, 7, 12) + datetime.timedelta(
        seconds=rng.randrange(10**7)
    )


def _relation(nullable=True, name="T"):
    return Relation(
        name,
        [Attribute("id", INTEGER, nullable=False)]
        + [Attribute(d.name.lower(), d, nullable=nullable) for d in DTYPES],
    )


def _rows(rng, n=12):
    return [
        dict({"id": i}, **{d.name.lower(): _legal(d, rng) for d in DTYPES})
        for i in range(n)
    ]


def _outcome(fn):
    """What a validation did: every cell with its exact type, or the
    exception's class and message."""
    try:
        block = fn().as_block()
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)
    return {
        name: [(type(v), v) for v in col] for name, col in block.columns.items()
    }


def _backings(own, rows):
    """The same rows as a row-backed and as a block-backed dataset
    (missing keys read as NULL, as the row path reads them)."""
    names = own.attribute_names
    block = RowBlock({n: [r.get(n) for r in rows] for n in names}, len(rows))
    return {
        "rows": Dataset.adopt(own, [dict(r) for r in rows]),
        "block": Dataset.adopt_block(own, block),
    }


def _assert_agrees(own, rows, relation):
    """``with_relation`` (by column) == ``Dataset(relation, rows)``."""
    outcomes = []
    for backing, data in _backings(own, rows).items():
        twin = _backings(own, rows)[backing]
        expected = _outcome(lambda: Dataset(relation, twin.rows))
        got = _outcome(lambda: data.with_relation(relation))
        assert got == expected, backing
        outcomes.append(got)
    return outcomes[0]


# -- (a) column-wise validation == the row path ------------------------------


SCENARIOS = {
    # name -> (edit(rows, column, dtype), applies(dtype), expect_error)
    "clean": (lambda rows, c, d: None, lambda d: True, False),
    "nulls": (
        lambda rows, c, d: [rows[i].__setitem__(c, None) for i in (1, 5)],
        lambda d: True, False,
    ),
    "bool_in_numeric": (
        lambda rows, c, d: rows[4].__setitem__(c, True),
        lambda d: d in (INTEGER, FLOAT, DECIMAL), True,
    ),
    "int_in_boolean": (
        lambda rows, c, d: rows[4].__setitem__(c, 1),
        lambda d: d is BOOLEAN, True,
    ),
    "int_in_float": (
        lambda rows, c, d: [rows[i].__setitem__(c, i) for i in (0, 7)],
        lambda d: d in (FLOAT, DECIMAL), False,
    ),
    "int_subclass": (
        lambda rows, c, d: rows[3].__setitem__(c, SubInt(9)),
        lambda d: d in (INTEGER, FLOAT, DECIMAL), False,
    ),
    "datetime_in_date": (
        lambda rows, c, d: rows[2].__setitem__(c, datetime.datetime(2008, 1, 7)),
        lambda d: d is DATE, True,
    ),
    "date_in_timestamp": (
        lambda rows, c, d: rows[2].__setitem__(c, datetime.date(2008, 1, 7)),
        lambda d: d is TIMESTAMP, True,
    ),
    "string_in_typed": (
        lambda rows, c, d: rows[6].__setitem__(c, "7"),
        lambda d: d is not STRING, True,
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "dtype,scenario",
    [
        pytest.param(d, name, id=f"{d.name}-{name}")
        for d in DTYPES
        for name, (_edit, applies, _error) in sorted(SCENARIOS.items())
        if applies(d)
    ],
)
def test_validation_by_column_is_the_row_path(dtype, scenario, seed):
    edit, _applies, expect_error = SCENARIOS[scenario]
    rows = _rows(random.Random(seed))
    edit(rows, dtype.name.lower(), dtype)
    before = [dict(r) for r in rows]
    got = _assert_agrees(_relation(), rows, _relation())
    assert isinstance(got, tuple) == expect_error
    assert rows == before  # the source rows are never coerced in place


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
def test_null_in_non_nullable_is_the_row_paths_error(dtype):
    rows = _rows(random.Random(1))
    rows[8][dtype.name.lower()] = None
    got = _assert_agrees(_relation(), rows, _relation(nullable=False))
    assert got == (
        SchemaError, f"NULL in non-nullable column T.{dtype.name.lower()}"
    )


def test_int_in_float_comes_out_float_and_leaves_the_source_alone():
    rows = [{"id": 1, "float": 2}, {"id": 2, "float": SubInt(3)}]
    rel = Relation("T", [Attribute("id", INTEGER), Attribute("float", FLOAT)])
    for backing, data in _backings(rel, rows).items():
        col = data.with_relation(rel).column("float")
        assert [(type(v), v) for v in col] == [(float, 2.0), (float, 3.0)]
        assert [type(v) for v in data.column("float")] == [int, SubInt], backing


def test_unknown_key_is_refused_and_missing_key_reads_null():
    wide = Relation("T", [Attribute("id", INTEGER), Attribute("extra", STRING)])
    narrow = Relation("T", [Attribute("id", INTEGER)])
    rows = [{"id": 1, "extra": "x"}, {"id": 2, "extra": None}]
    got = _assert_agrees(wide, rows, narrow)  # target lacks "extra"
    assert got == (SchemaError, "row has columns ['extra'] not in relation 'T'")
    got = _assert_agrees(narrow, [{"id": 1}, {"id": 2}], wide)
    assert got["extra"] == [(type(None), None)] * 2
    required = Relation(
        "T", [Attribute("id", INTEGER), Attribute("extra", STRING, nullable=False)]
    )
    got = _assert_agrees(narrow, [{"id": 1}], required)
    assert got == (SchemaError, "NULL in non-nullable column T.extra")
    # a row-backed dataset may hold a stray key in one row only
    stray = Dataset.adopt(narrow, [{"id": 1}, {"id": 2, "stray": 0}])
    with pytest.raises(SchemaError, match=r"\['stray'\]"):
        stray.with_relation(narrow)
    # with no rows there is no row to refuse
    assert len(Dataset.adopt_block(wide, RowBlock({"id": [], "extra": []}, 0))
               .with_relation(narrow)) == 0


def test_the_length_sweep_refuses_what_the_superset_test_refused():
    """Rows of as many keys as the relation has names are extracted
    strictly, so a row that trades a name for a stray key is a defect;
    a longer row is one without a look at its keys; a shorter row still
    reads NULL where it is ragged."""
    rel = Relation("T", [Attribute("id", INTEGER), Attribute("extra", STRING)])
    swapped = [{"id": 1, "extra": "x"}, {"id": 2, "stray": "y"}]
    got = _assert_agrees(rel, swapped, rel)
    assert got == (SchemaError, "row has columns ['stray'] not in relation 'T'")
    longer = [{"id": 1, "extra": "x"}, {"id": 2, "extra": "y", "more": 0}]
    got = _assert_agrees(rel, longer, rel)
    assert got == (SchemaError, "row has columns ['more'] not in relation 'T'")
    shorter = [{"id": 1, "extra": "x"}, {"id": 2}]
    got = _assert_agrees(rel, shorter, rel)
    assert got["extra"] == [(str, "x"), (type(None), None)]
    # a shorter row beside a swapped one: the superset test refuses it
    got = _assert_agrees(rel, shorter + [{"id": 3, "stray": "z"}], rel)
    assert got == (SchemaError, "row has columns ['stray'] not in relation 'T'")


def test_of_two_defects_the_first_in_row_order_is_reported():
    rows = _rows(random.Random(2))
    rows[9]["integer"] = "late, but in the first column"
    rows[3]["string"] = 3  # earlier row, later column
    got = _assert_agrees(_relation(), rows, _relation())
    assert got == (SchemaError, "value 3 is not a STRING")
    rows[3]["boolean"] = None  # same row, later column: still the STRING
    assert _assert_agrees(_relation(), rows, _relation(nullable=False)) == got


def test_a_block_backed_dataset_is_validated_without_materializing_rows():
    rel = _relation()
    data = _backings(rel, _rows(random.Random(3)))["block"]
    checked = data.with_relation(rel)
    assert data._rows is None and checked._rows is None
    assert checked.column("integer") == data.column("integer")


# -- (b) the with_relation memo ------------------------------------------------


class TestMemo:
    REL = Relation("T", [Attribute("id", INTEGER, nullable=False),
                         Attribute("name", STRING)])

    def _no_validation(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("validated again")

        monkeypatch.setattr("repro.data.dataset.checked_column", refuse)

    def test_primed_after_read_csv(self, monkeypatch):
        data = dataset_from_csv_text("id,name\n1,a\n2,\n", self.REL)
        self._no_validation(monkeypatch)
        assert data.with_relation(self.REL).as_block() is data.as_block()

    def test_hit_on_an_equal_signature(self, monkeypatch):
        data = Dataset.adopt(self.REL, [{"id": 1, "name": "a"}])
        first = data.with_relation(self.REL).as_block()
        self._no_validation(monkeypatch)
        again = Relation("Other", list(self.REL.attributes))
        assert data.with_relation(again).as_block() is first

    def test_miss_on_a_changed_nullable(self):
        data = dataset_from_csv_text("id,name\n1,a\n2,\n", self.REL)
        strict = Relation("T", [Attribute("id", INTEGER, nullable=False),
                                Attribute("name", STRING, nullable=False)])
        with pytest.raises(SchemaError, match="T.name"):
            data.with_relation(strict)

    def test_dropped_by_append(self):
        data = dataset_from_csv_text("id,name\n1,a\n", self.REL)
        data.append({"id": None, "name": "b"}, validate=False)
        with pytest.raises(SchemaError, match="T.id"):
            data.with_relation(self.REL)

    def test_never_set_by_a_failed_validation(self):
        rows = [{"id": 1, "name": "a"}, {"id": "2", "name": "b"}]
        data = Dataset.adopt(self.REL, rows)
        for _ in range(2):
            with pytest.raises(SchemaError, match="'2' is not a INTEGER"):
                data.with_relation(self.REL)
        assert data._checked == {}
        rows[1]["id"] = 2
        assert data.with_relation(self.REL).column("id") == [1, 2]


# -- (c) CSV ----------------------------------------------------------------------


def _seed_format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return str(value)


def _seed_csv_text(dataset):
    """The seed's writer, kept as the reference: one ``writerow`` of
    per-cell formatted values a row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    names = list(dataset.relation.attribute_names)
    writer.writerow(names)
    for row in dataset.rows:
        writer.writerow([_seed_format_cell(row.get(n)) for n in names])
    return buffer.getvalue()


@pytest.mark.parametrize("seed", range(3))
def test_csv_round_trip_is_bag_equal_for_every_dtype(seed):
    rng = random.Random(seed)
    rel = _relation()
    rows = _rows(rng, 30)
    for row in rows:
        for name in rel.attribute_names[1:]:
            if rng.random() < 0.2:
                row[name] = None
        if row["string"] == "":
            row["string"] = None  # see the next test
    for data in _backings(rel, rows).values():
        text = dataset_to_csv_text(data)
        assert text == _seed_csv_text(data)
        back = dataset_from_csv_text(text, rel)
        assert back.same_bag(data)
        assert back.rows == Dataset(rel, rows).rows


def test_empty_string_and_null_are_the_same_cell_on_disk():
    rel = Relation("T", [Attribute("id", INTEGER), Attribute("s", STRING)])
    data = Dataset(rel, [{"id": 1, "s": ""}, {"id": 2, "s": None}])
    assert dataset_to_csv_text(data) == "id,s\r\n1,\r\n2,\r\n"
    back = dataset_from_csv_text(dataset_to_csv_text(data), rel)
    assert back.column("s") == [None, None]  # the known limitation


def test_csv_bytes_are_the_seeds_for_the_figure_3_instance_and_targets():
    sources = generate_instance(60, seed=7)
    targets = EtlEngine().execute(build_example_job(), sources)
    for data in [*sources, *targets]:
        assert len(data) > 0
        assert dataset_to_csv_text(data) == _seed_csv_text(data), data.name
        block_backed = Dataset.adopt_block(data.relation, data.as_block())
        assert dataset_to_csv_text(block_backed) == _seed_csv_text(data)


def test_mixed_and_subclassed_columns_fall_back_to_the_cell_formatter():
    class Shout(str):
        def __str__(self):
            return self.upper()

    rel = Relation("T", [Attribute("v", STRING)])
    for values in ([Shout("a"), "b"], [True, 1, None], [SubInt(4), 2.5]):
        data = Dataset.adopt(rel, [{"v": v} for v in values])
        assert dataset_to_csv_text(data) == _seed_csv_text(data)
    plain = ["a", 1, 2.5, None]
    assert columns.format_column(plain) is plain


def test_read_csv_is_block_backed_with_lazy_rows(tmp_path):
    rel = _relation()
    path = str(tmp_path / "t.csv")
    rows = [dict(r, string=r["string"] or None) for r in _rows(random.Random(5))]
    write_csv(Dataset(rel, rows), path)
    data = read_csv(path, rel)
    assert data._rows is None and data.peek_block() is not None
    assert data.rows == Dataset(rel, rows).rows


# -- (d) sqlite load / fetch ------------------------------------------------------


class TestSqliteBoundary:
    REL = Relation("T", [
        Attribute("id", INTEGER, nullable=False),
        Attribute("flag", BOOLEAN),
        Attribute("day", DATE),
        Attribute("at", TIMESTAMP),
        Attribute("name", STRING),
        Attribute("score", FLOAT),
    ])
    ROWS = [
        {"id": 1, "flag": True, "day": datetime.date(2008, 1, 7),
         "at": datetime.datetime(2008, 1, 7, 9, 30, 15), "name": "ada",
         "score": 2.5},
        {"id": 2, "flag": False, "day": None, "at": None, "name": None,
         "score": None},
        {"id": 3, "flag": None, "day": datetime.date(1999, 12, 31),
         "at": datetime.datetime(1999, 12, 31, 23, 59, 59, 250000),
         "name": "it's", "score": -0.0},
    ]

    def test_load_then_select_star_returns_the_instance(self):
        for data in _backings(self.REL, self.ROWS).values():
            runner = SqliteRunner(Instance([data]))
            try:
                back = runner.query('SELECT * FROM "T"', self.REL)
            finally:
                runner.close()
            assert back._rows is None  # block-backed, rows are lazy
            assert back.rows == self.ROWS
            assert [type(v) for v in back.column("flag")] == [
                bool, bool, type(None)
            ]

    def test_an_empty_table_and_an_empty_result_work(self):
        runner = SqliteRunner(Instance([Dataset(self.REL)]))
        try:
            assert len(runner.query('SELECT * FROM "T"', self.REL)) == 0
            runner.load_table(Dataset(self.REL, self.ROWS))
            none = runner.query('SELECT * FROM "T" WHERE "id" < 0', self.REL)
            assert len(none) == 0 and none.rows == []
            assert none.column("day") == []
        finally:
            runner.close()

    def test_a_column_the_query_does_not_return_reads_null(self):
        runner = SqliteRunner(Instance([Dataset(self.REL, self.ROWS)]))
        try:
            back = runner.query('SELECT "id", "flag" FROM "T"', self.REL)
        finally:
            runner.close()
        assert back.column("flag") == [True, False, None]
        assert back.column("name") == [None] * 3

    def test_write_hook_sees_tuples_in_attribute_order(self):
        runner = SqliteRunner(Instance())
        seen = []
        runner.write_hook = lambda sql, rows: seen.append((sql, rows))
        try:
            runner.load_table(Dataset(self.REL, self.ROWS))
        finally:
            runner.close()
        ((sql, rows),) = seen
        assert sql.startswith("INSERT INTO")
        assert rows == [
            (1, 1, "2008-01-07", "2008-01-07 09:30:15", "ada", 2.5),
            (2, 0, None, None, None, None),
            (3, None, "1999-12-31", "1999-12-31 23:59:59.250000", "it's", -0.0),
        ]
        assert all(type(row) is tuple for row in rows)

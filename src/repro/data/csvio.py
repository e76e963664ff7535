"""CSV import/export for datasets.

ETL jobs in the wild read and write delimited files; the examples and
benchmarks use this module to move data in and out of the engines. Values
are parsed according to the relation's attribute types; empty fields are
NULL.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from itertools import chain, repeat
from typing import (
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.data.columns import (
    PARSERS,
    Column,
    checked_column,
    format_column,
    parsed_column,
    text_column,
)
from repro.data.dataset import Dataset
from repro.errors import SchemaError, SerializationError
from repro.schema.model import Relation


def read_csv(
    source: Union[str, TextIO],
    relation: Relation,
    has_header: bool = True,
) -> Dataset:
    """Read a CSV file (path or open text file) into a dataset.

    With ``has_header`` the header row selects/reorders columns; without,
    columns are taken positionally in relation order. The result is
    block-backed (``.rows`` materializes on first access) and validated
    against ``relation``; a defect is reported as ``line N, column 'c':
    ...``, the header being line 1.

    The text (UTF-8 from a path) is read once. Plain text is split
    into columns with no container built per row: no ``"`` and no NUL,
    every line ending ``\\n`` or every one ``\\r\\n``, no blank line,
    no line longer than ``csv.field_size_limit()`` and the same number
    of cells on every line. Any other text goes through ``csv.reader``,
    and so does plain text whose cells do not parse or check, so every
    error is worded by the row path.

    Known limitation: the empty string and NULL are the same cell on
    disk, so an empty STRING written by :func:`write_csv` reads back as
    NULL."""
    lines: Optional[List[str]] = None
    if isinstance(source, str):
        with open(source, "r", newline="", encoding="utf-8") as handle:
            text = handle.read()
    else:
        # csv.reader gets the lines as the handle itself splits them
        lines = source.readlines()
        text = "".join(lines)
    if not relation.is_flat():
        raise SerializationError(
            f"relation {relation.name!r} is nested; CSV supports flat relations"
        )
    width = None if has_header else len(relation.attribute_names)
    split = _split_cells(text, width)
    if split is not None:
        width, cells = split
        if has_header:
            header, start = _checked_header(cells[:width], relation), width
        else:
            header, start = list(relation.attribute_names), 0
        columns = {name: cells[start + i :: width] for i, name in enumerate(header)}
        block = _parse_columns(relation, columns, (len(cells) - start) // width)
        if block is not None:
            return Dataset.adopt_checked(relation, block)
    if lines is None:  # the lines a file opened with newline="" yields
        return _read_rows(io.StringIO(text, newline=""), relation, has_header)
    return _read_rows(lines, relation, has_header)


def _split_cells(text: str, width: Optional[int]) -> Optional[Tuple[int, List[str]]]:
    """``(cells a line, every cell in line order)`` for text the split
    reads as ``csv.reader`` would (see :func:`read_csv`), ``width``
    cells a line when given, else as many as the first line holds;
    ``None`` for any other text."""
    if '"' in text or "\0" in text:
        return None
    sep = "\n"
    if "\r" in text:
        crlf = text.count("\r\n")
        if not text.count("\r") == text.count("\n") == crlf:
            return None
        sep = "\r\n"
    lines = text.split(sep)
    if lines[-1] == "":
        lines.pop()  # the last line's terminator, or an empty text
    if not lines or "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    commas = lines[0].count(",") if width is None else width - 1
    if set(map(str.count, lines, repeat(","))) != {commas}:
        return None
    return commas + 1, ",".join(lines).split(",")


def _read_rows(lines: Iterable[str], relation: Relation, has_header: bool) -> Dataset:
    """The ``csv.reader`` path: one list a line, validated a column at
    a time when every line is as wide as the header, else (and on any
    defect) row by row by :func:`_parse_rows`."""
    rows = list(csv.reader(lines))
    if has_header:
        if not rows:
            return Dataset(relation)
        header = _checked_header(rows.pop(0), relation)
    else:
        header = list(relation.attribute_names)
    if set(map(len, rows)) <= {len(header)}:
        columns = dict(zip(header, zip(*rows))) if rows else {}
        block = _parse_columns(relation, columns, len(rows))
        if block is not None:
            return Dataset.adopt_checked(relation, block)
    return _parse_rows(relation, header, rows, first_line=2 if has_header else 1)


def _checked_header(header: List[str], relation: Relation) -> List[str]:
    unknown = set(header) - set(relation.attribute_names)
    if unknown:
        raise SerializationError(
            f"CSV header columns {sorted(unknown)} not in relation "
            f"{relation.name!r}"
        )
    repeated = sorted({n for n in header if header.count(n) > 1})
    if repeated:
        raise SerializationError(
            f"CSV header names columns {repeated} more than once"
        )
    return header


def _parse_columns(relation: Relation, cells: Mapping[str, Sequence[str]], length: int):
    """The file's cells (a column of text per header name) as a
    validated block, or ``None`` on any defect (:func:`_parse_rows`
    words it)."""
    nulls = [None] * length
    columns = {}
    for attr in relation:
        if attr.name in cells:
            col = parsed_column(attr.dtype, attr.nullable, cells[attr.name])
        else:  # a column the header leaves out
            col = checked_column(attr.dtype, attr.nullable, nulls)
        if col is None:
            return None
        columns[attr.name] = col
    from repro.exec.block import RowBlock

    return RowBlock(columns, length)


def _parse_rows(
    relation: Relation, header: List[str], rows: List[List[str]], first_line: int
) -> Dataset:
    """The row path: checks as it goes and raises for the first defect
    in line order, naming the line and the column."""
    dataset = Dataset(relation)
    for line_number, cells in enumerate(rows, start=first_line):
        if len(cells) != len(header):
            raise SerializationError(
                f"line {line_number}: expected {len(header)} cells, "
                f"got {len(cells)}"
            )
        row = {}
        for name, cell in zip(header, cells):
            dtype = relation.attribute(name).dtype
            try:
                row[name] = PARSERS.get(dtype, str)(cell) if cell else None
            except ValueError as exc:
                raise SerializationError(
                    f"line {line_number}, column {name!r}: cannot parse "
                    f"{cell!r} as {dtype!r}: {exc}"
                ) from exc
        for attr in relation:
            if not attr.nullable and row.get(attr.name) is None:
                raise SchemaError(
                    f"line {line_number}, column {attr.name!r}: NULL in "
                    f"non-nullable column {relation.name}.{attr.name}"
                )
        dataset.append(row)
    return dataset


def _write_columns(dataset: Dataset, handle: TextIO) -> None:
    names = list(dataset.relation.attribute_names)
    columns = dataset.columns()
    text = _joined_text(names, columns)
    if text is not None:
        handle.write(text)
        return
    writer = csv.writer(handle)
    writer.writerow(names)
    writer.writerows(zip(*map(format_column, columns)))


def _joined_text(names: List[str], columns: List[Column]) -> Optional[str]:
    """What ``csv.writer`` writes for ``names`` over ``columns``, built
    by ``join`` with no list a row, or ``None`` when the writer would
    quote a cell (one holds ``,``, ``"``, a line break or NUL) or the
    dataset has fewer than two columns (the writer quotes an empty
    cell that is a whole row, as ``""``)."""
    if len(names) < 2:
        return None
    texts = []
    for col in [names, *columns]:
        text = text_column(col)
        if text is None:
            return None
        texts.append(text)
    return "\r\n".join(map(",".join, chain([names], zip(*texts[1:])))) + "\r\n"


def write_csv(dataset: Dataset, target: Union[str, TextIO]) -> None:
    """Write a dataset as CSV with a header row, in UTF-8 to a path.

    The bytes are ``csv.writer``'s (default dialect, ``\\r\\n`` line
    ends, floats by ``repr``, NULL as the empty cell). When no cell
    needs quoting (no ``,``, ``"``, line break or NUL in any cell) and
    there are two columns or more they are built by ``join`` with no
    list a row; otherwise ``csv.writer`` writes them.

    A path target is written transactionally: rows stage into a
    ``.tmp`` sibling that is fsynced and atomically renamed over the
    destination, so a crash mid-write never leaves a torn or
    half-written file — readers see either the old file or the new one,
    complete — and a write that raises removes the sibling on its way
    out, leaving the destination untouched.

    Known limitation: NULL is written as the empty cell, which is also
    how an empty STRING is written; :func:`read_csv` reads both as
    NULL."""
    if not isinstance(target, str):
        _write_columns(dataset, target)
        return
    tmp = target + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            _write_columns(dataset, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def dataset_from_csv_text(text: str, relation: Relation) -> Dataset:
    """Parse CSV from an in-memory string (tests and examples)."""
    return read_csv(io.StringIO(text), relation)


def dataset_to_csv_text(dataset: Dataset) -> str:
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    return buffer.getvalue()


__all__ = [
    "read_csv",
    "write_csv",
    "dataset_from_csv_text",
    "dataset_to_csv_text",
]

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
from typing import List, TextIO, Union

from repro.data.columns import PARSERS, checked_column, format_column, parse_column
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

    Known limitation: the empty string and NULL are the same cell on
    disk, so an empty STRING written by :func:`write_csv` reads back as
    NULL."""
    if isinstance(source, str):
        with open(source, "r", newline="") as handle:
            rows = list(csv.reader(handle))
    else:
        rows = list(csv.reader(source))
    if not relation.is_flat():
        raise SerializationError(
            f"relation {relation.name!r} is nested; CSV supports flat relations"
        )
    if has_header:
        if not rows:
            return Dataset(relation)
        header = rows.pop(0)
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
    else:
        header = list(relation.attribute_names)
    block = _parse_columns(relation, header, rows)
    if block is not None:
        return Dataset.adopt_checked(relation, block)
    return _parse_rows(relation, header, rows, first_line=2 if has_header else 1)


def _parse_columns(relation: Relation, header: List[str], rows: List[List[str]]):
    """The file's cells as a validated block, parsed a column at a
    time, or ``None`` on any defect (:func:`_parse_rows` words it)."""
    if not set(map(len, rows)) <= {len(header)}:
        return None
    cells = dict(zip(header, zip(*rows))) if rows else {}
    nulls = [None] * len(rows)
    columns = {}
    for attr in relation:
        col = nulls  # a column the header leaves out
        if attr.name in cells:
            col = parse_column(attr.dtype, cells[attr.name])
        if col is not None:
            col = checked_column(attr.dtype, attr.nullable, col)
        if col is None:
            return None
        columns[attr.name] = col
    from repro.exec.block import RowBlock

    return RowBlock(columns, len(rows))


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
    writer = csv.writer(handle)
    writer.writerow(dataset.relation.attribute_names)
    writer.writerows(zip(*map(format_column, dataset.columns())))


def write_csv(dataset: Dataset, target: Union[str, TextIO]) -> None:
    """Write a dataset as CSV with a header row.

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
        with open(tmp, "w", newline="") as handle:
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

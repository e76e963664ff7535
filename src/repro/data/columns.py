"""The column-wise form of the per-cell boundary functions.

Every tier behind a data boundary is columnar; this leaf module lets
the boundaries themselves (source validation, CSV read/write, sqlite
load/fetch) judge, parse and format a whole column in one pass instead
of dispatching on dtype per cell. A column is a list of Python values,
``None`` = NULL. No function here reports a defect: it returns ``None``
and its caller re-runs the row-wise code (``Dataset.append``,
``csvio._parse_rows``), which raises for the first defect in row order.
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.schema.types import (
    BOOLEAN,
    DATE,
    DECIMAL,
    FLOAT,
    INTEGER,
    TIMESTAMP,
    VALUE_CLASSES,
    DataType,
)

#: a column: one Python value a row, ``None`` = NULL
Column = List[Any]

_NONE = type(None)

#: class sets a sweep is held against: a column of numbers (``bool`` is
#: not one), a column of strings
NUMBERS = frozenset((int, float))
TEXT = frozenset((str,))


def column_classes(col: Iterable[object]) -> Set[type]:
    """The classes of ``col``'s non-NULL cells — exact classes, so a
    subclass is never taken for its base. One pass in C; what it proves
    of a whole column is what a per-cell ``isinstance`` chain would
    otherwise test cell by cell (here, and inside the block tier)."""
    classes: Set[type] = set(map(type, col))
    classes.discard(_NONE)
    return classes


def checked_column(
    dtype: DataType, nullable: bool, col: Column
) -> Optional[Column]:
    """``col`` as ``Dataset.append`` would normalize each of its cells:
    the same list when every value is legal as it stands, a rebuilt one
    when a FLOAT/DECIMAL column holds an ``int``, ``None`` on any defect
    (and for a nested dtype, which only the row path judges). The test
    is ``accepts_value``'s, over the set of types in the column."""
    legal = VALUE_CLASSES.get(dtype)
    if legal is None:
        return None
    if not nullable and None in col:
        return None
    types = column_classes(col)
    accepted, refused = legal
    if not all(issubclass(t, accepted) and not issubclass(t, refused) for t in types):
        return None
    if dtype in (FLOAT, DECIMAL) and any(issubclass(t, int) for t in types):
        return [float(v) if isinstance(v, int) else v for v in col]
    return col


_BOOLEANS = dict.fromkeys(("true", "t", "1", "yes"), True)
_BOOLEANS.update(dict.fromkeys(("false", "f", "0", "no"), False))


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"bad boolean {text!r}") from None


#: how a non-empty CSV cell of each dtype is read (absent: as the text);
#: every entry fails with ``ValueError``
PARSERS: Dict[DataType, Callable[[str], object]] = {
    INTEGER: int,
    FLOAT: float,
    DECIMAL: float,
    BOOLEAN: _boolean,
    DATE: datetime.date.fromisoformat,
    TIMESTAMP: datetime.datetime.fromisoformat,
}


def parse_column(dtype: DataType, cells: Sequence[str]) -> Optional[Column]:
    """A column of CSV cells as typed values (the empty cell is NULL),
    or ``None`` when a cell does not parse."""
    parse = PARSERS.get(dtype)
    if parse is None:
        return [text or None for text in cells]
    try:
        if "" in cells:
            return [parse(text) if text else None for text in cells]
        return list(map(parse, cells))
    except ValueError:
        return None


def format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


#: what ``csv.writer`` itself writes as :func:`format_cell` would:
#: ``str`` as is, ``int``/``float`` through ``str()``, ``None`` as "".
_PLAIN = NUMBERS | TEXT


def format_column(col: Column) -> Column:
    """A column ready for ``csv.writer``: untouched when the writer's
    own rendering is :func:`format_cell`'s, one comprehension for a
    BOOLEAN or DATE/TIMESTAMP column, per cell for mixed or subclassed
    types."""
    types = column_classes(col)
    if types <= _PLAIN:
        return col
    if types == {bool}:
        return ["" if v is None else "true" if v else "false" for v in col]
    if types <= {datetime.date, datetime.datetime}:
        return ["" if v is None else v.isoformat() for v in col]
    return [format_cell(v) for v in col]


def to_sql_column(col: Column) -> Column:
    """A column as sqlite stores it: BOOLEAN as 0/1, DATE and TIMESTAMP
    as ISO text; a column holding none of these is returned as is."""
    if not any(issubclass(t, (bool, datetime.date)) for t in column_classes(col)):
        return col
    return [
        int(v) if isinstance(v, bool)
        else v.isoformat(sep=" ") if isinstance(v, datetime.datetime)
        else v.isoformat() if isinstance(v, datetime.date)
        else v
        for v in col
    ]


def from_sql_column(dtype: DataType, col: Sequence[Any]) -> Column:
    """A fetched sqlite column back in the relation's Python types."""
    if dtype is BOOLEAN:
        return [None if v is None else bool(v) for v in col]
    if dtype in (DATE, TIMESTAMP):
        parse = PARSERS[dtype]
        return [None if v is None else parse(str(v)) for v in col]
    return list(col)


__all__ = [
    "NUMBERS",
    "PARSERS",
    "TEXT",
    "column_classes",
    "checked_column",
    "parse_column",
    "format_cell",
    "format_column",
    "to_sql_column",
    "from_sql_column",
]

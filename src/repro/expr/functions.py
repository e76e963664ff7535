"""Extensible function registry for the expression language.

"The set of functions available in such expressions is extensible in order
to capture any functional capabilities not directly supported by built-in
SQL functions" (paper, section IV). New functions are added with
:func:`register` (or the :func:`scalar_function` decorator) and are then
usable by the parser, type checker, evaluator, and SQL generator.

All built-ins are NULL-propagating unless documented otherwise
(e.g. COALESCE, IFNULL).
"""

from __future__ import annotations

import datetime
import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import (
    INFRASTRUCTURE_ERRORS,
    EvaluationError,
    ExpressionError,
)
from repro.schema.types import (
    BOOLEAN,
    DATE,
    DataType,
    FLOAT,
    INTEGER,
    NULL,
    STRING,
    TIMESTAMP,
    AtomicType,
    common_type,
)


class ScalarFunction:
    """A registered scalar function.

    :ivar name: upper-case function name as written in expressions.
    :ivar impl: Python callable over already-evaluated argument values.
    :ivar return_type: a fixed :class:`DataType`, or a callable mapping the
        argument types to the return type (for polymorphic functions).
    :ivar arity: exact argument count, a ``(min, max)`` tuple, or ``None``
        for variadic.
    :ivar null_propagating: when True (default) the evaluator returns NULL
        if any argument is NULL without calling ``impl``.
    :ivar sql_name: spelling to use when generating SQL (defaults to name).
    :ivar column: internal, for built-ins only: ``column(cells, *literals)``
        computes the function over a column of first arguments with every
        later argument a non-NULL literal, binding the literals once a
        call — the block compiler's form; it returns ``None`` when the
        cells need ``impl`` cell by cell.
    """

    def __init__(
        self,
        name: str,
        impl: Callable,
        return_type,
        arity=None,
        null_propagating: bool = True,
        sql_name: Optional[str] = None,
        column: Optional[Callable] = None,
    ):
        self.name = name.upper()
        self.impl = impl
        self.return_type = return_type
        self.arity = arity
        self.null_propagating = null_propagating
        self.sql_name = (sql_name or name).upper()
        self.column = column

    def check_arity(self, n_args: int) -> None:
        if self.arity is None:
            return
        if isinstance(self.arity, int):
            low = high = self.arity
        else:
            low, high = self.arity
        if not (low <= n_args <= (high if high is not None else n_args)):
            raise ExpressionError(
                f"{self.name} expects "
                f"{low if low == high else f'{low}..{high or chr(8734)}'} "
                f"arguments, got {n_args}"
            )

    def infer_return_type(self, arg_types: Sequence[DataType]) -> DataType:
        if callable(self.return_type):
            return self.return_type(list(arg_types))
        return self.return_type

    def __call__(self, *args):
        try:
            return self.impl(*args)
        except EvaluationError:
            raise
        except INFRASTRUCTURE_ERRORS:
            # transients and injected faults drive the retry and fallback
            # machinery by identity — never wrap them
            raise
        except Exception as exc:  # whatever impl raises, surfaced with function context
            raise EvaluationError(f"{self.name}{args!r} failed: {exc}") from exc


class FunctionRegistry:
    """Name → :class:`ScalarFunction` registry; a module-level default
    instance (:data:`DEFAULT_REGISTRY`) holds the built-ins."""

    def __init__(self, parent: Optional["FunctionRegistry"] = None):
        self._functions: Dict[str, ScalarFunction] = {}
        self._parent = parent

    def register(self, function: ScalarFunction, replace: bool = False) -> ScalarFunction:
        if not replace and function.name in self._functions:
            raise ExpressionError(f"function {function.name} already registered")
        self._functions[function.name] = function
        return function

    def lookup(self, name: str) -> ScalarFunction:
        name = name.upper()
        found = self._functions.get(name)
        if found is not None:
            return found
        if self._parent is not None:
            return self._parent.lookup(name)
        raise ExpressionError(f"unknown function {name!r}")

    def knows(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except ExpressionError:
            return False

    def names(self) -> List[str]:
        collected = set(self._functions)
        if self._parent is not None:
            collected |= set(self._parent.names())
        return sorted(collected)

    def child(self) -> "FunctionRegistry":
        """A registry layered on top of this one — used to scope
        user-defined functions to a job without mutating the built-ins."""
        return FunctionRegistry(parent=self)


DEFAULT_REGISTRY = FunctionRegistry()


def register(
    name: str,
    impl: Callable,
    return_type,
    arity=None,
    null_propagating: bool = True,
    sql_name: Optional[str] = None,
    registry: Optional[FunctionRegistry] = None,
    column: Optional[Callable] = None,
) -> ScalarFunction:
    """Register a scalar function (in :data:`DEFAULT_REGISTRY` by default)."""
    function = ScalarFunction(
        name, impl, return_type, arity, null_propagating, sql_name, column
    )
    (registry or DEFAULT_REGISTRY).register(function)
    return function


def scalar_function(name: str, return_type, arity=None, **kwargs):
    """Decorator form of :func:`register`."""

    def decorate(impl: Callable) -> Callable:
        register(name, impl, return_type, arity, **kwargs)
        return impl

    return decorate


def _numeric_common(arg_types: Sequence[DataType]) -> DataType:
    result: DataType = INTEGER
    for t in arg_types:
        if t is not NULL:
            result = common_type(result, t)
    return result


def _first_arg_type(arg_types: Sequence[DataType]) -> DataType:
    return arg_types[0] if arg_types else NULL


def _common_of_all(arg_types: Sequence[DataType]) -> DataType:
    result: DataType = NULL
    for t in arg_types:
        result = common_type(result, t)
    return result


# --- string functions -------------------------------------------------------

register("UPPER", lambda s: s.upper(), STRING, 1)
register("LOWER", lambda s: s.lower(), STRING, 1)
register("TRIM", lambda s: s.strip(), STRING, 1)
register("LTRIM", lambda s: s.lstrip(), STRING, 1)
register("RTRIM", lambda s: s.rstrip(), STRING, 1)
register("LENGTH", lambda s: len(s), INTEGER, 1)
register(
    "SUBSTR",
    # SQL 1-based start; length optional
    lambda s, start, length=None: (
        s[start - 1:] if length is None else s[start - 1 : start - 1 + length]
    ),
    STRING,
    (2, 3),
)
register(
    "CONCAT",
    lambda *parts: "".join(str(p) for p in parts),
    STRING,
    (1, None),
)
register(
    "REPLACE", lambda s, old, new: s.replace(old, new), STRING, 3
)
register(
    "INSTR",
    lambda s, needle: s.find(needle) + 1,
    INTEGER,
    2,
)
register("LPAD", lambda s, n, pad=" ": s.rjust(n, pad[:1] or " "), STRING, (2, 3))
register("RPAD", lambda s, n, pad=" ": s.ljust(n, pad[:1] or " "), STRING, (2, 3))

# --- numeric functions ------------------------------------------------------

register("ABS", abs, _numeric_common, 1)
register(
    "ROUND",
    lambda x, digits=0: float(round(x, digits)) if digits else float(round(x)),
    FLOAT,
    (1, 2),
)
register("FLOOR", lambda x: int(math.floor(x)), INTEGER, 1)
register("CEIL", lambda x: int(math.ceil(x)), INTEGER, 1, sql_name="CEIL")
register("SQRT", math.sqrt, FLOAT, 1)
register("POWER", lambda x, y: float(x) ** y, FLOAT, 2)
register("MOD", lambda x, y: x % y, _numeric_common, 2)

# --- conversion functions ---------------------------------------------------

register("TO_STRING", lambda v: str(v), STRING, 1, sql_name="CAST_TO_STRING")
register("TO_INTEGER", lambda v: int(v), INTEGER, 1)
register("TO_FLOAT", lambda v: float(v), FLOAT, 1)


def _parse_date_value(v):
    if isinstance(v, datetime.date):
        return v
    return datetime.date.fromisoformat(str(v))


register("TO_DATE", _parse_date_value, DATE, 1)

# --- NULL handling (not null-propagating) ------------------------------------

register(
    "COALESCE",
    lambda *args: next((a for a in args if a is not None), None),
    _common_of_all,
    (1, None),
    null_propagating=False,
)
register(
    "IFNULL",
    lambda value, default: default if value is None else value,
    _common_of_all,
    2,
    null_propagating=False,
)
register(
    "NULLIF",
    lambda a, b: None if a == b else a,
    _first_arg_type,
    2,
    null_propagating=False,
)

# --- date/time functions ------------------------------------------------------

register("YEAR", lambda d: d.year, INTEGER, 1)
register("MONTH", lambda d: d.month, INTEGER, 1)
register("DAY", lambda d: d.day, INTEGER, 1)
register(
    "DATE_DIFF_DAYS",
    lambda a, b: (a - b).days,
    INTEGER,
    2,
)
register(
    "YEARS_BETWEEN",
    lambda a, b: int((a - b).days // 365.2425),
    INTEGER,
    2,
)

_DATE_CELLS = frozenset((datetime.date, type(None)))


def _add_days_column(cells, days):
    """ADD_DAYS over a column of exact dates (and NULLs) and a literal
    day count: one ``timedelta`` a call, built only once a non-NULL cell
    needs it, so it raises what ``impl`` raises on that cell."""
    classes = set(map(type, cells))
    if not classes <= _DATE_CELLS:
        return None
    if datetime.date not in classes:
        return [None] * len(cells)
    shift = datetime.timedelta(days=days)
    return [None if d is None else d + shift for d in cells]


register(
    "ADD_DAYS",
    lambda d, n: d + datetime.timedelta(days=n),
    DATE,
    2,
    column=_add_days_column,
)


__all__ = [
    "ScalarFunction",
    "FunctionRegistry",
    "DEFAULT_REGISTRY",
    "register",
    "scalar_function",
]

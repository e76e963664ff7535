"""Typed AST for the OHM expression language.

OHM "borrows from SQL ..., using a subset of the respective SQL syntax
clauses to represent expressions of any kind" (paper, section IV). The AST
covers scalar expressions (arithmetic, string concatenation, CASE,
function calls) and boolean expressions (comparisons, AND/OR/NOT, IS NULL,
IN, BETWEEN, LIKE), plus aggregate calls used by the GROUP operator.

Nodes are immutable. Structural equality and hashing are defined so that
expressions can be deduplicated, used as dict keys, and compared in tests.
Every node supports:

* ``children()`` / ``replace_children(new)`` — generic traversal,
* ``to_sql()`` — render back to SQL-ish concrete syntax (re-parsable by
  :mod:`repro.expr.parser`).
"""

from __future__ import annotations

import datetime
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError


class Expr:
    """Abstract base of all expression nodes.

    A node is immutable, so its structural key, hash and column
    references are computed once, on first use, into the slots below."""

    __slots__ = ("_key", "_hash", "_refs")

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions, in a fixed order."""
        raise NotImplementedError

    def replace_children(self, new_children: Sequence["Expr"]) -> "Expr":
        """A copy of this node with ``new_children`` substituted, in the
        order returned by :meth:`children`."""
        raise NotImplementedError

    def key(self) -> tuple:
        """A hashable structural key; two nodes are equal iff keys match."""
        try:
            return self._key
        except AttributeError:
            key = self._make_key()
            object.__setattr__(self, "_key", key)
            return key

    def _make_key(self) -> tuple:
        raise NotImplementedError

    def to_sql(self) -> str:
        raise NotImplementedError

    # -- generic machinery -------------------------------------------------

    def walk(self) -> Iterable["Expr"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def column_refs(self) -> List["ColumnRef"]:
        """All column references in the expression, in reading order."""
        return list(self._column_refs())

    def _column_refs(self) -> Tuple["ColumnRef", ...]:
        try:
            return self._refs
        except AttributeError:
            refs = tuple(
                ref for child in self.children() for ref in child._column_refs()
            )
            object.__setattr__(self, "_refs", refs)
            return refs

    def column_names(self) -> List[str]:
        """Unqualified names of all referenced columns, deduplicated,
        in first-occurrence order."""
        seen = []
        for ref in self.column_refs():
            if ref.name not in seen:
                seen.append(ref.name)
        return seen

    def contains_aggregate(self) -> bool:
        return any(isinstance(node, AggregateCall) for node in self.walk())

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Expr) and self.key() == other.key()
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self.key())
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_sql()}>"


def _sql_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, datetime.datetime):
        return f"TIMESTAMP '{value.isoformat(sep=' ')}'"
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        # keep floats round-trippable but tidy
        return repr(value)
    return repr(value)


class Literal(Expr):
    """A constant: number, string, boolean, date, timestamp, or NULL."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        if value is not None and not isinstance(
            value, (int, float, str, bool, datetime.date, datetime.datetime)
        ):
            raise ExpressionError(f"unsupported literal value {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_args):  # immutability
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        if new_children:
            raise ExpressionError("Literal has no children")
        return self

    def _make_key(self) -> tuple:
        return ("lit", type(self.value).__name__, self.value)

    def to_sql(self) -> str:
        return _sql_literal(self.value)


#: The boolean constants, frequently used by rewrites.
TRUE = Literal(True)
FALSE = Literal(False)
NULL_LITERAL = Literal(None)


import re as _re

_PLAIN_IDENTIFIER = _re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _identifier(name: str) -> str:
    """Render an identifier, quoting it when it is not plainly lexable
    (dotted join-collision columns, generated edge names)."""
    if _PLAIN_IDENTIFIER.match(name):
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


class ColumnRef(Expr):
    """A reference to a column, optionally qualified by a relation or
    dataflow-link name (``Customers.customerID`` or ``totalBalance``)."""

    __slots__ = ("qualifier", "name")

    def __init__(self, name: str, qualifier: Optional[str] = None):
        if not name:
            raise ExpressionError("column name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qualifier", qualifier)

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        if new_children:
            raise ExpressionError("ColumnRef has no children")
        return self

    def _make_key(self) -> tuple:
        return ("col", self.qualifier, self.name)

    def _column_refs(self) -> Tuple["ColumnRef", ...]:
        return (self,)

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{_identifier(self.qualifier)}.{_identifier(self.name)}"
        return _identifier(self.name)

    def unqualified(self) -> "ColumnRef":
        return ColumnRef(self.name)

    def with_qualifier(self, qualifier: Optional[str]) -> "ColumnRef":
        return ColumnRef(self.name, qualifier)


#: Binary operators with their SQL spellings, grouped by family.
ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}
COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
LOGICAL_OPS = {"AND", "OR"}
CONCAT_OP = "||"
ALL_BINARY_OPS = ARITHMETIC_OPS | COMPARISON_OPS | LOGICAL_OPS | {CONCAT_OP}


class BinaryOp(Expr):
    """A binary operation: arithmetic, comparison, AND/OR, or ``||``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        op = op.upper()
        if op == "!=":
            op = "<>"
        if op not in ALL_BINARY_OPS:
            raise ExpressionError(f"unknown binary operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        left, right = new_children
        return BinaryOp(self.op, left, right)

    def _make_key(self) -> tuple:
        return ("bin", self.op, self.left.key(), self.right.key())

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


class UnaryOp(Expr):
    """Unary minus or NOT."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        op = op.upper()
        if op not in ("-", "NOT"):
            raise ExpressionError(f"unknown unary operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        (operand,) = new_children
        return UnaryOp(self.op, operand)

    def _make_key(self) -> tuple:
        return ("un", self.op, self.operand.key())

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"(-{self.operand.to_sql()})"


class FunctionCall(Expr):
    """A scalar function call; the function set is extensible through
    :mod:`repro.expr.functions`."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        object.__setattr__(self, "name", name.upper())
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        return FunctionCall(self.name, list(new_children))

    def _make_key(self) -> tuple:
        return ("fn", self.name, tuple(a.key() for a in self.args))

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        return f"{self.name}({inner})"


#: Aggregate function names accepted by :class:`AggregateCall`. FIRST and
#: LAST are order-sensitive extensions used when duplicate-removal stages
#: compile to GROUP (SQL has no counterpart; the SQL generator refuses them).
AGGREGATE_FUNCTIONS = ("SUM", "COUNT", "AVG", "MIN", "MAX", "FIRST", "LAST")


class AggregateCall(Expr):
    """An aggregate call — only legal inside GROUP operator derivations
    and in mapping ``with`` clauses. ``COUNT(*)`` is ``AggregateCall('COUNT',
    None)``."""

    __slots__ = ("func", "arg", "distinct")

    def __init__(self, func: str, arg: Optional[Expr], distinct: bool = False):
        func = func.upper()
        if func not in AGGREGATE_FUNCTIONS:
            raise ExpressionError(f"unknown aggregate function {func!r}")
        if arg is None and func != "COUNT":
            raise ExpressionError(f"{func}(*) is not legal; only COUNT(*)")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "distinct", bool(distinct))

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return () if self.arg is None else (self.arg,)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        if self.arg is None:
            if new_children:
                raise ExpressionError("COUNT(*) has no children")
            return self
        (arg,) = new_children
        return AggregateCall(self.func, arg, self.distinct)

    def _make_key(self) -> tuple:
        return (
            "agg",
            self.func,
            None if self.arg is None else self.arg.key(),
            self.distinct,
        )

    def to_sql(self) -> str:
        if self.arg is None:
            return "COUNT(*)"
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{self.arg.to_sql()})"


class Case(Expr):
    """A searched CASE expression:
    ``CASE WHEN c1 THEN v1 ... [ELSE d] END``."""

    __slots__ = ("whens", "default")

    def __init__(
        self,
        whens: Sequence[Tuple[Expr, Expr]],
        default: Optional[Expr] = None,
    ):
        whens = tuple((c, v) for c, v in whens)
        if not whens:
            raise ExpressionError("CASE requires at least one WHEN branch")
        object.__setattr__(self, "whens", whens)
        object.__setattr__(self, "default", default)

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        flat: List[Expr] = []
        for cond, value in self.whens:
            flat.append(cond)
            flat.append(value)
        if self.default is not None:
            flat.append(self.default)
        return tuple(flat)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        new_children = list(new_children)
        n_when = len(self.whens)
        expected = 2 * n_when + (1 if self.default is not None else 0)
        if len(new_children) != expected:
            raise ExpressionError("wrong child count for CASE")
        whens = [
            (new_children[2 * i], new_children[2 * i + 1]) for i in range(n_when)
        ]
        default = new_children[-1] if self.default is not None else None
        return Case(whens, default)

    def _make_key(self) -> tuple:
        return (
            "case",
            tuple((c.key(), v.key()) for c, v in self.whens),
            None if self.default is None else self.default.key(),
        )

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)


class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "negated", bool(negated))

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        (operand,) = new_children
        return IsNull(operand, self.negated)

    def _make_key(self) -> tuple:
        return ("isnull", self.operand.key(), self.negated)

    def to_sql(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {middle})"


class InList(Expr):
    """``expr [NOT] IN (item, ...)`` over a literal/expression list."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        if not items:
            raise ExpressionError("IN list must be non-empty")
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "negated", bool(negated))

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,) + self.items

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        operand, *items = new_children
        return InList(operand, items, self.negated)

    def _make_key(self) -> tuple:
        return (
            "in",
            self.operand.key(),
            tuple(i.key() for i in self.items),
            self.negated,
        )

    def to_sql(self) -> str:
        inner = ", ".join(i.to_sql() for i in self.items)
        middle = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {middle} ({inner}))"


class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "negated", bool(negated))

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.low, self.high)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        operand, low, high = new_children
        return Between(operand, low, high, self.negated)

    def _make_key(self) -> tuple:
        return (
            "between",
            self.operand.key(),
            self.low.key(),
            self.high.key(),
            self.negated,
        )

    def to_sql(self) -> str:
        middle = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {middle} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


class Like(Expr):
    """``expr [NOT] LIKE pattern`` with SQL ``%``/``_`` wildcards."""

    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "negated", bool(negated))

    def __setattr__(self, *_args):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.pattern)

    def replace_children(self, new_children: Sequence[Expr]) -> Expr:
        operand, pattern = new_children
        return Like(operand, pattern, self.negated)

    def _make_key(self) -> tuple:
        return ("like", self.operand.key(), self.pattern.key(), self.negated)

    def to_sql(self) -> str:
        middle = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {middle} {self.pattern.to_sql()})"


__all__ = [
    "Expr",
    "Literal",
    "TRUE",
    "FALSE",
    "NULL_LITERAL",
    "ColumnRef",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "AggregateCall",
    "AGGREGATE_FUNCTIONS",
    "Case",
    "IsNull",
    "InList",
    "Between",
    "Like",
    "ARITHMETIC_OPS",
    "COMPARISON_OPS",
    "LOGICAL_OPS",
    "CONCAT_OP",
]

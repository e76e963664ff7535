"""Data types for the nested-relational schema model.

Orchid uses "a special nested-relational schema representation ... rich
enough to capture both relational and XML schemas" (paper, section IV).
We model that with a small type algebra:

* :class:`AtomicType` — SQL-ish scalar types (INTEGER, FLOAT, DECIMAL,
  STRING, BOOLEAN, DATE, TIMESTAMP) plus the bottom types ``ANY`` and
  ``NULL`` used during inference.
* :class:`RecordType` — an ordered list of named, typed fields.
* :class:`SetType` — a set (bag) of elements of some type; a relation is a
  ``SetType(RecordType(...))``.

Types are immutable and hashable so they can key caches and be compared
structurally.
"""

from __future__ import annotations

import datetime
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.errors import SchemaError


class DataType:
    """Abstract base of all types in the schema model."""

    #: True for scalar types, False for record/set types.
    is_atomic = False

    def accepts(self, other: "DataType") -> bool:
        """Return True if a value of type ``other`` can flow where ``self``
        is expected (covariant, with numeric widening)."""
        raise NotImplementedError

    def accepts_value(self, value: object) -> bool:
        """Return True if the Python ``value`` is a legal instance."""
        raise NotImplementedError


class AtomicType(DataType):
    """A scalar type identified by name, with optional numeric widening.

    Instances are interned: ``AtomicType('INTEGER') is INTEGER``.
    """

    is_atomic = True

    _registry: dict = {}

    #: names of types considered numeric, in widening order
    _NUMERIC_ORDER = ("INTEGER", "DECIMAL", "FLOAT")

    def __new__(cls, name: str):
        name = name.upper()
        existing = cls._registry.get(name)
        if existing is not None:
            return existing
        instance = super().__new__(cls)
        instance._name = name
        cls._registry[name] = instance
        return instance

    @property
    def name(self) -> str:
        return self._name

    @property
    def is_numeric(self) -> bool:
        return self._name in self._NUMERIC_ORDER

    def accepts(self, other: DataType) -> bool:
        if not isinstance(other, AtomicType):
            return False
        if other is NULL or self is ANY:
            return True
        if self is other:
            return True
        if self.is_numeric and other.is_numeric:
            order = self._NUMERIC_ORDER
            return order.index(self._name) >= order.index(other._name)
        # timestamps accept dates
        if self is TIMESTAMP and other is DATE:
            return True
        return False

    def accepts_value(self, value: object) -> bool:
        if value is None:
            return True
        accepted, refused = VALUE_CLASSES.get(self, ((), ()))
        return isinstance(value, accepted) and not isinstance(value, refused)

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        return (AtomicType, (self._name,))


#: Interned atomic type singletons.
INTEGER = AtomicType("INTEGER")
FLOAT = AtomicType("FLOAT")
DECIMAL = AtomicType("DECIMAL")
STRING = AtomicType("STRING")
BOOLEAN = AtomicType("BOOLEAN")
DATE = AtomicType("DATE")
TIMESTAMP = AtomicType("TIMESTAMP")
#: Top type: anything flows into it. Used for UNKNOWN operator edges.
ANY = AtomicType("ANY")
#: Bottom type of the literal NULL before inference resolves it.
NULL = AtomicType("NULL")

#: dtype → (classes a legal value is an instance of, classes it must not
#: be): :meth:`AtomicType.accepts_value` per value, and per column in
#: ``repro.data.columns``. NULL, absent, accepts only ``None``.
VALUE_CLASSES: Dict[DataType, Tuple[Tuple[type, ...], Tuple[type, ...]]] = {
    ANY: ((object,), ()),
    INTEGER: ((int,), (bool,)),
    FLOAT: ((int, float), (bool,)),
    DECIMAL: ((int, float), (bool,)),
    STRING: ((str,), ()),
    BOOLEAN: ((bool,), ()),
    DATE: ((datetime.date,), (datetime.datetime,)),
    TIMESTAMP: ((datetime.datetime,), ()),
}


class RecordType(DataType):
    """An ordered collection of named, typed fields.

    Field order matters for display and for positional operations (UNION
    compatibility), but lookup by name is the common access path.
    """

    def __init__(self, fields: Iterable[Tuple[str, DataType]]):
        fields = tuple((str(name), dtype) for name, dtype in fields)
        seen = set()
        for name, dtype in fields:
            if name in seen:
                raise SchemaError(f"duplicate field name {name!r} in record type")
            if not isinstance(dtype, DataType):
                raise SchemaError(f"field {name!r} has non-DataType type {dtype!r}")
            seen.add(name)
        self._fields = fields
        self._index = {name: i for i, (name, _) in enumerate(fields)}

    @property
    def fields(self) -> Tuple[Tuple[str, DataType], ...]:
        return self._fields

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._fields)

    def field_type(self, name: str) -> DataType:
        try:
            return self._fields[self._index[name]][1]
        except KeyError:
            raise SchemaError(
                f"no field {name!r} in record type {self!r}"
            ) from None

    def has_field(self, name: str) -> bool:
        return name in self._index

    def accepts(self, other: DataType) -> bool:
        if not isinstance(other, RecordType):
            return False
        if len(self._fields) != len(other._fields):
            return False
        return all(
            a_name == b_name and a_type.accepts(b_type)
            for (a_name, a_type), (b_name, b_type) in zip(
                self._fields, other._fields
            )
        )

    def accepts_value(self, value: object) -> bool:
        if value is None:
            return True
        if not isinstance(value, dict):
            return False
        if set(value.keys()) != set(self._index.keys()):
            return False
        return all(
            dtype.accepts_value(value[name]) for name, dtype in self._fields
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RecordType) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {dtype!r}" for name, dtype in self._fields)
        return f"Record({inner})"


class SetType(DataType):
    """A bag of elements of a fixed element type.

    A flat relation is ``SetType(RecordType(...))``; a nested (NF²)
    attribute is a set-typed field inside a record.
    """

    def __init__(self, element_type: DataType):
        if not isinstance(element_type, DataType):
            raise SchemaError(f"set element type must be a DataType, got {element_type!r}")
        self._element_type = element_type

    @property
    def element_type(self) -> DataType:
        return self._element_type

    def accepts(self, other: DataType) -> bool:
        return isinstance(other, SetType) and self._element_type.accepts(
            other._element_type
        )

    def accepts_value(self, value: object) -> bool:
        if value is None:
            return True
        if not isinstance(value, (list, tuple)):
            return False
        return all(self._element_type.accepts_value(v) for v in value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetType) and self._element_type == other._element_type

    def __hash__(self) -> int:
        return hash(("set", self._element_type))

    def __repr__(self) -> str:
        return f"Set({self._element_type!r})"


_TYPE_ALIASES = {
    "INT": "INTEGER",
    "BIGINT": "INTEGER",
    "SMALLINT": "INTEGER",
    "DOUBLE": "FLOAT",
    "REAL": "FLOAT",
    "NUMERIC": "DECIMAL",
    "VARCHAR": "STRING",
    "CHAR": "STRING",
    "TEXT": "STRING",
    "BOOL": "BOOLEAN",
    "DATETIME": "TIMESTAMP",
}


def atomic(name: str) -> AtomicType:
    """Resolve an atomic type by (possibly aliased) SQL-ish name.

    >>> atomic('varchar') is STRING
    True
    """
    canonical = _TYPE_ALIASES.get(name.upper(), name.upper())
    if canonical not in AtomicType._registry:
        raise SchemaError(f"unknown atomic type {name!r}")
    return AtomicType(canonical)


def common_type(a: DataType, b: DataType) -> DataType:
    """Least common supertype of two types, for inference over branches
    (CASE arms, UNION columns). Raises :class:`SchemaError` when the types
    are unrelated."""
    if a is NULL or a is ANY and isinstance(b, AtomicType):
        return b
    if b is NULL or b is ANY and isinstance(a, AtomicType):
        return a
    if a.accepts(b):
        return a
    if b.accepts(a):
        return b
    raise SchemaError(f"no common type between {a!r} and {b!r}")


NumericLike = Union[int, float]


def python_value_type(value: object) -> DataType:
    """Infer the atomic type of a Python literal value."""
    if value is None:
        return NULL
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if isinstance(value, datetime.datetime):
        return TIMESTAMP
    if isinstance(value, datetime.date):
        return DATE
    raise SchemaError(f"cannot type Python value {value!r}")


def coerce_value(dtype: DataType, value: object) -> object:
    """Coerce ``value`` to ``dtype`` where a lossless coercion exists
    (int→float etc.), else raise :class:`SchemaError`."""
    if value is None:
        return None
    if isinstance(dtype, AtomicType):
        if dtype in (FLOAT, DECIMAL) and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if dtype.accepts_value(value):
            return value
        raise SchemaError(f"value {value!r} is not a {dtype!r}")
    if dtype.accepts_value(value):
        return value
    raise SchemaError(f"value {value!r} is not a {dtype!r}")


__all__ = [
    "DataType",
    "AtomicType",
    "RecordType",
    "SetType",
    "INTEGER",
    "FLOAT",
    "DECIMAL",
    "STRING",
    "BOOLEAN",
    "DATE",
    "TIMESTAMP",
    "ANY",
    "NULL",
    "atomic",
    "common_type",
    "python_value_type",
    "coerce_value",
]

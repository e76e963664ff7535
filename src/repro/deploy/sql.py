"""SQL runtime platform: SQL generation and a DBMS runner.

Paper section VI-B: "An interesting case occurs when one of the RP is the
DBMS managing the source data. Orchid can use the deployment algorithm to
do a pushdown analysis, allowing the left-most part of the operator graph
to be deployed as an SQL query that retrieves the filtered and joined
data. ... In effect, the SQL statement is slowly built as the OHM graph
is visited from left-to-right."

Our SQL statements are built from the same composition machinery the
mapping extraction uses: a composed (partial) mapping *is* a single-block
SELECT — sources = FROM, where = WHERE, group-by = GROUP BY, derivations
= the select list; several mappings sharing a target become UNION ALL
branches. The paper's DB2 is substituted by Python's bundled sqlite3
(see DESIGN.md), which executes the generated statements so pushdown
plans can be verified end-to-end.
"""

from __future__ import annotations

import datetime
import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.columns import from_sql_column, to_sql_column
from repro.data.dataset import Dataset, Instance
from repro.errors import DeploymentError, ExecutionError
from repro.exec.block import RowBlock
from repro.expr.ast import (
    AggregateCall,
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.mapping.model import Mapping, MappingSet
from repro.schema.model import Relation
from repro.schema.types import BOOLEAN


class SqliteDialect:
    """Renders expressions to SQLite SQL and declares which functions and
    aggregates the DBMS supports (the pushdown analysis consults this:
    "if the operator is supported by the DBMS")."""

    #: scalar functions renderable natively (by the same name)
    NATIVE_FUNCTIONS = {
        "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM", "LENGTH", "SUBSTR",
        "REPLACE", "INSTR", "ABS", "ROUND", "COALESCE", "IFNULL", "NULLIF",
    }
    #: functions with special renderings
    SPECIAL_FUNCTIONS = {
        "CONCAT", "ADD_DAYS", "YEARS_BETWEEN", "TO_STRING", "TO_INTEGER",
        "TO_FLOAT", "MOD",
    }
    SUPPORTED_AGGREGATES = {"SUM", "COUNT", "AVG", "MIN", "MAX"}

    def supports_function(self, name: str) -> bool:
        name = name.upper()
        return name in self.NATIVE_FUNCTIONS or name in self.SPECIAL_FUNCTIONS

    def supports_expression(self, expr: Expr) -> bool:
        """True when every node of the expression is renderable."""
        for node in expr.walk():
            if isinstance(node, FunctionCall) and not self.supports_function(
                node.name
            ):
                return False
            if isinstance(node, AggregateCall):
                if node.func not in self.SUPPORTED_AGGREGATES:
                    return False
        return True

    # -- rendering ----------------------------------------------------------------

    def quote_identifier(self, name: str) -> str:
        escaped = name.replace('"', '""')
        return f'"{escaped}"'

    def render_literal(self, value) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        if isinstance(value, datetime.datetime):
            return "'" + value.isoformat(sep=" ") + "'"
        if isinstance(value, datetime.date):
            return "'" + value.isoformat() + "'"
        return repr(value)

    def render(self, expr: Expr) -> str:
        if isinstance(expr, Literal):
            return self.render_literal(expr.value)
        if isinstance(expr, ColumnRef):
            rendered = self.quote_identifier(expr.name)
            if expr.qualifier:
                return f"{self.quote_identifier(expr.qualifier)}.{rendered}"
            return rendered
        if isinstance(expr, BinaryOp):
            left, right = self.render(expr.left), self.render(expr.right)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, UnaryOp):
            inner = self.render(expr.operand)
            return f"(NOT {inner})" if expr.op == "NOT" else f"(-{inner})"
        if isinstance(expr, FunctionCall):
            return self._render_function(expr)
        if isinstance(expr, AggregateCall):
            if expr.arg is None:
                return "COUNT(*)"
            prefix = "DISTINCT " if expr.distinct else ""
            return f"{expr.func}({prefix}{self.render(expr.arg)})"
        if isinstance(expr, Case):
            parts = ["CASE"]
            for cond, value in expr.whens:
                parts.append(
                    f"WHEN {self.render(cond)} THEN {self.render(value)}"
                )
            if expr.default is not None:
                parts.append(f"ELSE {self.render(expr.default)}")
            parts.append("END")
            return "(" + " ".join(parts) + ")"
        if isinstance(expr, IsNull):
            middle = "IS NOT NULL" if expr.negated else "IS NULL"
            return f"({self.render(expr.operand)} {middle})"
        if isinstance(expr, InList):
            items = ", ".join(self.render(i) for i in expr.items)
            middle = "NOT IN" if expr.negated else "IN"
            return f"({self.render(expr.operand)} {middle} ({items}))"
        if isinstance(expr, Between):
            middle = "NOT BETWEEN" if expr.negated else "BETWEEN"
            return (
                f"({self.render(expr.operand)} {middle} "
                f"{self.render(expr.low)} AND {self.render(expr.high)})"
            )
        if isinstance(expr, Like):
            middle = "NOT LIKE" if expr.negated else "LIKE"
            return (
                f"({self.render(expr.operand)} {middle} "
                f"{self.render(expr.pattern)})"
            )
        raise DeploymentError(f"cannot render {expr!r} as SQL")

    def _render_function(self, call: FunctionCall) -> str:
        name = call.name
        args = [self.render(a) for a in call.args]
        if name in self.NATIVE_FUNCTIONS:
            return f"{name}({', '.join(args)})"
        if name == "CONCAT":
            return "(" + " || ".join(args) + ")"
        if name == "MOD":
            return f"({args[0]} % {args[1]})"
        if name == "TO_STRING":
            return f"CAST({args[0]} AS TEXT)"
        if name == "TO_INTEGER":
            return f"CAST({args[0]} AS INTEGER)"
        if name == "TO_FLOAT":
            return f"CAST({args[0]} AS REAL)"
        if name == "ADD_DAYS":
            return f"date({args[0]}, '+' || CAST({args[1]} AS TEXT) || ' days')"
        if name == "YEARS_BETWEEN":
            return (
                f"CAST((julianday({args[0]}) - julianday({args[1]})) "
                "/ 365.2425 AS INTEGER)"
            )
        raise DeploymentError(f"SQL dialect does not support function {name}")


DEFAULT_DIALECT = SqliteDialect()


def mapping_to_select(
    mapping: Mapping, dialect: Optional[SqliteDialect] = None
) -> str:
    """One mapping → one single-block SELECT statement."""
    dialect = dialect or DEFAULT_DIALECT
    if mapping.is_opaque:
        raise DeploymentError(
            f"opaque mapping {mapping.name} cannot be deployed as SQL"
        )
    select_items = []
    for col, expr in mapping.derivations:
        if not dialect.supports_expression(expr):
            raise DeploymentError(
                f"{mapping.name}: derivation {col!r} uses a function the "
                "SQL platform does not support"
            )
        select_items.append(
            f"{dialect.render(expr)} AS {dialect.quote_identifier(col)}"
        )
    from_items = [
        f"{dialect.quote_identifier(b.relation.name)} AS "
        f"{dialect.quote_identifier(b.var)}"
        for b in mapping.sources
    ]
    sql = "SELECT " + ", ".join(select_items)
    sql += " FROM " + ", ".join(from_items)
    conjuncts = mapping.where_conjuncts()
    if conjuncts:
        for c in conjuncts:
            if not dialect.supports_expression(c):
                raise DeploymentError(
                    f"{mapping.name}: predicate uses an unsupported function"
                )
        sql += " WHERE " + " AND ".join(dialect.render(c) for c in conjuncts)
    if mapping.group_by:
        sql += " GROUP BY " + ", ".join(
            dialect.render(e) for e in mapping.group_by
        )
    return sql


def mappings_to_select(
    producers: Sequence[Mapping], dialect: Optional[SqliteDialect] = None
) -> str:
    """Several mappings sharing one target → a UNION ALL of SELECTs."""
    statements = [mapping_to_select(m, dialect) for m in producers]
    return "\nUNION ALL\n".join(statements)


# --- sqlite execution -------------------------------------------------------------


class SqliteRunner:
    """Loads an :class:`Instance` into an in-memory sqlite database and
    executes generated SELECT statements against it — the stand-in for
    "the DBMS managing the source data".

    ``retry`` (a :class:`~repro.resilience.RetryPolicy`, or an int
    retry budget) re-runs queries *and batched writes* that fail
    transiently — a locked or busy database
    (``sqlite3.OperationalError``), or an injected
    :class:`~repro.errors.TransientError` — with exponential backoff.
    ``breaker`` (a :class:`~repro.supervision.CircuitBreaker`, or an
    int failure threshold) sits outside the retry: once the DBMS keeps
    dying through whole retry budgets, further calls fail fast with
    :class:`~repro.errors.BreakerOpen` under the ``deploy.sql`` key."""

    def __init__(self, instance: Instance, retry=None, breaker=None):
        from repro.resilience import resolve_retry
        from repro.supervision import resolve_breaker

        self.connection = sqlite3.connect(":memory:")
        self.retry = resolve_retry(retry)
        self.breaker = resolve_breaker(breaker)
        #: fault-injection seam: a callable ``hook(sql, rows)`` invoked
        #: before every batched write (see FaultPlan.flaky_writes)
        self.write_hook = None
        for dataset in instance:
            self._create_table(dataset)

    def _guarded(self, fn, name: str = "deploy.sql"):
        """Run one endpoint call under retry (inner) and the circuit
        breaker (outer): an exhausted retry budget counts as a single
        breaker failure."""
        if self.retry is not None:
            from repro.errors import TransientError

            inner = fn
            fn = lambda: self.retry.call(  # noqa: E731
                inner,
                name=name,
                retry_on=(TransientError, sqlite3.OperationalError),
            )
        if self.breaker is not None:
            return self.breaker.call(name, fn)
        return fn()

    def _executemany(self, sql: str, rows) -> None:
        """The single seam every batched write goes through (so fault
        plans can poison loads, not just queries)."""
        if self.write_hook is not None:
            self.write_hook(sql, rows)
        self.connection.executemany(sql, rows)

    def _insert_rows(self, table_sql_name: str, dataset: Dataset) -> None:
        rel = dataset.relation
        placeholders = ", ".join("?" for _ in rel.attributes)
        rows = list(zip(*map(to_sql_column, dataset.columns())))
        sql = f"INSERT INTO {table_sql_name} VALUES ({placeholders})"
        self._guarded(
            lambda: self._executemany(sql, rows), name="deploy.sql.write"
        )

    def _create_table(
        self, dataset: Dataset, table_name: Optional[str] = None
    ) -> None:
        dialect = DEFAULT_DIALECT
        rel = dataset.relation
        columns = ", ".join(
            f"{dialect.quote_identifier(a.name)} {_sqlite_type(a.dtype)}"
            for a in rel
        )
        name = dialect.quote_identifier(table_name or rel.name)
        self.connection.execute(f"CREATE TABLE {name} ({columns})")
        self._insert_rows(name, dataset)

    def load_table(self, dataset: Dataset, transactional: bool = True) -> None:
        """(Re)load one table from ``dataset``.

        With ``transactional`` (the default) rows stage into a shadow
        table that replaces the live one only after every batch has
        landed — ``DROP`` + ``ALTER TABLE ... RENAME`` inside one
        transaction — so a crash mid-load leaves the previous table
        intact and a resume never sees a half-written target."""
        dialect = DEFAULT_DIALECT
        rel = dataset.relation
        if not transactional:
            name = dialect.quote_identifier(rel.name)
            self.connection.execute(f"DROP TABLE IF EXISTS {name}")
            self._create_table(dataset)
            return
        shadow = f"{rel.name}__shadow"
        quoted_shadow = dialect.quote_identifier(shadow)
        self.connection.execute(f"DROP TABLE IF EXISTS {quoted_shadow}")
        self._create_table(dataset, table_name=shadow)
        name = dialect.quote_identifier(rel.name)
        with self.connection:  # commit point: atomic swap
            self.connection.execute(f"DROP TABLE IF EXISTS {name}")
            self.connection.execute(
                f"ALTER TABLE {quoted_shadow} RENAME TO {name}"
            )

    def query(self, sql: str, result_relation: Relation) -> Dataset:
        """Run a SELECT; rows are coerced back to the relation's types."""
        try:
            cursor = self._guarded(lambda: self.connection.execute(sql))
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite rejected generated SQL: {exc}\n{sql}")
        rows = cursor.fetchall()
        names = [d[0] for d in cursor.description]
        fetched = dict(zip(names, zip(*rows))) if rows else {}
        nulls = [None] * len(rows)
        columns = {
            a.name: from_sql_column(a.dtype, fetched.get(a.name, nulls))
            for a in result_relation
        }
        return Dataset.adopt_block(result_relation, RowBlock(columns, len(rows)))

    def close(self) -> None:
        self.connection.close()


def _sqlite_type(dtype) -> str:
    from repro.schema.types import FLOAT, DECIMAL, INTEGER, STRING

    if dtype is INTEGER or dtype is BOOLEAN:
        return "INTEGER"
    if dtype in (FLOAT, DECIMAL):
        return "REAL"
    return "TEXT"


def run_mapping_as_sql(
    mapping: Mapping,
    instance: Instance,
    dialect: Optional[SqliteDialect] = None,
) -> Dataset:
    """Generate SQL for one mapping and execute it on sqlite — the
    one-shot verification path used by tests and benchmarks."""
    runner = SqliteRunner(instance)
    try:
        return runner.query(
            mapping_to_select(mapping, dialect), mapping.target
        )
    finally:
        runner.close()


__all__ = [
    "SqliteDialect",
    "DEFAULT_DIALECT",
    "mapping_to_select",
    "mappings_to_select",
    "SqliteRunner",
    "run_mapping_as_sql",
]

"""Cardinality estimation over OHM graphs (the "how many" half).

A :class:`CardinalityEstimator` walks an OHM instance in topological
order and predicts the row count on every edge, propagating textbook
selectivities through FILTER / PROJECT / JOIN / GROUP / dedup / UNION
(plus the NF² and opaque operators the hub model adds). Three sources
feed each prediction, strongest first:

* an **observed** actual from the statistics catalog (a previous run's
  ``etl.link.<name>.rows`` / ``ohm.operator.<uid>.rows_out`` feedback)
  pins the edge exactly — this is the adaptive re-planning loop;
* **table statistics** ground SOURCE row counts and the per-column
  distinct/null sketches the selectivity rules consult;
* **defaults** (``DEFAULT_ROWS`` rows per unknown source, the usual
  1/10 equality and 1/3 range selectivities — a range against a numeric
  literal uses the column's sampled ``(low, high)`` when known) keep the
  estimator total —
  it never refuses to answer, it just answers with wider error bars.

All selectivities are clamped to [0, 1] and every rule is monotone
nondecreasing in its input cardinalities, properties the test suite
pins (``tests/cost/test_estimator.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cost.catalog import DEFAULT_SAMPLE_SIZE, ColumnStats, StatisticsCatalog
from repro.expr.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import (
    Filter,
    Group,
    Join,
    Nest,
    Operator,
    Project,
    Source,
    Split,
    Target,
    Union,
    Unknown,
    Unnest,
)

#: rows assumed for a source relation the catalog knows nothing about.
DEFAULT_ROWS = 1000.0
#: selectivity of ``col = literal`` without a distinct-value sketch.
DEFAULT_EQ_SELECTIVITY = 0.1
#: selectivity of a range comparison (``<``, ``>=`` ...).
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
#: the least share a range against sampled bounds keeps: one row of a
#: default-size sample.
RANGE_SELECTIVITY_FLOOR = 1.0 / DEFAULT_SAMPLE_SIZE
#: selectivity of an opaque boolean expression.
DEFAULT_BOOL_SELECTIVITY = 1.0 / 3.0
#: selectivity of ``BETWEEN`` / ``LIKE``.
BETWEEN_SELECTIVITY = 0.25
LIKE_SELECTIVITY = 0.1
#: null fraction assumed without a sketch.
DEFAULT_NULL_FRACTION = 0.05
#: distinct values assumed without a sketch: one in ten rows.
DEFAULT_NDV_FRACTION = 0.1
#: survivor fraction of duplicate elimination without key sketches.
DEDUP_FACTOR = 0.8
#: rows produced per input row by UNNEST without better information.
UNNEST_FANOUT = 4.0


class _Cols:
    """Per-edge column knowledge: name → (ndv, null fraction, bounds)."""

    __slots__ = ("stats",)

    def __init__(self, stats: Optional[Dict[str, ColumnStats]] = None):
        self.stats = stats or {}

    def ndv(self, name: str, rows: float) -> float:
        info = self.stats.get(name)
        if info is not None:
            return max(1.0, min(info.n_distinct, max(rows, 1.0)))
        return max(1.0, rows * DEFAULT_NDV_FRACTION)

    def null_fraction(self, name: str) -> float:
        info = self.stats.get(name)
        return info.null_fraction if info is not None else DEFAULT_NULL_FRACTION

    def bounds(self, name: str) -> Optional[Tuple[float, float]]:
        info = self.stats.get(name)
        return info.bounds if info is not None else None

    def capped(self, rows: float) -> "_Cols":
        return _Cols({
            name: ColumnStats(min(info.n_distinct, max(rows, 1.0)),
                              info.null_fraction, info.bounds)
            for name, info in self.stats.items()
        })

    def merged(self, other: "_Cols") -> "_Cols":
        """Both sides' columns; a column on both keeps ``other``'s
        sketch, with bounds that cover both sides' (unknown if either
        side's are)."""
        combined = dict(self.stats)
        for name, info in other.stats.items():
            mine = combined.get(name)
            if mine is not None and mine.bounds != info.bounds:
                bounds = None
                if mine.bounds is not None and info.bounds is not None:
                    bounds = (min(mine.bounds[0], info.bounds[0]),
                              max(mine.bounds[1], info.bounds[1]))
                info = ColumnStats(info.n_distinct, info.null_fraction, bounds)
            combined[name] = info
        return _Cols(combined)


def _shifted(
    expr: Expr, bounds: Optional[Tuple[float, float]]
) -> Optional[Tuple[float, float]]:
    """The bounds of ``col + literal`` / ``col - literal`` given those of
    ``col``; any other derivation's are unknown."""
    if (bounds is None or not isinstance(expr, BinaryOp)
            or expr.op not in ("+", "-")
            or not isinstance(expr.left, ColumnRef)
            or not isinstance(expr.right, Literal)
            or type(expr.right.value) not in (int, float)):
        return None
    step = expr.right.value if expr.op == "+" else -expr.right.value
    return bounds[0] + step, bounds[1] + step


class OperatorEstimate:
    """Estimated cardinality of one operator."""

    __slots__ = ("uid", "kind", "label", "rows_in", "rows_out", "source")

    def __init__(self, uid, kind, label, rows_in, rows_out, source):
        self.uid = uid
        self.kind = kind
        self.label = label
        self.rows_in = rows_in
        self.rows_out = rows_out
        #: where the output estimate came from: "observed" (feedback
        #: pinned it), "catalog" (table statistics), or "estimate"
        #: (selectivity rules over defaults).
        self.source = source

    def __repr__(self) -> str:
        return (
            f"OperatorEstimate({self.kind} {self.label!r}: "
            f"{self.rows_in:.0f} -> {self.rows_out:.0f} [{self.source}])"
        )


class GraphEstimate:
    """Every operator's and edge's estimated cardinality for one graph."""

    def __init__(self):
        self.operators: Dict[str, OperatorEstimate] = {}
        self.edges: Dict[str, float] = {}

    def rows_out(self, uid: str, default: float = 0.0) -> float:
        estimate = self.operators.get(uid)
        return estimate.rows_out if estimate is not None else default

    def edge_rows(self, name: str, default: float = 0.0) -> float:
        return self.edges.get(name, default)

    def __repr__(self) -> str:
        return f"GraphEstimate({len(self.operators)} operators)"


class CardinalityEstimator:
    """Walks an OHM graph predicting per-edge cardinalities."""

    def __init__(
        self,
        catalog: Optional[StatisticsCatalog] = None,
        default_rows: float = DEFAULT_ROWS,
    ):
        self.catalog = catalog
        self.default_rows = float(default_rows)

    # -- selectivity rules ---------------------------------------------------

    def selectivity(self, expr: Expr, cols: Optional[_Cols] = None,
                    rows: float = DEFAULT_ROWS) -> float:
        """The fraction of rows a predicate keeps, clamped to [0, 1]."""
        value = self._selectivity(expr, cols or _Cols(), rows)
        return min(1.0, max(0.0, value))

    def _eq_selectivity(self, left: Expr, right: Expr, cols: _Cols,
                        rows: float) -> float:
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            return 1.0 / max(
                cols.ndv(left.name, rows), cols.ndv(right.name, rows)
            )
        for side, other in ((left, right), (right, left)):
            if isinstance(side, ColumnRef) and isinstance(other, Literal):
                return 1.0 / cols.ndv(side.name, rows)
        return DEFAULT_EQ_SELECTIVITY

    def _range_selectivity(self, expr: BinaryOp, cols: _Cols) -> float:
        """``col < literal`` and friends: the share of the column's
        sampled ``(low, high)`` the comparison keeps, assuming values
        spread evenly; without bounds, the default."""
        op, column, value = expr.op, expr.left, expr.right
        if isinstance(column, Literal):
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            column, value = value, column
        if not (isinstance(column, ColumnRef) and isinstance(value, Literal)
                and type(value.value) in (int, float)):
            return DEFAULT_RANGE_SELECTIVITY
        bounds = cols.bounds(column.name)
        if bounds is None:
            return DEFAULT_RANGE_SELECTIVITY
        low, high = bounds
        if high > low:
            below = (value.value - low) / (high - low)
        else:
            below = 1.0 if value.value > low else 0.0
        below = min(1.0, max(0.0, below))
        kept = below if op in ("<", "<=") else 1.0 - below
        # a literal outside the sampled bounds may still match rows the
        # sample missed: keep at least one sampled row's share
        kept = max(kept, RANGE_SELECTIVITY_FLOOR)
        return kept * (1.0 - cols.null_fraction(column.name))

    def _selectivity(self, expr: Expr, cols: _Cols, rows: float) -> float:
        if isinstance(expr, Literal):
            if expr.value is None:
                return 0.0  # NULL is not true — WHERE filters it out
            return 1.0 if expr.value else 0.0
        if isinstance(expr, BinaryOp):
            op = expr.op
            if op == "AND":
                return (self.selectivity(expr.left, cols, rows)
                        * self.selectivity(expr.right, cols, rows))
            if op == "OR":
                left = self.selectivity(expr.left, cols, rows)
                right = self.selectivity(expr.right, cols, rows)
                return left + right - left * right
            if op == "=":
                return self._eq_selectivity(expr.left, expr.right, cols, rows)
            if op == "<>":
                return 1.0 - self._eq_selectivity(
                    expr.left, expr.right, cols, rows
                )
            if op in ("<", "<=", ">", ">="):
                return self._range_selectivity(expr, cols)
            return DEFAULT_BOOL_SELECTIVITY
        if isinstance(expr, UnaryOp) and expr.op == "NOT":
            return 1.0 - self.selectivity(expr.operand, cols, rows)
        if isinstance(expr, IsNull):
            fraction = (
                cols.null_fraction(expr.operand.name)
                if isinstance(expr.operand, ColumnRef)
                else DEFAULT_NULL_FRACTION
            )
            return 1.0 - fraction if expr.negated else fraction
        if isinstance(expr, InList):
            each = (
                1.0 / cols.ndv(expr.operand.name, rows)
                if isinstance(expr.operand, ColumnRef)
                else DEFAULT_EQ_SELECTIVITY
            )
            hit = min(1.0, len(expr.items) * each)
            return 1.0 - hit if expr.negated else hit
        if isinstance(expr, Between):
            return (1.0 - BETWEEN_SELECTIVITY if expr.negated
                    else BETWEEN_SELECTIVITY)
        if isinstance(expr, Like):
            return 1.0 - LIKE_SELECTIVITY if expr.negated else LIKE_SELECTIVITY
        return DEFAULT_BOOL_SELECTIVITY

    # -- the graph walk ------------------------------------------------------

    def estimate_graph(self, graph: OhmGraph) -> GraphEstimate:
        """Estimate every operator's and edge's cardinality.

        The graph must have propagated schemas (callers that build one
        from scratch should run ``graph.propagate_schemas()`` first;
        the deployment pipeline already does)."""
        result = GraphEstimate()
        # (producer uid, port) → (rows, column knowledge)
        by_port: Dict[Tuple[str, int], Tuple[float, _Cols]] = {}
        for op in graph.topological_order():
            in_edges = graph.in_edges(op.uid)
            inputs = [
                by_port.get((e.src, e.src_port), (self.default_rows, _Cols()))
                for e in in_edges
            ]
            rows_in = sum(rows for rows, _cols in inputs)
            rows_out, cols, source = self._estimate_operator(op, inputs)
            # feedback beats estimation: a recorded actual for this
            # operator (by uid) or any of its out edges (by name) pins
            # the output cardinality
            if self.catalog is not None:
                observed = self.catalog.observed(op.uid)
                if observed is None:
                    for edge in graph.out_edges(op.uid):
                        observed = self.catalog.observed(edge.name)
                        if observed is not None:
                            break
                if observed is not None:
                    rows_out, source = float(observed), "observed"
                    cols = cols.capped(rows_out)
            result.operators[op.uid] = OperatorEstimate(
                op.uid, op.KIND, op.label, rows_in, rows_out, source
            )
            for edge in graph.out_edges(op.uid):
                by_port[(edge.src, edge.src_port)] = (rows_out, cols)
                result.edges[edge.name] = rows_out
        return result

    def _estimate_operator(
        self, op: Operator, inputs: List[Tuple[float, _Cols]]
    ) -> Tuple[float, _Cols, str]:
        if isinstance(op, Source):
            return self._estimate_source(op)
        if isinstance(op, Target):
            rows, cols = inputs[0] if inputs else (0.0, _Cols())
            return rows, cols, "estimate"
        if isinstance(op, Filter):
            rows, cols = inputs[0]
            kept = rows * self.selectivity(op.condition, cols, rows)
            return kept, cols.capped(kept), "estimate"
        if isinstance(op, Project):  # includes KeyGen & friends
            rows, cols = inputs[0]
            return rows, self._project_cols(op, rows, cols), "estimate"
        if isinstance(op, Join):
            return self._estimate_join(op, inputs)
        if isinstance(op, Union):
            rows = sum(r for r, _c in inputs)
            cols = _Cols()
            for _r, c in inputs:
                cols = cols.merged(c)
            if op.distinct:
                rows *= DEDUP_FACTOR
            return rows, cols.capped(rows), "estimate"
        if isinstance(op, Group):
            rows, cols = inputs[0]
            kept = self._distinct_of(op.keys, rows, cols)
            return kept, cols.capped(kept), "estimate"
        if isinstance(op, Nest):
            rows, cols = inputs[0]
            kept = self._distinct_of(op.keys, rows, cols)
            return kept, cols.capped(kept), "estimate"
        if isinstance(op, Unnest):
            rows, cols = inputs[0]
            grown = rows * UNNEST_FANOUT
            return grown, cols, "estimate"
        if isinstance(op, (Split, Unknown)):
            rows = sum(r for r, _c in inputs)
            cols = _Cols()
            for _r, c in inputs:
                cols = cols.merged(c)
            return rows, cols, "estimate"
        rows = sum(r for r, _c in inputs)
        return rows, _Cols(), "estimate"

    def _estimate_source(self, op: Source) -> Tuple[float, _Cols, str]:
        name = op.relation.name
        stats = self.catalog.table(name) if self.catalog is not None else None
        if stats is not None:
            rows = float(stats.row_count)
            cols = dict(stats.columns)
            source = "catalog"
        else:
            rows = self.default_rows
            cols = {}
            source = "estimate"
        # key attributes are unique by definition — even without a
        # sketch their distinct count is the row count
        for attribute in op.relation.attributes:
            if attribute.is_key and attribute.name not in cols:
                cols[attribute.name] = ColumnStats(rows, 0.0)
        return rows, _Cols(cols), source

    def _project_cols(self, op: Project, rows: float, cols: _Cols) -> _Cols:
        out: Dict[str, ColumnStats] = {}
        for name, expr in op.derivations:
            refs = expr.column_names() if hasattr(expr, "column_names") else []
            if isinstance(expr, ColumnRef):
                out[name] = ColumnStats(
                    cols.ndv(expr.name, rows), cols.null_fraction(expr.name),
                    cols.bounds(expr.name),
                )
            elif len(refs) == 1:
                # a single-column derivation (UPPER(cat), amount + 1)
                # has at most its argument's distinct count
                out[name] = ColumnStats(
                    cols.ndv(refs[0], rows), cols.null_fraction(refs[0]),
                    _shifted(expr, cols.bounds(refs[0])),
                )
            else:
                out[name] = ColumnStats(max(1.0, rows), 0.0)
        return _Cols(out)

    def _equi_keys(self, condition: Expr) -> List[Tuple[str, str]]:
        """The ``left.col = right.col`` conjunct pairs of a join
        condition (order as written; sides are resolved by name)."""
        pairs: List[Tuple[str, str]] = []

        def walk(expr: Expr) -> None:
            if isinstance(expr, BinaryOp):
                if expr.op == "AND":
                    walk(expr.left)
                    walk(expr.right)
                elif (expr.op == "=" and isinstance(expr.left, ColumnRef)
                        and isinstance(expr.right, ColumnRef)):
                    pairs.append((expr.left.name, expr.right.name))

        walk(condition)
        return pairs

    def _estimate_join(
        self, op: Join, inputs: List[Tuple[float, _Cols]]
    ) -> Tuple[float, _Cols, str]:
        (left_rows, left_cols), (right_rows, right_cols) = inputs
        pairs = self._equi_keys(op.condition)
        selectivity = 1.0
        if pairs:
            for left_name, right_name in pairs:
                ndv = max(
                    left_cols.ndv(left_name, left_rows),
                    right_cols.ndv(right_name, right_rows),
                    1.0,
                )
                selectivity /= ndv
        else:
            selectivity = self.selectivity(
                op.condition, left_cols.merged(right_cols),
                max(left_rows, right_rows),
            )
        rows = left_rows * right_rows * selectivity
        if op.kind in ("left", "full"):
            rows = max(rows, left_rows)
        if op.kind in ("right", "full"):
            rows = max(rows, right_rows)
        cols = left_cols.merged(right_cols).capped(rows)
        return rows, cols, "estimate"

    def _distinct_of(self, keys, rows: float, cols: _Cols) -> float:
        if rows <= 0:
            return 0.0
        if not keys:
            return 1.0  # a single all-rows group
        distinct = 1.0
        for key in keys:
            distinct *= cols.ndv(key, rows)
            if distinct >= rows:
                return rows
        return min(rows, max(1.0, distinct))


__all__ = [
    "BETWEEN_SELECTIVITY",
    "CardinalityEstimator",
    "DEDUP_FACTOR",
    "DEFAULT_BOOL_SELECTIVITY",
    "DEFAULT_EQ_SELECTIVITY",
    "DEFAULT_NDV_FRACTION",
    "DEFAULT_NULL_FRACTION",
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_ROWS",
    "GraphEstimate",
    "LIKE_SELECTIVITY",
    "OperatorEstimate",
    "UNNEST_FANOUT",
]

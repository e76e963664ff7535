"""Columnar expression compiler: lower an AST to a column function, once.

Where the tree-walking evaluator (:mod:`repro.expr.evaluator`, the
semantic oracle every row body runs) dispatches per row, this module
lowers an AST to a ``RowBlock → column`` function called per *block*:
node dispatch, registry lookups, and name resolution happen once per
operator. It is the one expression compiler; nothing else lowers.

What is left per row depends on what the operand columns hold, by the
rule of ``docs/execution-model.md`` ("Inside the compiled tier"): **prove
it for the column, or run the per-cell loop.** The evaluator's checks
(``_check_comparable``, ``_is_number``, ``isinstance(value, str)``) ask
a cell for its class, so one sweep over a column's classes
(:func:`repro.data.columns.column_classes`) answers them for every cell
at once. When the class sets prove no cell can fail the check — and,
for ``/`` and ``%``, the divisor holds no zero — the node runs a
generated comprehension with the operator inline and no call per cell
(``= <> < <= > >=``, ``+ - * / %``, unary minus, ``BETWEEN`` constant
bounds, constant ``IN``, ``LIKE`` a literal pattern). Otherwise it runs
the per-cell loop over the evaluator's own helpers (``_cmp_cell``,
``_arith``…), which raises what the oracle raises, at the same first
cell. ``AND`` / ``OR`` / ``NOT`` need no sweep: their loops settle
``True`` / ``False`` / NULL cells inline and hand any other cell to
``_and3`` / ``_or3`` / ``_as_bool``.

The semantics contract is the evaluator's, verbatim — both loops
compute what those helpers compute, so the NULL rules still live in one
place and a block function agrees bit-for-bit with the oracle row by
row (``tests/exec/test_block_parity.py``, ``tests/exec/test_parity.py``).
Laziness that is observable row-wise is preserved
column-wise: CASE evaluates each WHEN's values only on the sub-block its
condition matched (via ``take``), exactly the rows the row path would
touch.

Name resolution is pluggable: ``resolve(ref) → column key or None``
(each runtime builds its resolver from how it binds environments —
see :func:`repro.exec.block.relation_resolver`). Anything the block
tier cannot express *identically* — an unresolvable column, an IN list
with non-constant items, an aggregate call — raises the internal
:class:`BlockCompileError`, and the public entry points return ``None``
so the caller falls back to the row kernels (which then raise the
oracle's own errors, if any).
"""

from __future__ import annotations

import datetime
import operator
from functools import partial
from typing import AbstractSet, Any, Callable, List, Optional, Sequence, Tuple

from repro.data.columns import NUMBERS, TEXT, column_classes
from repro.errors import EvaluationError
from repro.exec.block import BlockFn, Reducer, RowBlock
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
from repro.expr.evaluator import (
    _LIKE_CACHE,
    Environment,
    _and3,
    _arith,
    _as_bool,
    _check_comparable,
    _is_number,
    _like_to_regex,
    _or3,
    evaluate,
)
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry

#: resolve(ColumnRef) → column key in the block, or None (row fallback).
ResolveFn = Callable[[ColumnRef], Optional[str]]

#: sentinel: "this node is not a compile-time constant"
_MISSING = object()

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def is_foldable(expr: Expr) -> bool:
    """True when ``expr`` can be evaluated at compile time: no column
    references, no aggregates, and no function calls (registered
    functions are treated as potentially impure)."""
    for node in expr.walk():
        if isinstance(node, (ColumnRef, AggregateCall, FunctionCall)):
            return False
    return True


class BlockCompileError(Exception):
    """Internal: the expression needs the row path (never escapes the
    public entry points)."""


def compile_block_expr(
    expr: Expr,
    registry: Optional[FunctionRegistry] = None,
    resolve: Optional[ResolveFn] = None,
) -> Optional[BlockFn]:
    """Compile ``expr`` into a ``RowBlock → column`` function returning
    one value per row (what :func:`~repro.expr.evaluator.evaluate`
    returns row-wise). ``None`` means the caller must use the row path."""
    registry = registry or DEFAULT_REGISTRY
    if resolve is None:
        resolve = lambda ref: None  # noqa: E731 — no columns resolvable
    try:
        fn, _const = _compile(expr, registry, resolve)
    except BlockCompileError:
        return None
    return fn


def compile_block_predicate(
    expr: Expr,
    registry: Optional[FunctionRegistry] = None,
    resolve: Optional[ResolveFn] = None,
) -> Optional[BlockFn]:
    """Like :func:`compile_block_expr` but reduced to SQL WHERE booleans:
    the output column holds ``True`` only where the predicate is
    definitely true (unknown filters out)."""
    inner = compile_block_expr(expr, registry, resolve)
    if inner is None:
        return None

    def predicate(block, _inner=inner):
        return [value is True for value in _inner(block)]

    return predicate


def aggregate_values_reducer(agg: AggregateCall) -> Reducer:
    """A ``values → value`` reducer over one group's *raw* argument
    values (NULLs included, member order preserved). Mirrors
    :func:`repro.expr.evaluator.evaluate_aggregate`: NULLs are
    stripped, DISTINCT dedups by equality, SUM/AVG/MIN/MAX of an empty
    (or all-NULL) group is NULL, COUNT is 0. Column-major grouped
    aggregation evaluates the argument once per block, gathers per
    group, and reduces with this. FIRST / LAST fold nothing: their
    reducer is the member position they pick, 0 or -1, so the grouped
    kernel gathers one cell a group (a group is never empty)."""
    func = agg.func
    distinct = agg.distinct
    if func in ("FIRST", "LAST"):
        return 0 if func == "FIRST" else -1

    def reduce_values(values):
        values = [value for value in values if value is not None]
        if distinct:
            deduped = []
            for value in values:
                if value not in deduped:
                    deduped.append(value)
            values = deduped
        if func == "COUNT":
            return len(values)
        if not values:
            return None
        if func == "SUM":
            return sum(values)
        if func == "AVG":
            return sum(values) / len(values)
        if func == "MIN":
            return min(values)
        if func == "MAX":
            return max(values)
        raise EvaluationError(f"unknown aggregate {func!r}")

    return reduce_values


# -- node lowering ------------------------------------------------------------

#: compiled node: (block → column function, constant value or _MISSING)
_Compiled = Tuple[BlockFn, Any]


def _const(value) -> _Compiled:
    def broadcast(block, _value=value):
        return [_value] * block.length

    return broadcast, value


def _compile(expr: Expr, registry: FunctionRegistry, resolve: ResolveFn) -> _Compiled:
    if isinstance(expr, Literal):
        return _const(expr.value)
    if is_foldable(expr):
        try:
            value = evaluate(expr, Environment({}), registry)
        except EvaluationError:
            # data-independent error: the row path raises it per row (but
            # not at all over zero rows) — defer and re-raise per block
            def failing(block, _expr=expr, _registry=registry):
                if block.length == 0:
                    return []
                value = evaluate(_expr, Environment({}), _registry)
                return [value] * block.length  # pragma: no cover — raises

            return failing, _MISSING
        return _const(value)
    if isinstance(expr, ColumnRef):
        key = resolve(expr)
        if key is None:
            raise BlockCompileError(f"unresolvable column {expr.to_sql()}")

        def column(block, _key=key):
            return block.columns[_key]

        return column, _MISSING
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, registry, resolve)
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr, registry, resolve)
    if isinstance(expr, FunctionCall):
        return _compile_call(expr, registry, resolve)
    if isinstance(expr, Case):
        return _compile_case(expr, registry, resolve)
    if isinstance(expr, IsNull):
        operand, _c = _compile(expr.operand, registry, resolve)
        if expr.negated:
            return (
                lambda block: [v is not None for v in operand(block)],
                _MISSING,
            )
        return lambda block: [v is None for v in operand(block)], _MISSING
    if isinstance(expr, InList):
        return _compile_in(expr, registry, resolve)
    if isinstance(expr, Between):
        return _compile_between(expr, registry, resolve)
    if isinstance(expr, Like):
        return _compile_like(expr, registry, resolve)
    # AggregateCall (handled by the operators' grouped paths) and any
    # future node kinds take the row path
    raise BlockCompileError(f"cannot block-compile node {expr!r}")


# -- prove it for the column, or run the per-cell loop -------------------------

_DATES = frozenset((datetime.date, datetime.datetime))
_ORDERED = frozenset((str, bool, datetime.date, datetime.datetime))


def _comparable(
    left: AbstractSet[type], right: AbstractSet[type], _rights: Any = None
) -> bool:
    """The proof for a comparison: ``_check_comparable`` passes for
    every pair of cells drawn from columns of these (exact) classes —
    all numbers, one class on both sides, or all dates."""
    both = left | right
    return len(both) <= 1 or both <= NUMBERS or both <= _DATES


def _ordered(left: AbstractSet[type], right: AbstractSet[type]) -> bool:
    """:func:`_comparable`, narrowed to builtin classes whose comparisons
    cannot raise and read the same from either side — what a loop needs
    that compares in another order than the per-cell helper (``BETWEEN``
    stops at the first bound that fails; ``in`` asks the item, not the
    cell)."""
    both = left | right
    return both <= NUMBERS or (len(both) <= 1 and both <= _ORDERED)


def _numeric(guard_zero: bool):
    """The proof for an arithmetic operator: ``_arith`` finds numbers on
    both sides and — for ``/`` and ``%`` — no zero among the divisors."""

    def proven(left, right, divisors: Sequence[Any]) -> bool:
        return (
            left <= NUMBERS
            and right <= NUMBERS
            and not (guard_zero and 0 in divisors)
        )

    return proven


def _inline(expr: str) -> Tuple[Callable, Callable, Callable]:
    """The NULL-propagating loops of a binary ``expr`` over ``l`` and
    ``r`` with the operator inline: column ⊕ column, column ⊕ constant,
    constant ⊕ column."""
    return (
        # ``expr`` comes from the table below, never from a job
        eval(
            "lambda ls, rs: [None if l is None or r is None else "
            f"{expr} for l, r in zip(ls, rs)]"
        ),
        eval(f"lambda ls, r: [None if l is None else {expr} for l in ls]"),
        eval(f"lambda l, rs: [None if r is None else {expr} for r in rs]"),
    )


#: operator → its three inline loops; what ``comparator(l, r)`` and
#: ``_arith(op, l, r)`` compute once their checks have passed
_INLINE = {
    op: _inline(f"l {symbol} r")
    for op, symbol in (
        ("=", "=="), ("<>", "!="), ("<", "<"), ("<=", "<="), (">", ">"),
        (">=", ">="), ("+", "+"), ("-", "-"), ("*", "*"), ("%", "%"),
    )
}
# the quotient first, as ``_arith`` takes it (an int pair too large for
# a float overflows there too), then the exact form of an even int pair
_INLINE["/"] = _inline(
    "(l // r if (q := l / r) is not None and l.__class__ is int"
    " and r.__class__ is int and l % r == 0 else q)"
)


def _cmp_cell(left, right, op, comparator):
    if left is None or right is None:
        return None
    _check_comparable(left, right, op)
    return comparator(left, right)


def _binary_node(op: str, left: "_Compiled", right: "_Compiled", proven, cell):
    """The block function of a NULL-propagating binary operator:
    ``_INLINE[op]`` when ``proven(left classes, right classes, right
    values)`` holds for the operand columns, else ``cell(l, r)`` per
    cell. A constant operand is neither broadcast nor zipped."""
    left_fn, left_const = left
    right_fn, right_const = right
    col_col, col_const, const_col = _INLINE[op]
    # a NULL constant has no class to prove anything by: it is broadcast
    if right_const is not _MISSING and right_const is not None:
        right_classes = {right_const.__class__}
        divisors = (right_const,)

        def const_right(block):
            ls = left_fn(block)
            if proven(column_classes(ls), right_classes, divisors):
                return col_const(ls, right_const)
            return [cell(l, right_const) for l in ls]

        return const_right
    if left_const is not _MISSING and left_const is not None:
        left_classes = {left_const.__class__}

        def const_left(block):
            rs = right_fn(block)
            if proven(left_classes, column_classes(rs), rs):
                return const_col(left_const, rs)
            return [cell(left_const, r) for r in rs]

        return const_left

    def columns(block):
        ls = left_fn(block)
        rs = right_fn(block)
        if proven(column_classes(ls), column_classes(rs), rs):
            return col_col(ls, rs)
        return [cell(l, r) for l, r in zip(ls, rs)]

    return columns


def _compile_binary(
    expr: BinaryOp, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    op = expr.op
    left = _compile(expr.left, registry, resolve)
    right = _compile(expr.right, registry, resolve)
    left_fn, right_fn = left[0], right[0]
    if op == "AND":
        # exact without a proof: only a cell that is none of True, False
        # and NULL reaches the helper (which raises for it)
        return (
            lambda block: [
                False if l is False or r is False
                else None if l is None or r is None
                else True if l is True and r is True
                else _and3(l, r)
                for l, r in zip(left_fn(block), right_fn(block))
            ],
            _MISSING,
        )
    if op == "OR":
        return (
            lambda block: [
                True if l is True or r is True
                else None if l is None or r is None
                else False if l is False and r is False
                else _or3(l, r)
                for l, r in zip(left_fn(block), right_fn(block))
            ],
            _MISSING,
        )
    if op == "||":

        def concat(block):
            return [
                None if l is None or r is None else str(l) + str(r)
                for l, r in zip(left_fn(block), right_fn(block))
            ]

        return concat, _MISSING
    comparator = _COMPARATORS.get(op)
    if comparator is not None:
        return (
            _binary_node(
                op, left, right, _comparable,
                partial(_cmp_cell, op=op, comparator=comparator),
            ),
            _MISSING,
        )
    return (
        _binary_node(
            op, left, right, _numeric(op in ("/", "%")), partial(_arith, op)
        ),
        _MISSING,
    )


def _neg_cell(value):
    if value is None:
        return None
    if not _is_number(value):
        raise EvaluationError(f"unary minus needs a number, got {value!r}")
    return -value


def _compile_unary(
    expr: UnaryOp, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    operand, _c = _compile(expr.operand, registry, resolve)
    if expr.op == "NOT":
        return (
            lambda block: [
                None if v is None
                else False if v is True
                else True if v is False
                else (not _as_bool(v))
                for v in operand(block)
            ],
            _MISSING,
        )

    def negate(block):
        col = operand(block)
        if column_classes(col) <= NUMBERS:
            return [None if v is None else -v for v in col]
        return [_neg_cell(v) for v in col]

    return negate, _MISSING


def _compile_call(
    expr: FunctionCall, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    function = registry.lookup(expr.name)
    function.check_arity(len(expr.args))
    args = [_compile(a, registry, resolve)[0] for a in expr.args]
    if not function.null_propagating:
        if not args:
            # zero-arg functions may be impure: call once per row
            return (
                lambda block: [function() for _ in range(block.length)],
                _MISSING,
            )

        def call_raw(block):
            return [function(*values) for values in zip(*[a(block) for a in args])]

        return call_raw, _MISSING
    if len(args) == 1:
        (only,) = args
        return (
            lambda block: [
                None if v is None else function(v) for v in only(block)
            ],
            _MISSING,
        )
    if len(args) == 2:
        first, second = args

        def call_two(block):
            return [
                None if a is None or b is None else function(a, b)
                for a, b in zip(first(block), second(block))
            ]

        return call_two, _MISSING

    def call(block):
        out = []
        for values in zip(*[a(block) for a in args]):
            if any(v is None for v in values):
                out.append(None)
            else:
                out.append(function(*values))
        return out

    return call, _MISSING


def _compile_case(
    expr: Case, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    branches = [
        (
            _compile(cond, registry, resolve)[0],
            _compile(value, registry, resolve)[0],
        )
        for cond, value in expr.whens
    ]
    default = (
        None
        if expr.default is None
        else _compile(expr.default, registry, resolve)[0]
    )

    def case(block):
        # peel matched rows off a shrinking pending sub-block so each
        # WHEN's condition/value touch exactly the rows the row-at-a-time
        # path would evaluate them on (observable through errors and
        # impure functions)
        out: List[Any] = [None] * block.length
        pending = list(range(block.length))
        sub = block
        for cond, value in branches:
            if not pending:
                break
            flags = cond(sub)
            matched = [i for i, flag in enumerate(flags) if flag is True]
            if not matched:
                continue
            values = value(sub.take(matched))
            for local, v in zip(matched, values):
                out[pending[local]] = v
            if len(matched) == len(pending):
                pending = []
                break
            remaining = [i for i, flag in enumerate(flags) if flag is not True]
            sub = sub.take(remaining)
            pending = [pending[i] for i in remaining]
        if default is not None and pending:
            for index, v in zip(pending, default(sub)):
                out[index] = v
        return out

    return case, _MISSING


def _compile_in(
    expr: InList, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    operand, _c = _compile(expr.operand, registry, resolve)
    item_values = []
    for item in expr.items:
        _fn, const = _compile(item, registry, resolve)
        if const is _MISSING:
            # the row path evaluates list items lazily per row; only a
            # fully-constant list is expressible column-wise
            raise BlockCompileError("IN list with non-constant items")
        item_values.append(const)
    negated = expr.negated

    def contains_cell(value, _items=tuple(item_values), _negated=negated):
        if value is None:
            return None
        saw_null = False
        for item_value in _items:
            if item_value is None:
                saw_null = True
            else:
                _check_comparable(value, item_value, "=")
                if value == item_value:
                    return False if _negated else True
        if saw_null:
            return None
        return True if _negated else False

    items = tuple(v for v in item_values if v is not None)
    found = not negated
    missing = None if len(items) < len(item_values) else negated
    # ``v in items`` tests identity before ``==``; only a NaN item (its
    # own unequal) could tell the two apart
    plain = all(v == v for v in items)
    item_classes = {v.__class__ for v in items}

    def contains(block):
        col = operand(block)
        classes = column_classes(col)
        if plain and all(_ordered(classes, {c}) for c in item_classes):
            return [
                None if v is None else found if v in items else missing
                for v in col
            ]
        return [contains_cell(v) for v in col]

    return contains, _MISSING


def _between_cell(value, low, high, negated):
    ge_low = None
    if value is not None and low is not None:
        _check_comparable(value, low, ">=")
        ge_low = value >= low
    le_high = None
    if value is not None and high is not None:
        _check_comparable(value, high, "<=")
        le_high = value <= high
    result = _and3(ge_low, le_high)
    if result is None:
        return None
    return (not result) if negated else result


def _compile_between(
    expr: Between, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    operand, _c = _compile(expr.operand, registry, resolve)
    low, low_const = _compile(expr.low, registry, resolve)
    high, high_const = _compile(expr.high, registry, resolve)
    negated = expr.negated

    constants = not any(
        c is _MISSING or c is None for c in (low_const, high_const)
    )
    bounds = {low_const.__class__, high_const.__class__}

    def between(block, _lo=low_const, _hi=high_const):
        col = operand(block)
        if constants:
            classes = column_classes(col)
            if all(_ordered(classes, {bound}) for bound in bounds):
                if negated:
                    return [
                        None if v is None else not _lo <= v <= _hi for v in col
                    ]
                return [None if v is None else _lo <= v <= _hi for v in col]
        return [
            _between_cell(v, lo, hi, negated)
            for v, lo, hi in zip(col, low(block), high(block))
        ]

    return between, _MISSING


def _like_cell(value, matcher, negated):
    if value is None:
        return None
    if not isinstance(value, str):
        raise EvaluationError("LIKE needs string operands")
    result = matcher(value) is not None
    return (not result) if negated else result


def _compile_like(
    expr: Like, registry: FunctionRegistry, resolve: ResolveFn
) -> _Compiled:
    operand, _c = _compile(expr.operand, registry, resolve)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and isinstance(
        expr.pattern.value, str
    ):
        matcher = _like_to_regex(expr.pattern.value).match

        def like_literal(block):
            col = operand(block)
            if not column_classes(col) <= TEXT:
                return [_like_cell(v, matcher, negated) for v in col]
            if negated:
                return [None if v is None else matcher(v) is None for v in col]
            return [None if v is None else matcher(v) is not None for v in col]

        return like_literal, _MISSING
    pattern, _cp = _compile(expr.pattern, registry, resolve)

    def dynamic_cell(value, pattern_value, _negated=negated):
        if value is None or pattern_value is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern_value, str):
            raise EvaluationError("LIKE needs string operands")
        compiled = _LIKE_CACHE.get(pattern_value)
        if compiled is None:
            compiled = _like_to_regex(pattern_value)
            _LIKE_CACHE[pattern_value] = compiled
        result = compiled.match(value) is not None
        return (not result) if _negated else result

    def like(block):
        return [
            dynamic_cell(v, p) for v, p in zip(operand(block), pattern(block))
        ]

    return like, _MISSING


__all__ = [
    "BlockCompileError",
    "aggregate_values_reducer",
    "compile_block_expr",
    "compile_block_predicate",
    "is_foldable",
]

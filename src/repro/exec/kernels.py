"""Batch execution kernels shared by every runtime.

The paper's central claim is that mappings, ETL jobs, and deployments
are views of one abstract operator model; this module mirrors that
unification at the *execution* layer. Each kernel implements the row
semantics of one operator family (project/derive, hash join, grouped
aggregate, union/funnel, routing/filtering/switch, nest/unnest, dedup,
sort) exactly once, over lists of row-dicts (or, for the ETL
Transformer and the mapping reference reading,
:class:`~repro.expr.evaluator.Environment` members), so the OHM engine
— which also runs lowered mappings — and the ETL stages exercise the
same code, and the three-way translation-verification tests check one
shared semantics rather than three.

Kernels are strategy-agnostic: they take already-built per-member
functions (predicates, derivations, aggregates), typically produced by
an :class:`~repro.exec.ExpressionPlanner`, whose row closures are the
tree-walking evaluator (:mod:`repro.expr.evaluator`) at every tier —
so a row kernel is the oracle's body, and the column kernels of
:mod:`repro.exec.block` are what is checked against it.

Passing an :class:`~repro.obs.Observability` records per-kernel row
counts (``exec.kernel.<name>.rows_in`` / ``.rows_out``) into the shared
metrics registry.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.columns import NUMBERS, TEXT, column_classes
from repro.expr.algebra import split_conjuncts
from repro.expr.ast import BinaryOp, Expr
from repro.expr.evaluator import Environment
from repro.schema.model import Relation
from repro.supervision.memory import active_memory_budget

#: Per-member value function (over an Environment or a bare row).
ValueFn = Callable[[Any], Any]
#: Per-member predicate (already reduced to a bool at the boundary).
PredicateFn = Callable[[Any], bool]
#: Optional item → environment adapter given to row-oriented kernels.
BindFn = Optional[Callable[[Any], Any]]
#: Optional per-item error absorber ``(index, item, exc) -> None`` from
#: an active skip/reject error policy (repro.resilience.ErrorContext).
OnErrorFn = Optional[Callable[[int, Any, BaseException], None]]


def _observe(obs, kernel: str, rows_in: int, rows_out: int) -> None:
    if obs is not None and obs.enabled:
        obs.metrics.count(f"exec.kernel.{kernel}.rows_in", rows_in)
        obs.metrics.count(f"exec.kernel.{kernel}.rows_out", rows_out)


def group_key_value(value: object) -> object:
    """The hashable key a value groups, dedups and matches by (SQL
    GROUP BY); the single definition every runtime shares. NULL, a
    number and a ``str`` are their own keys: NULLs are equal, and Python
    hashes and compares ``int`` with ``float`` exactly (``1 == 1.0``,
    ``2**53`` apart from ``2**53 + 1``). ``True`` stays apart from ``1``
    and any other value goes by class name and text, in tuples no
    number or string equals."""
    if value is None or value.__class__ is str:
        return value
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return value
    return (type(value).__name__, str(value))


def key_encoder() -> Callable[[object], object]:
    """A memoizing :func:`group_key_value` for one grouping pass.

    Grouped workloads see the same key values over and over (profiling
    shows the per-row tuple construction dominating small-group
    aggregations), so the encoding is cached per *class* then per value
    — the class level keeps ``1`` / ``1.0`` / ``True`` from colliding as
    dict keys while still encoding ``1 == 1.0``. Unhashable values fall
    back to the uncached encoding."""
    memos: Dict[type, dict] = {}

    def encode(value, _memos=memos, _encode=group_key_value):
        if value is None:
            return None
        cache = _memos.get(value.__class__)
        if cache is None:
            cache = _memos[value.__class__] = {}
        try:
            return cache[value]
        except KeyError:
            cache[value] = key = _encode(value)
            return key
        except TypeError:  # unhashable value
            return _encode(value)

    return encode


#: cells of exactly these classes are their own :func:`group_key_value`
_OWN_KEY = NUMBERS | TEXT


def key_columns(cols: Sequence[List[Any]]) -> List[List[Any]]:
    """``cols`` as columns of :func:`group_key_value` keys, each judged
    by one class sweep: a column holding only ``int`` / ``float`` /
    ``str`` cells (and NULLs) *is* its key column and is returned as it
    stands — no copy, no call per cell; any other column is encoded
    through one :func:`key_encoder`. A NULL key is ``None`` either way.
    Every block kernel that groups, dedups or matches rows hashes
    ``zip(*key_columns(...))``; two columns encoded apart (a join's two
    sides) still agree cell for cell, since a key depends on its value
    alone."""
    return [
        col
        if column_classes(col) <= _OWN_KEY
        else list(map(key_encoder(), col))
        for col in cols
    ]


def key_rows(key_cols: Sequence[List[Any]], length: int) -> Iterable[tuple]:
    """One key tuple a row over :func:`key_columns` columns — the empty
    tuple ``length`` times when there are none (a global aggregate
    groups by nothing)."""
    return zip(*key_cols) if key_cols else repeat((), length)


def row_binder(relation_name: Optional[str]) -> Callable[[dict], Environment]:
    """A reusable row → :class:`Environment` adapter binding each row
    anonymously and (when given) under its relation/link name. The same
    environment object is rebound per row, so kernels pay two dict
    stores per row instead of an allocation."""
    env = Environment()
    bindings = env.bindings
    if relation_name is None:

        def bind(row):
            bindings[None] = row
            return env

    else:

        def bind(row):
            bindings[None] = row
            bindings[relation_name] = row
            return env

    return bind


# -- row-wise kernels ----------------------------------------------------------


def project_rows(
    items: Sequence,
    derivations: Sequence[Tuple[str, ValueFn]],
    bind: BindFn = None,
    defaults: Optional[dict] = None,
    obs=None,
    on_error: OnErrorFn = None,
) -> List[dict]:
    """Build one output row per item from ``(name, fn)`` derivations.
    ``defaults`` pre-populates each output row (e.g. NULL-filled
    underived target columns) before the derivations apply.
    ``on_error(index, item, exc)`` — supplied by an active skip/reject
    error policy — absorbs a failing item (no output row is produced for
    it). Without it any error propagates."""
    out: List[dict] = []
    for index, item in enumerate(items):
        env = bind(item) if bind is not None else item
        try:
            row = dict(defaults) if defaults else {}
            for name, fn in derivations:
                row[name] = fn(env)
        except Exception as exc:
            if on_error is None:
                raise
            on_error(index, item, exc)
            continue
        out.append(row)
    _observe(obs, "project", len(items), len(out))
    return out


def route_rows(
    items: Sequence,
    specs: Sequence[Tuple[str, Optional[PredicateFn]]],
    bind: BindFn = None,
    only_once: bool = False,
    obs=None,
    on_error: OnErrorFn = None,
) -> List[List]:
    """Route each item to zero or more outputs.

    ``specs`` holds one ``(kind, predicate)`` pair per output:

    * ``"always"`` — receives every item (an unconstrained Transformer
      output); does not count as a match;
    * ``"pred"`` — receives items whose predicate holds; with
      ``only_once`` an item stops being considered once matched
      (DataStage Filter row-only-once mode);
    * ``"fallback"`` — receives items no ``"pred"`` output accepted
      (reject / otherwise links); never fires when there are no
      ``"pred"`` outputs at all.

    ``on_error(index, item, exc)`` absorbs a per-item predicate error;
    placements are buffered per item, so a failing item reaches *no*
    output (not even the ones whose predicates already held)."""
    outputs: List[List] = [[] for _ in specs]
    has_predicates = any(kind == "pred" for kind, _ in specs)
    fallbacks = [i for i, (kind, _) in enumerate(specs) if kind == "fallback"]
    for index, item in enumerate(items):
        env = bind(item) if bind is not None else item
        placed: List[int] = []
        matched = False
        try:
            for i, (kind, predicate) in enumerate(specs):
                if kind == "always":
                    placed.append(i)
                elif kind == "pred":
                    if matched and only_once:
                        continue
                    if predicate(env):
                        matched = True
                        placed.append(i)
            if has_predicates and not matched:
                placed.extend(fallbacks)
        except Exception as exc:
            if on_error is None:
                raise
            on_error(index, item, exc)
            continue
        for i in placed:
            outputs[i].append(item)
    _observe(obs, "route", len(items), sum(len(o) for o in outputs))
    return outputs


def rows_that_evaluate(
    items: Sequence,
    fns: Sequence[ValueFn],
    bind: BindFn,
    on_error: Callable[[int, Any, BaseException], None],
) -> List:
    """``items`` less each one on which a function of ``fns`` raises;
    that item goes to ``on_error``, once. How a skip/reject policy takes
    a row's error before a kernel that cannot drop one row (a grouping)
    runs over the rest."""

    def evaluates(env) -> bool:
        for fn in fns:
            fn(env)
        return True

    (kept,) = route_rows(items, [("pred", evaluates)], bind, on_error=on_error)
    return kept


def switch_rows(
    items: Sequence,
    selector: ValueFn,
    cases: Sequence,
    has_default: bool,
    bind: BindFn = None,
    obs=None,
    on_error: OnErrorFn = None,
) -> List[List]:
    """Route each item to exactly one output by selector value: the
    first matching case wins; unmatched items go to the trailing default
    output when configured, else nowhere. ``on_error(index, item, exc)``
    absorbs a selector error (the item reaches no output)."""
    n_outputs = len(cases) + (1 if has_default else 0)
    outputs: List[List] = [[] for _ in range(n_outputs)]
    for index, item in enumerate(items):
        try:
            value = selector(bind(item) if bind is not None else item)
        except Exception as exc:
            if on_error is None:
                raise
            on_error(index, item, exc)
            continue
        for i, case in enumerate(cases):
            if value == case:
                outputs[i].append(item)
                break
        else:
            if has_default:
                outputs[-1].append(item)
    _observe(obs, "switch", len(items), sum(len(o) for o in outputs))
    return outputs


# -- grouping kernels ----------------------------------------------------------


def group_aggregate_rows(
    rows: Sequence[dict],
    key_names: Sequence[str],
    aggregates: Sequence[Tuple[str, Callable[[list], Any]]],
    obs=None,
) -> List[dict]:
    """Group rows by key columns and emit one row per group: the key
    values followed by each ``(name, aggregate_fn)`` over the members."""
    budget = active_memory_budget()
    if budget is not None and budget.exceeded(len(rows)):
        from repro.supervision.spill import external_group_aggregate_rows

        out = external_group_aggregate_rows(
            rows, key_names, aggregates, budget, obs
        )
        _observe(obs, "group_aggregate", len(rows), len(out))
        return out
    groups: Dict[tuple, List[dict]] = {}
    order: List[tuple] = []
    if len(key_names) == 1:
        # single-key fast path: no per-row tuple-of-generator build
        encode = key_encoder()
        k0 = key_names[0]
        for row in rows:
            key = encode(row[k0])
            members = groups.get(key)
            if members is None:
                groups[key] = members = []
                order.append(key)
            members.append(row)
    else:
        encoders = [key_encoder() for _ in key_names]
        for row in rows:
            key = tuple(
                encode(row[k]) for encode, k in zip(encoders, key_names)
            )
            members = groups.get(key)
            if members is None:
                groups[key] = members = []
                order.append(key)
            members.append(row)
    out: List[dict] = []
    for key in order:
        members = groups[key]
        out_row = {k: members[0][k] for k in key_names}
        for name, aggregate in aggregates:
            out_row[name] = aggregate(members)
        out.append(out_row)
    _observe(obs, "group_aggregate", len(rows), len(out))
    return out


def dedup_rows(
    rows: Sequence[dict],
    key_names: Sequence[str],
    retain: str = "first",
    obs=None,
) -> List[dict]:
    """Keep one row per key — the first or last occurrence — preserving
    first-seen key order. Returns copies."""
    chosen: Dict[tuple, dict] = {}
    order: List[tuple] = []
    keep_last = retain == "last"
    encoders = [key_encoder() for _ in key_names]
    for row in rows:
        key = tuple(encode(row[k]) for encode, k in zip(encoders, key_names))
        if key not in chosen:
            order.append(key)
            chosen[key] = row
        elif keep_last:
            chosen[key] = row
    out = [dict(chosen[key]) for key in order]
    _observe(obs, "dedup", len(rows), len(out))
    return out


def nest_rows(
    rows: Sequence[dict],
    key_names: Sequence[str],
    nested: Sequence[str],
    into: str,
    obs=None,
) -> List[dict]:
    """NF² NEST: group by key columns and pack the ``nested`` columns of
    each group into a set-valued ``into`` column."""
    groups: Dict[tuple, List[dict]] = {}
    order: List[tuple] = []
    for row in rows:
        key = tuple(group_key_value(row[k]) for k in key_names)
        members = groups.get(key)
        if members is None:
            groups[key] = members = []
            order.append(key)
        members.append(row)
    out: List[dict] = []
    for key in order:
        members = groups[key]
        out_row = {k: members[0][k] for k in key_names}
        out_row[into] = [{c: member[c] for c in nested} for member in members]
        out.append(out_row)
    _observe(obs, "nest", len(rows), len(out))
    return out


def unnest_rows(
    rows: Sequence[dict],
    attr: str,
    scalar_names: Sequence[str],
    obs=None,
) -> List[dict]:
    """NF² UNNEST: flatten the set-valued ``attr`` column into rows;
    empty (or NULL) sets produce no output rows."""
    out: List[dict] = []
    for row in rows:
        for element in row.get(attr) or ():
            out_row = {n: row[n] for n in scalar_names}
            out_row.update(element)
            out.append(out_row)
    _observe(obs, "unnest", len(rows), len(out))
    return out


# -- set kernels ---------------------------------------------------------------


def union_rows(
    inputs: Sequence[Sequence[dict]],
    names: Sequence[str],
    distinct: bool = False,
    obs=None,
) -> List[dict]:
    """Bag union of union-compatible inputs, projected to ``names``;
    ``distinct`` keeps the first occurrence of each row (NULLs equal)."""
    rows: List[dict] = []
    for data in inputs:
        rows.extend({n: row[n] for n in names} for row in data)
    total_in = len(rows)
    if distinct:
        deduped: List[dict] = []
        seen = set()
        encoders = [key_encoder() for _ in names]
        for row in rows:
            key = tuple(encode(row[n]) for encode, n in zip(encoders, names))
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        rows = deduped
    _observe(obs, "union", total_in, len(rows))
    return rows


# -- sorting -------------------------------------------------------------------


def _sort_value(value, descending: bool):
    # NULLS LAST in *both* directions: the sort applies `reverse=True`
    # for descending keys, so NULL needs the low sentinel there and the
    # high sentinel ascending to always land at the end
    if value is None:
        return (0, "", "") if descending else (2, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (1, "num", value)
    return (1, type(value).__name__, str(value))


def sort_column(col: List[Any], descending: bool) -> List[Any]:
    """The keys ``col``'s rows sort by (:func:`_sort_value` of each
    cell). A column with no NULL whose cells are all ``str``, or all
    ``int`` / ``float``, already orders that way and is returned as it
    stands."""
    classes = column_classes(col)
    if (classes <= TEXT or classes <= NUMBERS) and None not in col:
        return col
    return [_sort_value(value, descending) for value in col]


def sort_rows(
    rows: Sequence[dict],
    keys: Sequence[Tuple[str, str]],
    obs=None,
) -> List[dict]:
    """Stable multi-key sort (``(column, 'asc'|'desc')`` pairs); NULLs
    sort last in both directions. Returns copies."""
    budget = active_memory_budget()
    if budget is not None and budget.exceeded(len(rows)):
        from repro.supervision.spill import external_sort_rows

        out = external_sort_rows(rows, keys, budget, obs)
        _observe(obs, "sort", len(rows), len(out))
        return out
    out = [dict(r) for r in rows]
    # stable sort by applying keys right-to-left
    for col, direction in reversed(list(keys)):
        descending = direction == "desc"
        out.sort(
            key=lambda r, _c=col, _d=descending: _sort_value(r[_c], _d),
            reverse=descending,
        )
    _observe(obs, "sort", len(rows), len(out))
    return out


# -- joins ---------------------------------------------------------------------


def _side_of(expr: Expr, left: Relation, right: Relation) -> Optional[str]:
    """Which single input every column reference of ``expr`` resolves
    against — 'left', 'right', or None when mixed/unresolvable."""
    sides = set()
    for ref in expr.column_refs():
        resolved = None
        for rel, side in ((left, "left"), (right, "right")):
            if ref.qualifier == rel.name and rel.has_attribute(ref.name):
                resolved = side
                break
            if ref.qualifier is None and rel.has_attribute(ref.name):
                if resolved is not None:
                    return None  # ambiguous unqualified reference
                resolved = side
        if resolved is None:
            return None
        sides.add(resolved)
    if len(sides) == 1:
        return sides.pop()
    return None


def split_equi_condition(
    condition: Expr, left: Relation, right: Relation
) -> Tuple[List[Tuple[Expr, Expr]], List[Expr]]:
    """Decompose a join condition into ``(left expr, right expr)``
    equality pairs and the residual conjuncts."""
    pairs: List[Tuple[Expr, Expr]] = []
    residual: List[Expr] = []
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            lhs_side = _side_of(conjunct.left, left, right)
            rhs_side = _side_of(conjunct.right, left, right)
            if lhs_side == "left" and rhs_side == "right":
                pairs.append((conjunct.left, conjunct.right))
                continue
            if lhs_side == "right" and rhs_side == "left":
                pairs.append((conjunct.right, conjunct.left))
                continue
        residual.append(conjunct)
    return pairs, residual


def hash_key(values: Sequence[object]) -> Optional[tuple]:
    """A hashable join key — the :func:`group_key_value` of each
    component, so ``3`` and ``3.0`` are one key, big integers stay
    apart and ``True`` is not ``1``; ``None`` when any component is
    NULL (never matches under SQL semantics)."""
    key = tuple(map(group_key_value, values))
    return None if None in key else key


def _join_keys(
    rows: Sequence[dict],
    relation_name: str,
    key_fns: Sequence[ValueFn],
    on_error: OnErrorFn,
) -> Tuple[Sequence[dict], List[Optional[tuple]]]:
    """One join input's rows with their :func:`hash_key`. Under an
    active error policy a row whose key expression raises goes to
    ``on_error`` and takes no part in the join (it is not among the
    rows returned)."""
    bind = row_binder(relation_name)
    kept: List[dict] = []
    keys: List[Optional[tuple]] = []
    for index, row in enumerate(rows):
        try:
            key = hash_key([fn(bind(row)) for fn in key_fns])
        except Exception as exc:
            if on_error is None:
                raise
            on_error(index, row, exc)
            continue
        kept.append(row)
        keys.append(key)
    return kept, keys


def hash_join(
    left_rows: Sequence[dict],
    right_rows: Sequence[dict],
    left_relation: Relation,
    right_relation: Relation,
    condition: Expr,
    kind: str,
    merge: Callable[[Optional[dict], Optional[dict]], dict],
    emit: Callable[[dict], None],
    planner,
    obs=None,
    on_error: OnErrorFn = None,
) -> None:
    """Hash join on equi-conjuncts with a nested-loop fallback, calling
    ``emit`` once per output row (matches first, then the outer paddings
    the ``kind`` requires).

    The condition is decomposed into equality conjuncts between the two
    inputs (hashable) and a residual predicate; with at least one
    equi-conjunct the right side is indexed and probing is
    O(|L| + |R| + matches), else the classic nested loop runs. Key and
    residual expressions are lowered once by ``planner`` (an
    :class:`~repro.exec.ExpressionPlanner`), not re-walked per row.

    SQL semantics are preserved exactly: NULL keys never match (they
    are not inserted into, nor probed against, the index).

    ``on_error(index, item, exc)`` — an active skip/reject policy —
    absorbs a data error: in a key expression, the input row (by its
    index in that input), which then joins nothing and pads nothing; in
    the rest of the condition, the merged pair (no index), which then
    does not match."""
    left_name = left_relation.name
    right_name = right_relation.name
    n_in = len(left_rows) + len(right_rows)
    pairs, residual = split_equi_condition(
        condition, left_relation, right_relation
    )

    def env_for(left_row: Optional[dict], right_row: Optional[dict]):
        env = Environment()
        if left_row is not None:
            env.bind(left_name, left_row)
        if right_row is not None:
            env.bind(right_name, right_row)
        env.bind(None, merge(left_row, right_row))
        return env

    def holds(left_row: dict, right_row: dict) -> bool:
        """Whether the pair passes what the keys did not decide."""
        env = env_for(left_row, right_row)
        try:
            for pred in residual_preds:
                if not pred(env):
                    return False
        except Exception as exc:
            if on_error is None:
                raise
            on_error(None, merge(left_row, right_row), exc)
            return False
        return True

    emitted = 0
    if pairs:
        left_rows, left_keys = _join_keys(
            left_rows, left_name,
            [planner.scalar(expr) for expr, _r in pairs], on_error,
        )
        right_rows, right_keys = _join_keys(
            right_rows, right_name,
            [planner.scalar(expr) for _l, expr in pairs], on_error,
        )
        budget = active_memory_budget()
        if (
            budget is not None
            and not residual
            and budget.exceeded(len(right_rows))
        ):
            # build side over budget: grace-partition instead of one index
            from repro.supervision.spill import grace_hash_join

            emitted = grace_hash_join(
                left_rows, right_rows, left_keys, right_keys,
                kind, merge, emit, budget, obs,
            )
            _observe(obs, "join", n_in, emitted)
            return
        residual_preds = [planner.predicate(c) for c in residual]
        index: Dict[tuple, List[int]] = {}
        for i, key in enumerate(right_keys):
            if key is not None:
                index.setdefault(key, []).append(i)
        candidates = (
            index.get(key, ()) if key is not None else () for key in left_keys
        )
    else:
        residual_preds = [planner.predicate(condition)]
        every = range(len(right_rows))
        candidates = (every for _row in left_rows)

    matched_right = [False] * len(right_rows)
    for left_row, indexes in zip(left_rows, candidates):
        matched = False
        for i in indexes:
            right_row = right_rows[i]
            if residual_preds and not holds(left_row, right_row):
                continue
            matched = True
            matched_right[i] = True
            emit(merge(left_row, right_row))
            emitted += 1
        if not matched and kind in ("left", "full"):
            emit(merge(left_row, None))
            emitted += 1

    if kind in ("right", "full"):
        for i, right_row in enumerate(right_rows):
            if not matched_right[i]:
                emit(merge(None, right_row))
                emitted += 1

    _observe(obs, "join", n_in, emitted)


__all__ = [
    "group_key_value",
    "key_encoder",
    "key_columns",
    "key_rows",
    "row_binder",
    "project_rows",
    "route_rows",
    "rows_that_evaluate",
    "switch_rows",
    "group_aggregate_rows",
    "dedup_rows",
    "nest_rows",
    "unnest_rows",
    "union_rows",
    "sort_rows",
    "sort_column",
    "split_equi_condition",
    "hash_key",
    "hash_join",
]

"""Columnar batches: the :class:`RowBlock` container and block kernels.

The row kernels in :mod:`repro.exec.kernels` pay per-row dispatch on
every operator: an environment rebind, a closure call, and a dict build
per row. This module adds the columnar tier ROADMAP calls for — the
same operator semantics, executed over *columns*:

* a :class:`RowBlock` is a dict of column lists plus a length. NULLs are
  in-band ``None`` entries (the same three-valued-logic convention the
  row engines use), so a column *is* its own null mask;
* block kernels consume whole blocks: routing and sorting return
  selection vectors (index lists) the caller's chain narrows by
  (:mod:`repro.exec.fuse` — a filter is routing to one output, and
  projection needs no kernel of its own there), grouped aggregation
  gathers per-column accumulators — or, for FIRST / LAST, picks one
  cell a group, and with only picks keeps one row index a key
  (:func:`group_picks`, which dedup shares) instead of member lists —
  and the hash join indexes row numbers by key (a row a key when one
  side's keys are unique, a row list a key only when both sides repeat
  one) and emits index vectors;
* columns are **immutable by convention**: kernels may alias an input
  column into an output block, and nothing may mutate a column list in
  place. Fresh lists are built wherever rows are reordered or selected.

Operators that stay row-shaped (nest/unnest, a ``Custom`` stage's
body) simply fall back to the row kernels — ``Dataset`` converts lazily
in both directions; an UNKNOWN whose executor returns a ``Dataset``
hands its block over unconverted.

Kernels report ``exec.block.<name>.blocks_in/.blocks_out/.rows_in/
.rows_out`` when given an :class:`~repro.obs.Observability`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress, filterfalse, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExecutionError
from repro.exec.kernels import (
    _sort_value,
    key_columns,
    key_rows,
    sort_column,
    split_equi_condition,
)
from repro.expr.ast import Expr
from repro.schema.model import Relation
from repro.supervision.memory import active_memory_budget

#: A compiled block expression: RowBlock → column (list of values).
BlockFn = Callable[["RowBlock"], List[Any]]


class Fold(NamedTuple):
    """A grouped SUM, COUNT, AVG, MIN or MAX without DISTINCT: the
    aggregate's ``func`` and ``reduce``, its fold over one group's
    gathered values (NULLs included)."""

    func: str
    reduce: Callable[[List[Any]], Any]


#: A grouped aggregate's fold over one group's gathered values, a
#: :class:`Fold`, or the member position a FIRST / LAST picks (0 / -1).
Reducer = Union[Callable[[List[Any]], Any], Fold, int, None]


def _observe_block(
    obs, kernel: str, blocks_in: int, blocks_out: int, rows_in: int, rows_out: int
) -> None:
    if obs is not None and obs.enabled:
        metrics = obs.metrics
        metrics.count(f"exec.block.{kernel}.blocks_in", blocks_in)
        metrics.count(f"exec.block.{kernel}.blocks_out", blocks_out)
        metrics.count(f"exec.block.{kernel}.rows_in", rows_in)
        metrics.count(f"exec.block.{kernel}.rows_out", rows_out)


class RowBlock:
    """A batch of rows stored column-wise.

    ``columns`` maps column name → list of values (``None`` = NULL);
    every list has exactly ``length`` entries. Several names may alias
    the *same* list object (projection rebinding), which is why columns
    are immutable by convention.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, List[Any]], length: int):
        self.columns = columns
        self.length = length

    # -- construction / conversion ----------------------------------------

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[dict]) -> "RowBlock":
        """Columnarize ``rows`` (each must hold every name)."""
        columns = {n: [row[n] for row in rows] for n in names}
        return cls(columns, len(rows))

    def to_rows(self, names: Optional[Sequence[str]] = None) -> List[dict]:
        """Materialize as fresh row dicts, columns ordered by ``names``
        (default: this block's column order)."""
        names = list(self.columns) if names is None else list(names)
        if not names:
            return [{} for _ in range(self.length)]
        cols = [self.columns[n] for n in names]
        return [dict(zip(names, values)) for values in zip(*cols)]

    # -- cheap structural ops ----------------------------------------------

    @property
    def names(self) -> List[str]:
        return list(self.columns)

    def column(self, name: str) -> List[Any]:
        return self.columns[name]

    def take(self, indices: Sequence[int]) -> "RowBlock":
        """Gather the given row positions (a selection vector) into a new
        block — aliased column lists are gathered once and stay aliased."""
        shared: Dict[int, List[Any]] = {}
        columns: Dict[str, List[Any]] = {}
        for name, col in self.columns.items():
            taken = shared.get(id(col))
            if taken is None:
                taken = shared[id(col)] = [col[i] for i in indices]
            columns[name] = taken
        return RowBlock(columns, len(indices))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"RowBlock({len(self.columns)} cols × {self.length} rows)"


# -- selection kernels ---------------------------------------------------------


def route_block(
    block: RowBlock,
    specs: Sequence[Tuple[str, Optional[BlockFn]]],
    only_once: bool = False,
    obs=None,
) -> List[List[int]]:
    """Multi-output routing over a block: one selection vector per output.

    Mirrors :func:`repro.exec.kernels.route_rows` — ``specs`` are
    ``(kind, predicate)`` with kinds ``"always"`` / ``"pred"`` /
    ``"fallback"``; with ``only_once`` a row stops being considered by
    later predicate outputs after its first match. Which rows matched is
    tracked only when something reads it (``only_once`` or a
    ``"fallback"`` output): a plain filter is one mask sweep."""
    n = block.length
    kinds = [kind for kind, _ in specs]
    every = list(range(n)) if "always" in kinds else []
    fallback = "pred" in kinds and "fallback" in kinds
    matched = [False] * n if only_once or fallback else []
    outputs: List[List[int]] = []
    for kind, predicate in specs:
        if kind == "always":
            outputs.append(every)
        elif kind == "pred":
            mask = predicate(block)
            if only_once:
                selected = [
                    i for i, flag in enumerate(mask) if flag and not matched[i]
                ]
            else:
                selected = [i for i, flag in enumerate(mask) if flag]
            if matched:
                for i in selected:
                    matched[i] = True
            outputs.append(selected)
        else:  # fallback
            outputs.append([])
    if fallback:
        unmatched = [i for i, hit in enumerate(matched) if not hit]
        for spec_index, kind in enumerate(kinds):
            if kind == "fallback":
                outputs[spec_index] = list(unmatched)
    _observe_block(
        obs, "route", 1, len(outputs), n, sum(len(o) for o in outputs)
    )
    return outputs


def switch_block(
    block: RowBlock,
    selector: BlockFn,
    cases: Sequence[Any],
    has_default: bool,
    obs=None,
) -> List[List[int]]:
    """Selector routing over a block: one selection vector per case (plus
    the trailing default when configured); first matching case wins."""
    values = selector(block)
    n_outputs = len(cases) + (1 if has_default else 0)
    outputs: List[List[int]] = [[] for _ in range(n_outputs)]
    for i, value in enumerate(values):
        for case_index, case in enumerate(cases):
            if value == case:
                outputs[case_index].append(i)
                break
        else:
            if has_default:
                outputs[-1].append(i)
    _observe_block(
        obs, "switch", 1, n_outputs, block.length, sum(len(o) for o in outputs)
    )
    return outputs


# -- grouping kernels ----------------------------------------------------------


def _row_keys(cols: Sequence[List[Any]], length: int) -> Iterable[Any]:
    """One hashable key a row over the columns ``cols``, encoded by
    :func:`~repro.exec.kernels.key_columns`: the cell itself for a
    single column (no 1-tuple per row), a tuple for several, ``()`` for
    none (a global aggregate groups by nothing)."""
    cols = key_columns(cols)
    if len(cols) == 1:
        return cols[0]
    return key_rows(cols, length)


def _group_indices(
    block: RowBlock, key_names: Sequence[str]
) -> List[List[int]]:
    """Row-index groups by key columns, first-seen order."""
    groups: Dict[Any, List[int]] = defaultdict(list)
    keys = _row_keys([block.columns[k] for k in key_names], block.length)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return list(groups.values())


def group_picks(
    block: RowBlock, key_names: Sequence[str], pick: int
) -> List[int]:
    """One row index per group, in first-seen group order: each key's
    first row (``pick`` 0) or last row (``pick`` -1). No member list is
    built — what a dedup and a GROUP of only FIRST/LAST aggregates
    need. A dict keeps a key where it was first inserted, so
    overwriting for the last row keeps first-seen order."""
    chosen: Dict[Any, int] = {}
    keys = _row_keys([block.columns[k] for k in key_names], block.length)
    if pick == 0:
        for i, key in enumerate(keys):
            chosen.setdefault(key, i)
    else:
        for i, key in enumerate(keys):
            chosen[key] = i
    return list(chosen.values())


#: the builtin a :class:`Fold` reduces a NULL-free group with
_BUILTIN_FOLDS = {"SUM": sum, "MIN": min, "MAX": max}


def fold_groups(
    values: List[Any], groups: Sequence[List[int]], reducer: Reducer
) -> List[Any]:
    """One aggregate's cell a group: ``reducer`` over the cells of
    ``values`` (the argument column) at each group's member indices.
    A ``None`` reducer is ``COUNT(*)``, the group's size; a FIRST / LAST
    pick reads one cell. A :class:`Fold` over a column with no NULL (one
    C scan proves it) reduces each group with the builtin over its cells
    as they stand — the values, in the order, that ``reduce`` sees once
    it has stripped the NULLs there are none of, so the result is
    bit-identical and no list is built a group. Otherwise each group's
    cells are gathered into a list and reduced."""
    if reducer is None:
        return [len(members) for members in groups]
    if isinstance(reducer, int):
        return [values[members[reducer]] for members in groups]
    if isinstance(reducer, Fold):
        if None not in values:
            get = values.__getitem__
            func = reducer.func
            if func == "COUNT":
                return [len(members) for members in groups]
            if func == "AVG":
                return [sum(map(get, members)) / len(members) for members in groups]
            builtin = _BUILTIN_FOLDS[func]
            return [builtin(map(get, members)) for members in groups]
        reducer = reducer.reduce
    return [reducer([values[i] for i in members]) for members in groups]


def group_aggregate_block(
    block: RowBlock,
    key_names: Sequence[str],
    aggregates: Sequence[Tuple[str, Optional[BlockFn], Reducer]],
    obs=None,
) -> RowBlock:
    """Grouped aggregation over columns: rows are partitioned by encoded
    key columns (NULL keys equal, ``1 == 1.0``), each aggregate argument
    is evaluated *once* as a whole column, then gathered per group and
    reduced. ``aggregates`` are ``(name, values_fn, reducer)`` — a
    ``(name, None, None)`` entry is ``COUNT(*)`` (the group size), an
    ``int`` reducer is a FIRST / LAST pick (0 / -1): the group's cell at
    that member position, and a :class:`Fold` folds without a value
    list a group when its column holds no NULL (:func:`fold_groups`).
    When every aggregate is a pick, no member list is built:
    :func:`group_picks` finds one row a group per distinct pick.

    Above an active memory budget the group states are
    grace-partitioned to temp-file runs instead
    (:func:`repro.supervision.spill.external_group_aggregate_block` —
    bit-identical output, ``exec.spill.*`` metrics)."""
    run_budget = active_memory_budget()
    if run_budget is not None and run_budget.exceeded(block.length):
        from repro.supervision.spill import external_group_aggregate_block

        out = external_group_aggregate_block(
            block, key_names, aggregates, run_budget, obs
        )
        _observe_block(obs, "group_aggregate", 1, 1, block.length, out.length)
        return out
    columns: Dict[str, List[Any]] = {}
    picks = {reducer for _n, _f, reducer in aggregates}
    if all(isinstance(pick, int) for pick in picks):
        # the key cells are each group's first row's, as on the member
        # path (``1`` and ``1.0`` share a group but not a cell)
        rows = {pick: group_picks(block, key_names, pick) for pick in picks | {0}}
        firsts = rows[0]
        for k in key_names:
            col = block.columns[k]
            columns[k] = [col[i] for i in firsts]
        for name, values_fn, pick in aggregates:
            values = values_fn(block)
            columns[name] = [values[i] for i in rows[pick]]
        length = len(firsts)
    else:
        groups = _group_indices(block, key_names)
        for k in key_names:
            col = block.columns[k]
            columns[k] = [col[members[0]] for members in groups]
        for name, values_fn, reducer in aggregates:
            values = [] if values_fn is None else values_fn(block)
            columns[name] = fold_groups(values, groups, reducer)
        length = len(groups)
    out = RowBlock(columns, length)
    _observe_block(obs, "group_aggregate", 1, 1, block.length, out.length)
    return out


# -- set kernels ---------------------------------------------------------------


def union_block(
    blocks: Sequence[RowBlock],
    names: Sequence[str],
    distinct: bool = False,
    obs=None,
) -> RowBlock:
    """Bag union projected onto ``names``; ``distinct`` keeps the first
    occurrence of each row (NULLs equal)."""
    columns: Dict[str, List[Any]] = {n: [] for n in names}
    for block in blocks:
        for n in names:
            columns[n].extend(block.columns[n])
    length = sum(block.length for block in blocks)
    out = RowBlock(columns, length)
    total_in = length
    if distinct:
        first: Dict[tuple, int] = {}
        keys = zip(*key_columns([out.columns[n] for n in names]))
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        out = out.take(list(first.values()))
    _observe_block(obs, "union", len(blocks), 1, total_in, out.length)
    return out


# -- sorting -------------------------------------------------------------------


def sort_permutation(
    block: RowBlock,
    keys: Sequence[Tuple[str, str]],
    obs=None,
) -> List[int]:
    """The row order of a stable multi-key sort of ``block`` (which need
    hold only the key columns), as indices: repeated stable index sorts
    right-to-left, exactly the row kernel's strategy, so the
    permutation is identical. The caller narrows its chain by it, and
    the chain books the sort as one more fused operator.

    Above an active memory budget the sort buffer is spilled instead:
    the same permutation is computed by external merge over
    budget-sized runs (:func:`repro.supervision.spill.
    external_sort_indices`)."""
    run_budget = active_memory_budget()
    if run_budget is not None and run_budget.exceeded(block.length):
        from repro.supervision.spill import (
            _Reversed,
            external_sort_indices,
        )

        specs = [
            (block.columns[col_name], direction == "desc")
            for col_name, direction in keys
        ]

        def key_of(i: int) -> tuple:
            return tuple(
                _Reversed(_sort_value(col[i], True))
                if descending
                else _sort_value(col[i], False)
                for col, descending in specs
            )

        indices = external_sort_indices(block.length, key_of, run_budget, obs)
    else:
        indices = list(range(block.length))
        for col_name, direction in reversed(list(keys)):
            descending = direction == "desc"
            decorated = sort_column(block.columns[col_name], descending)
            indices.sort(key=decorated.__getitem__, reverse=descending)
    return indices


# -- joins ---------------------------------------------------------------------


def hash_join_block(
    left: RowBlock,
    right: RowBlock,
    left_relation: Relation,
    right_relation: Relation,
    condition: Expr,
    kind: str,
    plan: Sequence[Tuple[str, str, str]],
    planner,
    obs=None,
) -> Optional[RowBlock]:
    """Hash join over key columns, or ``None`` when the condition needs
    the row path (no equi-conjuncts, residual conjuncts, or a key
    expression the block compiler cannot lower).

    Both sides hash the :func:`_row_keys` of their key columns — a
    single key column's cells as they stand, tuples only for two or
    more — into paired index vectors (``-1`` = outer padding). The
    smaller side's keys are tested for uniqueness first, then the other
    side's, each side once; a unique side's ``key → row`` dict is the
    index (:func:`_pairs_unique_build`, :func:`_pairs_unique_probe`),
    and only when both sides repeat a key is a row list built per build
    key (:func:`_pairs_by_lists`). A NULL key never matches: the
    indexed side's NULL keys are dropped once, when its column holds
    one. Output columns are gathered straight from the ``(output name,
    side, source column)`` plan, with a per-cell padding test only for
    an index vector that holds a ``-1``. Every path emits the row
    kernel's order: matches in probe order (build order within a probe
    row) with left paddings inline, right paddings last."""
    pairs, residual = split_equi_condition(
        condition, left_relation, right_relation
    )
    if not pairs or residual:
        return None
    run_budget = active_memory_budget()
    if run_budget is not None and run_budget.exceeded(right.length):
        # build side over budget: decline, so the caller's row path runs
        # and its hash join grace-partitions to temp-file runs
        return None
    left_resolve = relation_resolver(left_relation.name, left.columns)
    right_resolve = relation_resolver(right_relation.name, right.columns)
    left_key_fns = [planner.block_scalar(l, left_resolve) for l, _r in pairs]
    right_key_fns = [planner.block_scalar(r, right_resolve) for _l, r in pairs]
    if any(fn is None for fn in left_key_fns + right_key_fns):
        return None

    build_cols = [fn(right) for fn in right_key_fns]
    probe_cols = [fn(left) for fn in left_key_fns]
    build_keys = _key_list(build_cols, right.length)
    probe_keys = _key_list(probe_cols, left.length)
    build_nulls = any(None in col for col in build_cols)
    probe_nulls = any(None in col for col in probe_cols)
    single = len(pairs) == 1
    # the smaller side first: a side that fails the test built its dict
    # for nothing, and no side is tested twice
    tests = [(True, build_keys, build_nulls), (False, probe_keys, probe_nulls)]
    if left.length < right.length:
        tests.reverse()
    for build_unique, keys, nulls in tests:
        unique = _unique_index(keys, nulls, single)
        if unique is not None:
            break
    if unique is None:
        left_idx, right_idx = _pairs_by_lists(
            build_keys, build_nulls, single, probe_keys, kind
        )
    elif build_unique:
        left_idx, right_idx = _pairs_unique_build(
            unique, probe_keys, right.length, kind
        )
    else:
        left_idx, right_idx = _pairs_unique_probe(
            unique, build_keys, left.length, kind
        )

    sides = {
        "left": (left.columns, left_idx, -1 in left_idx),
        "right": (right.columns, right_idx, -1 in right_idx),
    }
    columns: Dict[str, List[Any]] = {}
    for out_name, side, source in plan:
        src_cols, src_idx, padded = sides[side]
        col = src_cols[source]
        if padded:
            columns[out_name] = [None if i < 0 else col[i] for i in src_idx]
        else:
            columns[out_name] = list(map(col.__getitem__, src_idx))
    out = RowBlock(columns, len(left_idx))
    _observe_block(obs, "join", 2, 1, left.length + right.length, out.length)
    return out


def _key_list(cols: Sequence[List[Any]], length: int) -> List[Any]:
    """The join keys of one side as a list (a side may be read twice):
    the key column itself for one column, tuples for several."""
    keys = _row_keys(cols, length)
    return keys if len(cols) == 1 else list(keys)


def _drop_null_keys(index: Dict[Any, Any], single: bool) -> None:
    """Unindex every key with a NULL component: it matches nothing, so
    a key with a NULL on the other side misses too."""
    if single:
        index.pop(None, None)
        return
    for key in [k for k in index if None in k]:
        del index[key]


def _unique_index(
    keys: List[Any], nulls: bool, single: bool
) -> Optional[Dict[Any, int]]:
    """key → row of a side whose keys are pairwise distinct (one C pass),
    NULL keys unindexed; ``None`` when a key repeats, the dict released."""
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        return None
    if nulls:
        _drop_null_keys(index, single)
    return index


def _pairs_unique_build(
    index: Dict[Any, int], probe_keys: List[Any], n_build: int, kind: str
) -> Tuple[List[int], List[int]]:
    """Index vectors when each build key names one row: a ``dict.get``
    per probe key, ``compress`` for an inner or right join, the ``-1``
    misses kept as left paddings otherwise; right paddings last."""
    hits = list(map(index.get, probe_keys, repeat(-1)))
    if kind in ("left", "full"):
        left_idx = list(range(len(probe_keys)))
        right_idx = hits
    else:
        found = list(map((-1).__ne__, hits))
        left_idx = list(compress(range(len(probe_keys)), found))
        right_idx = list(compress(hits, found))
    if kind in ("right", "full"):
        unmatched = list(filterfalse(set(hits).__contains__, range(n_build)))
        left_idx += [-1] * len(unmatched)
        right_idx += unmatched
    return left_idx, right_idx


def _pairs_unique_probe(
    index: Dict[Any, int], build_keys: List[Any], n_probe: int, kind: str
) -> Tuple[List[int], List[int]]:
    """Index vectors when each probe key names one row: each build row
    is mapped to its probe row and the hits are stable-sorted by it —
    matches in probe order, build order within a probe row, as the
    list-per-key loop emits them. Unmatched probe rows are sorted in as
    left paddings (each is its own sort key); right paddings last."""
    owner = list(map(index.get, build_keys, repeat(-1)))
    right_idx = list(compress(range(len(owner)), map((-1).__ne__, owner)))
    right_idx.sort(key=owner.__getitem__)
    left_idx = list(map(owner.__getitem__, right_idx))
    if kind in ("left", "full"):
        lone = list(filterfalse(set(left_idx).__contains__, range(n_probe)))
        if lone:
            left_idx += lone
            right_idx += [-1] * len(lone)
            order = sorted(range(len(left_idx)), key=left_idx.__getitem__)
            left_idx = list(map(left_idx.__getitem__, order))
            right_idx = list(map(right_idx.__getitem__, order))
    if kind in ("right", "full"):
        unmatched = list(compress(range(len(owner)), map((-1).__eq__, owner)))
        left_idx += [-1] * len(unmatched)
        right_idx += unmatched
    return left_idx, right_idx


def _pairs_by_lists(
    build_keys: List[Any],
    build_nulls: bool,
    single: bool,
    probe_keys: List[Any],
    kind: str,
) -> Tuple[List[int], List[int]]:
    """Index vectors when a key repeats on both sides: one row list per
    build key, probed row by row."""
    index: Dict[Any, List[int]] = defaultdict(list)
    for j, key in enumerate(build_keys):
        index[key].append(j)
    if build_nulls:
        _drop_null_keys(index, single)
    pad_left = kind in ("left", "full")
    matched_right = (
        [False] * len(build_keys) if kind in ("right", "full") else None
    )
    left_idx: List[int] = []
    right_idx: List[int] = []
    for i, key in enumerate(probe_keys):
        hits = index.get(key)
        if hits:
            left_idx += [i] * len(hits)
            right_idx += hits
            if matched_right is not None:
                for j in hits:
                    matched_right[j] = True
        elif pad_left:
            left_idx.append(i)
            right_idx.append(-1)
    if matched_right is not None:
        for j, was_matched in enumerate(matched_right):
            if not was_matched:
                left_idx.append(-1)
                right_idx.append(j)
    return left_idx, right_idx


def lookup_block(
    stream: RowBlock,
    reference: RowBlock,
    key_pairs: Sequence[Tuple[str, str]],
    returned: Sequence[str],
    on_failure: str,
    label: str = "",
    obs=None,
) -> RowBlock:
    """Key lookup enriching a stream from a reference (first reference
    match wins). Keys are the *raw* cells, not
    :func:`~repro.exec.kernels.key_columns` keys: the row-path Lookup
    stage indexes a plain dict, where ``True`` finds ``1`` and NULL
    matches NULL, and ``key_columns`` would keep the first pair apart —
    raw tuples are what makes the two paths agree. ``on_failure``:
    ``continue`` null-fills, ``drop`` discards, ``fail`` raises on the
    first unmatched stream row."""
    index: Dict[tuple, int] = {}
    for j, key in enumerate(zip(*[reference.columns[r] for _s, r in key_pairs])):
        index.setdefault(key, j)
    kept: List[int] = []
    hits: List[int] = []
    for i, key in enumerate(zip(*[stream.columns[s] for s, _r in key_pairs])):
        j = index.get(key, -1)
        if j < 0:
            if on_failure == "drop":
                continue
            if on_failure == "fail":
                raise ExecutionError(f"Lookup {label!r} failed for key {key!r}")
        kept.append(i)
        hits.append(j)
    taken = stream.take(kept)
    columns = dict(taken.columns)
    for name in returned:
        col = reference.columns[name]
        columns[name] = [None if j < 0 else col[j] for j in hits]
    out = RowBlock(columns, taken.length)
    _observe_block(
        obs, "lookup", 2, 1, stream.length + reference.length, out.length
    )
    return out


# -- name resolution -----------------------------------------------------------


def relation_resolver(
    relation_name: Optional[str], columns: Iterable[str]
) -> Callable:
    """Column-reference resolver for the common case where the block's
    columns are both the anonymous row and the ``relation_name``-bound
    row (how :func:`repro.exec.kernels.row_binder` binds). Mirrors
    :meth:`repro.expr.evaluator.Environment.lookup`: qualified misses
    fall through to the dotted anonymous column (join outputs keep
    ``edge.column`` names), then to the plain name. Returns the column
    key, or ``None`` when the row path must resolve (and possibly raise
    its own unbound/ambiguous error)."""
    names = set(columns)

    def resolve(ref):
        name = ref.name
        qualifier = ref.qualifier
        if qualifier is None:
            return name if name in names else None
        if qualifier == relation_name and name in names:
            return name
        dotted = f"{qualifier}.{name}"
        if dotted in names:
            return dotted
        if name in names:
            return name
        return None

    return resolve


__all__ = [
    "BlockFn",
    "RowBlock",
    "route_block",
    "switch_block",
    "group_picks",
    "group_aggregate_block",
    "union_block",
    "sort_permutation",
    "hash_join_block",
    "lookup_block",
    "relation_resolver",
]

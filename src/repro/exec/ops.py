"""repro.exec.ops — the operators stages and OHM both run, written once.

JOIN, GROUP, UNION, SPLIT and target delivery have a DataStage stage
(``JoinStage``, ``AggregatorStage``, ``FunnelStage``, ``CopyStage``,
``TableTarget``) and an OHM operator each, and one semantics. The
callers differ only in what they hand in — a Join stage plans its
columns with ``merged_columns``, the JOIN operator with
``Join.joined_attributes`` — so each function here takes that as
arguments, picks the columnar or the row body once from the planner,
and never asks who called.

A leaf next to the kernels: it imports neither the runtimes nor
:mod:`repro.exec.run` (which needs :mod:`repro.resilience`, whose
checkpoint codec imports the stages that import this module).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.dataset import Dataset, Row
from repro.errors import SchemaError
from repro.exec import ExpressionPlanner, block, fuse, kernels
from repro.exec.block import BlockFn, RowBlock, relation_resolver
from repro.expr.ast import AggregateCall, Expr
from repro.schema.model import Relation

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.resilience import ErrorContext


def join(
    left: Dataset,
    right: Dataset,
    condition: Expr,
    kind: str,
    plan: Sequence[Tuple[str, str, str]],
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
    on_error: Optional[Callable[..., None]] = None,
) -> Dataset:
    """``left`` ⋈ ``right`` on ``condition`` (``kind``: inner / left /
    right / full), columns laid out by ``plan``: ``(output name, side,
    source column)`` with side ``"left"`` or ``"right"``. Batched, the hash join
    runs over key columns — a chain breaker: both sides are gathered —
    unless the condition needs the row kernel (no equi-conjunct, a
    residual, a build side over the memory budget), where ``on_error``
    absorbs a row's expression error."""
    if planner.batched:
        joined = block.hash_join_block(
            left.as_block(),
            right.as_block(),
            left.relation,
            right.relation,
            condition,
            kind,
            plan,
            planner,
            obs=obs,
        )
        if joined is not None:
            return planner.materialize_block(out, joined)

    def merge(left_row: Optional[Row], right_row: Optional[Row]) -> Row:
        merged: Row = {}
        for out_name, side, source in plan:
            row = left_row if side == "left" else right_row
            merged[out_name] = None if row is None else row[source]
        return merged

    rows: List[Row] = []
    kernels.hash_join(
        left.rows,
        right.rows,
        left.relation,
        right.relation,
        condition,
        kind,
        merge,
        rows.append,
        planner,
        obs=obs,
        on_error=on_error,
    )
    return planner.materialize(out, rows, fresh=True)


def group(
    data: Dataset,
    keys: Sequence[str],
    aggregates: Sequence[Tuple[str, AggregateCall]],
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> Dataset:
    """One row per distinct ``keys`` value (NULL keys equal) carrying
    the ``(output name, aggregate)`` pairs. Batched, a chain terminal:
    the aggregates fold over a read-set view of the chain (group keys
    plus the columns their arguments touch), so a fused chain's
    intermediate block never materializes. Aggregate
    members are bound anonymously on the row path, so the resolver
    carries no relation qualifier. Any argument the block compiler
    cannot lower sends the whole operator to the row kernel."""
    chain = planner.fused_chain(data, obs)
    if chain is not None:
        resolve = relation_resolver(None, chain.handles)
        lowered: List[Tuple[str, Optional[BlockFn], Optional[Callable[..., Any]]]] = []
        args: List[Expr] = []
        for name, agg in aggregates:
            lowering = planner.block_aggregate(agg, resolve, chain=True)
            if lowering is None:
                break
            lowered.append((name, lowering[0], lowering[1]))
            if agg.arg is not None:
                args.append(agg.arg)
        else:
            reads = fuse.read_set(args, resolve)
            view = chain.view(
                None if reads is None else list(dict.fromkeys([*keys, *reads]))
            )
            grouped = block.group_aggregate_block(view, keys, lowered, obs=obs)
            fuse.fused_op(chain, chain.length)
            return planner.materialize_block(out, grouped)
    rows = kernels.group_aggregate_rows(
        data.rows,
        keys,
        [(name, planner.aggregate(agg)) for name, agg in aggregates],
        obs=obs,
    )
    return planner.materialize(out, rows, fresh=True)


def union(
    inputs: Sequence[Dataset],
    out: Relation,
    distinct: bool,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> Dataset:
    """Bag union of ``inputs`` projected onto ``out``'s columns;
    ``distinct`` keeps the first occurrence of each row (NULLs equal).
    A chain breaker: batched, every input is gathered."""
    names = out.attribute_names
    if planner.batched:
        merged = block.union_block(
            [data.as_block() for data in inputs],
            names,
            distinct=distinct,
            obs=obs,
        )
        return planner.materialize_block(out, merged)
    rows = kernels.union_rows(
        [data.rows for data in inputs], names, distinct=distinct, obs=obs
    )
    return planner.materialize(out, rows, fresh=True)


def fan_out(
    data: Dataset,
    outs: Sequence[Relation],
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> List[Dataset]:
    """``data`` copied to each relation of ``outs``, each keeping the
    columns it names. Batched, handle renames only — every output keeps
    chaining on the shared selection, and columns alias."""
    chain = planner.fused_chain(data, obs)
    if chain is not None:
        copies = [
            planner.materialize_fused(
                out, chain.project([(n, n) for n in out.attribute_names])
            )
            for out in outs
        ]
        fuse.fused_op(chain)
        return copies
    results: List[Dataset] = []
    for out in outs:
        names = out.attribute_names
        results.append(
            planner.materialize(
                out, [{n: row[n] for n in names} for row in data], fresh=True
            )
        )
    return results


def deliver(
    data: Dataset,
    relation: Relation,
    trusted: bool,
    errors: Optional[ErrorContext] = None,
) -> Dataset:
    """``data`` as the target ``relation`` receives it: the relation's
    columns, one the data lacks read as NULL.

    ``trusted`` (a compiled run: upstream kernels already shaped the
    values) skips the per-row type re-validation and delivers straight
    from the data's backing — a fused chain's terminal gather touches
    only the target's columns, a block aliases them, rows are adopted.
    The checked path is what the interpreting oracle runs. An active
    error policy forces it: a skip/reject policy at a target means the
    caller cares about bad rows, so they are validated even in compiled
    mode and land on the policy's channel instead of aborting the
    delivery."""
    names = relation.attribute_names
    if trusted and not (errors is not None and errors.handling):
        chain = data.peek_fused()
        if chain is not None:
            return Dataset.adopt_block(
                relation, fuse.materialize_fused(chain, names, fill_missing=True)
            )
        blk = data.peek_block()
        if blk is not None:
            columns: Dict[str, List[object]] = {
                n: blk.columns[n] if n in blk.columns else [None] * blk.length
                for n in names
            }
            return Dataset.adopt_block(relation, RowBlock(columns, blk.length))
        return Dataset.adopt(
            relation, [{n: row.get(n) for n in names} for row in data]
        )
    result = Dataset(relation)
    for index, row in enumerate(data):
        try:
            result.append({n: row.get(n) for n in names})
        except SchemaError as exc:
            if errors is None or not errors.handling:
                raise
            errors.record(index, dict(row), exc)
    return result


__all__ = ["deliver", "fan_out", "group", "join", "union"]

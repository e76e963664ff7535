"""repro.exec.ops — the operators stages and OHM both run, written once.

FILTER, PROJECT, JOIN, GROUP, UNION, SPLIT, NEST, UNNEST and target
delivery have a DataStage stage (``FilterStage``, the ``Transformer``'s
derivations, ``JoinStage``, ``AggregatorStage``, ``FunnelStage``,
``CopyStage``, ``CombineRecords``, ``PromoteSubrecord``,
``TableTarget``) and an OHM operator each, and one semantics. The
callers differ only in what they hand in — a Join stage plans its
columns with ``merged_columns``, the JOIN operator with
``Join.joined_attributes``; a Filter stage routes to several outputs,
the FILTER operator to one — so each function here takes that as
arguments, picks the columnar or the row body once from the planner,
and never asks who called. :func:`columnar_or_rows` is the one fallback
at run time: a columnar body that fails reruns on its own row body.

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
    TypeVar,
)

from repro.data.dataset import Dataset, Row
from repro.errors import INFRASTRUCTURE_ERRORS, STATIC_ERRORS, RunCancelled, SchemaError
from repro.exec import ExpressionPlanner, block, fuse, kernels
from repro.exec.block import BlockFn, RowBlock, relation_resolver
from repro.expr.ast import AggregateCall, ColumnRef, Expr
from repro.schema.model import Relation

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.resilience import ErrorContext

T = TypeVar("T")

#: failures a rerun cannot change: a plan defect fails identically on
#: both bodies, and a cancellation is not a failure of the body
_NEVER_RERUN = (*STATIC_ERRORS, RunCancelled)

#: what a rerun books when the columnar body's failure was its own, not
#: a bad row's (``docs/observability.md``)
FALLBACK_COUNTER = "exec.degrade.columnar_to_rows"


def columnar_or_rows(
    columnar: Callable[[], Optional[T]],
    rows: Callable[[], T],
    errors: Optional[ErrorContext],
    obs: Optional[Observability],
) -> T:
    """An operator's columnar body, else its row body at the same
    planner. ``columnar()`` returns ``None`` when it cannot run (the
    planner is the oracle, or an expression does not lower).

    A columnar body that raises reruns once on the row body, under any
    policy: the row body shares no column lowering with it, and its
    policy takes exactly the bad rows (a division by zero fails a whole
    column kernel, but one row of the row body). Whatever the row body
    raises is the operator's error. A plan defect or a cancellation is
    never rerun. The rerun books :data:`FALLBACK_COUNTER` unless a bad
    row explains it — the row body raised or took a row — so a bad row
    books nothing, and an injected fault the row body recovers from
    always books."""
    try:
        result = columnar()
    except _NEVER_RERUN:
        raise
    except Exception as exc:  # any columnar failure; the row body words or absorbs it
        taken = 0 if errors is None else errors.recorded
        result = rows()
        clean = errors is None or errors.recorded == taken
        if obs is not None and (clean or isinstance(exc, INFRASTRUCTURE_ERRORS)):
            obs.metrics.count(FALLBACK_COUNTER)
        return result
    return rows() if result is None else result


def _on_error(errors: Optional[ErrorContext]) -> kernels.OnErrorFn:
    return errors.kernel_handler() if errors is not None else None


def route(
    data: Dataset,
    outputs: Sequence[Tuple[Optional[Expr], Optional[Sequence[Tuple[str, str]]]]],
    out_relations: Sequence[Relation],
    only_once: bool,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
    errors: Optional[ErrorContext] = None,
) -> List[Dataset]:
    """``data`` routed to zero, one or several ``outputs`` (the paper's
    Figure 6 Filter; a FILTER operator is one output), each a predicate
    and an optional ``(output name, input name)`` projection. A row
    reaches every output whose predicate holds — with ``only_once``,
    only the first — and a reject output (last, predicate ``None``)
    receives the rows no predicate took, or every row when no output has
    a predicate.

    Batched, the predicates evaluate over a read-set view of the chain
    and each output *narrows* its selection vector; all or nothing per
    operator. On the row body under the ``reject`` policy, a row whose
    predicate errors lands on the reject output when there is one — as
    unroutable as a row that matches nothing — and is counted as
    redirected."""
    has_predicates = any(where is not None for where, _ in outputs)
    reject_kind = "fallback" if has_predicates else "always"

    def columnar() -> Optional[List[Dataset]]:
        chain = planner.fused_chain(data, obs)
        if chain is None:
            return None
        resolve = relation_resolver(data.relation.name, chain.handles)
        specs: List[Tuple[str, Optional[BlockFn]]] = []
        for where, _columns in outputs:
            if where is None:
                specs.append((reject_kind, None))
                continue
            predicate = planner.block_predicate(where, resolve)
            if predicate is None:
                return None
            specs.append(("pred", predicate))
        reads = fuse.read_set([w for w, _ in outputs if w is not None], resolve)
        routed = block.route_block(
            chain.view(reads), specs, only_once=only_once, obs=obs
        )
        fuse.fused_op(chain, sum(map(len, routed)))
        results: List[Dataset] = []
        for (_where, columns), indices, rel in zip(outputs, routed, out_relations):
            child = chain.narrow(indices)
            if columns is not None:
                child = child.project(columns)
            results.append(Dataset.adopt_fused(rel, child))
        return results

    def rows() -> List[Dataset]:
        specs: List[Tuple[str, Optional[kernels.PredicateFn]]] = [
            (reject_kind, None) if where is None
            else ("pred", planner.predicate(where))
            for where, _columns in outputs
        ]
        on_error = _on_error(errors)
        redirects: List[Row] = []
        if errors is not None and errors.policy == "reject" and outputs[-1][0] is None:

            def redirect(_index: int, item: Row, exc: BaseException) -> None:
                if isinstance(exc, INFRASTRUCTURE_ERRORS):
                    raise exc
                redirects.append(item)

            on_error = redirect
        routed = kernels.route_rows(
            data.rows,
            specs,
            kernels.row_binder(data.relation.name),
            only_once=only_once,
            obs=obs,
            on_error=on_error,
        )
        if redirects and errors is not None:
            routed[-1].extend(redirects)
            errors.redirected += len(redirects)
        return [
            planner.materialize(
                rel,
                [
                    dict(row) if columns is None
                    else {out: row[source] for out, source in columns}
                    for row in selected
                ],
                fresh=True,
            )
            for (_where, columns), selected, rel in zip(outputs, routed, out_relations)
        ]

    return columnar_or_rows(columnar, rows, errors, obs)


def lower_projection(
    derivations: Sequence[Tuple[str, Expr]],
    resolve: Callable,
    planner: ExpressionPlanner,
) -> Optional[Callable[[fuse.FusedBlock], fuse.FusedBlock]]:
    """``derivations`` lowered for a chain under ``resolve``: a function
    from a chain to the chain carrying exactly the derived columns, or
    ``None`` when any derivation needs the row path (all or nothing).
    A pass-through column reference renames its handle (no gather); the
    computed columns evaluate eagerly, over one read-set view of the
    selection the function is given."""
    lowered: List[Tuple[str, Optional[Expr], Any]] = []
    for name, expr in derivations:
        if isinstance(expr, ColumnRef):
            key = resolve(expr)
            if key is not None:
                lowered.append((name, None, key))
                continue
        fn = planner.block_scalar(expr, resolve)
        if fn is None:
            return None
        lowered.append((name, expr, fn))
    computed = [expr for _name, expr, _fn in lowered if expr is not None]
    reads = fuse.read_set(computed, resolve)

    def project(chain: fuse.FusedBlock) -> fuse.FusedBlock:
        view = chain.view(reads) if computed else None
        return chain.derive(
            {
                name: chain.handles[fn] if expr is None else fn(view)
                for name, expr, fn in lowered
            }
        )

    return project


def derive(
    data: Dataset,
    derivations: Sequence[Tuple[str, Expr]],
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
    errors: Optional[ErrorContext] = None,
) -> Dataset:
    """One ``(output name, expression)`` column each per row of
    ``data`` (generalized projection). Batched, a handle rebinding on
    the chain (:func:`lower_projection`)."""

    def columnar() -> Optional[Dataset]:
        chain = planner.fused_chain(data, obs)
        if chain is None:
            return None
        resolve = relation_resolver(data.relation.name, chain.handles)
        project = lower_projection(derivations, resolve, planner)
        if project is None:
            return None
        fuse.fused_op(chain, chain.length)
        return Dataset.adopt_fused(out, project(chain))

    def rows() -> Dataset:
        projected = kernels.project_rows(
            data.rows,
            [(name, planner.scalar(expr)) for name, expr in derivations],
            kernels.row_binder(data.relation.name),
            obs=obs,
            on_error=_on_error(errors),
        )
        return planner.materialize(out, projected, fresh=True)

    return columnar_or_rows(columnar, rows, errors, obs)


def nest(
    data: Dataset,
    keys: Sequence[str],
    nested: Sequence[str],
    into: str,
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> Dataset:
    """NF² NEST: one row per distinct ``keys`` value, the ``nested``
    columns of its rows packed into the set-valued ``into``. Row-shaped
    at every tier: a chain breaker."""
    rows = kernels.nest_rows(data.rows, keys, nested, into, obs=obs)
    return planner.materialize(out, rows, fresh=True)


def unnest(
    data: Dataset,
    attr: str,
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> Dataset:
    """NF² UNNEST: one row per element of the set-valued ``attr``, the
    other columns alongside; an empty or NULL set yields no row.
    Row-shaped at every tier: a chain breaker."""
    scalars = [a.name for a in data.relation if a.name != attr]
    rows = kernels.unnest_rows(data.rows, attr, scalars, obs=obs)
    return planner.materialize(out, rows, fresh=True)


def join(
    left: Dataset,
    right: Dataset,
    condition: Expr,
    kind: str,
    plan: Sequence[Tuple[str, str, str]],
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
    errors: Optional[ErrorContext] = None,
) -> Dataset:
    """``left`` ⋈ ``right`` on ``condition`` (``kind``: inner / left /
    right / full), columns laid out by ``plan``: ``(output name, side,
    source column)`` with side ``"left"`` or ``"right"``. Batched, the hash join
    runs over key columns — a chain breaker: both sides are gathered —
    unless the condition needs the row kernel (no equi-conjunct, a
    residual, a build side over the memory budget), where ``errors``'
    policy absorbs a row's expression error."""

    def columnar() -> Optional[Dataset]:
        if not planner.compiled:
            return None
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
        return None if joined is None else planner.materialize_block(out, joined)

    def merge(left_row: Optional[Row], right_row: Optional[Row]) -> Row:
        merged: Row = {}
        for out_name, side, source in plan:
            row = left_row if side == "left" else right_row
            merged[out_name] = None if row is None else row[source]
        return merged

    def rows() -> Dataset:
        joined: List[Row] = []
        kernels.hash_join(
            left.rows,
            right.rows,
            left.relation,
            right.relation,
            condition,
            kind,
            merge,
            joined.append,
            planner,
            obs=obs,
            on_error=_on_error(errors),
        )
        return planner.materialize(out, joined, fresh=True)

    return columnar_or_rows(columnar, rows, errors, obs)


def group(
    data: Dataset,
    keys: Sequence[str],
    aggregates: Sequence[Tuple[str, AggregateCall]],
    out: Relation,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
    errors: Optional[ErrorContext] = None,
) -> Dataset:
    """One row per distinct ``keys`` value (NULL keys equal) carrying
    the ``(output name, aggregate)`` pairs. Batched, a chain terminal:
    the aggregates fold over a read-set view of the chain (group keys
    plus the columns their arguments touch), so a fused chain's
    intermediate block never materializes. Aggregate
    members are bound anonymously on the row path, so the resolver
    carries no relation qualifier. Any argument the block compiler
    cannot lower sends the whole operator to the row kernel.

    Under ``errors``' skip/reject policy the row body first evaluates
    every aggregate argument on every row and hands each row that
    raises to the policy, once; the survivors are grouped. The groups
    are then what they would be had those rows been rejected upstream,
    and a group left with no member emits no row."""
    args = [agg.arg for _name, agg in aggregates if agg.arg is not None]

    def columnar() -> Optional[Dataset]:
        chain = planner.fused_chain(data, obs)
        if chain is None:
            return None
        resolve = relation_resolver(None, chain.handles)
        lowered: List[Tuple[str, Optional[BlockFn], block.Reducer]] = []
        for name, agg in aggregates:
            lowering = planner.block_aggregate(agg, resolve)
            if lowering is None:
                return None
            lowered.append((name, lowering[0], lowering[1]))
        reads = fuse.read_set(args, resolve)
        view = chain.view(
            None if reads is None else list(dict.fromkeys([*keys, *reads]))
        )
        grouped = block.group_aggregate_block(view, keys, lowered, obs=obs)
        fuse.fused_op(chain, chain.length)
        return planner.materialize_block(out, grouped)

    def rows() -> Dataset:
        members = data.rows
        on_error = _on_error(errors)
        if on_error is not None and args:
            members = kernels.rows_that_evaluate(
                members, [planner.scalar(arg) for arg in args],
                kernels.row_binder(None), on_error,
            )
        grouped = kernels.group_aggregate_rows(
            members,
            keys,
            [(name, planner.aggregate(agg)) for name, agg in aggregates],
            obs=obs,
        )
        return planner.materialize(out, grouped, fresh=True)

    return columnar_or_rows(columnar, rows, errors, obs)


def union(
    inputs: Sequence[Dataset],
    out: Relation,
    distinct: bool,
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> Dataset:
    """Bag union of ``inputs`` projected onto ``out``'s columns;
    ``distinct`` keeps the first occurrence of each row (NULLs equal).
    A chain breaker: compiled, every input is gathered."""
    names = out.attribute_names

    def columnar() -> Optional[Dataset]:
        if not planner.compiled:
            return None
        merged = block.union_block(
            [data.as_block() for data in inputs],
            names,
            distinct=distinct,
            obs=obs,
        )
        return planner.materialize_block(out, merged)

    def rows() -> Dataset:
        merged = kernels.union_rows(
            [data.rows for data in inputs], names, distinct=distinct, obs=obs
        )
        return planner.materialize(out, merged, fresh=True)

    return columnar_or_rows(columnar, rows, None, obs)


def fan_out(
    data: Dataset,
    outs: Sequence[Relation],
    planner: ExpressionPlanner,
    obs: Optional[Observability],
) -> List[Dataset]:
    """``data`` copied to each relation of ``outs``, each keeping the
    columns it names. Batched, handle renames only — every output keeps
    chaining on the shared selection, and columns alias."""

    def columnar() -> Optional[List[Dataset]]:
        chain = planner.fused_chain(data, obs)
        if chain is None:
            return None
        copies = [
            Dataset.adopt_fused(
                out, chain.project([(n, n) for n in out.attribute_names])
            )
            for out in outs
        ]
        fuse.fused_op(chain)
        return copies

    def rows() -> List[Dataset]:
        return [
            planner.materialize(
                out,
                [{n: row[n] for n in out.attribute_names} for row in data],
                fresh=True,
            )
            for out in outs
        ]

    return columnar_or_rows(columnar, rows, None, obs)


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

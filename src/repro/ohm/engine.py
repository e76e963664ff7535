"""Reference execution engine for OHM graphs.

The paper treats OHM as a description to be *deployed*; this engine gives
OHM a direct executable semantics so the reproduction can verify that
every translation (ETL→OHM, OHM→mappings, mappings→OHM, OHM→deployment)
preserves transformation semantics on actual data — the three-way checks
in the integration tests.

Row work is dispatched onto the shared kernels in
:mod:`repro.exec.kernels`; expressions are lowered once per operator by
an :class:`~repro.exec.ExpressionPlanner` (pass ``compiled=False`` to
fall back to the tree-walking interpreter, the semantic oracle). With
``batched=True`` the executor routes block-capable operators (FILTER,
PROJECT, JOIN, UNION, GROUP, SPLIT, TARGET) through the columnar
kernels in :mod:`repro.exec.block`, falling back per operator to the
row kernels whenever an expression cannot be lowered column-wise;
row-shaped operators (NEST, UNNEST, UNKNOWN) always take the row path.
On top of batched mode, ``fused`` (default on, ``REPRO_FUSE=0`` to
disable) chains FILTER/PROJECT/SPLIT selection-vector style through
:mod:`repro.exec.fuse`: filters narrow an index list instead of
gathering, projections rename or compute handles lazily, and columns
materialize once — at a GROUP terminal, a chain breaker (JOIN, UNION,
NEST/UNNEST), or TARGET delivery, which gathers only the target's
columns.

Conventions:

* expressions inside operators reference columns unqualified or qualified
  by the *input edge name* (which is also the input schema's relation
  name after propagation);
* JOIN merges rows, renaming colliding columns to
  ``<input-edge-name>.<column>`` as computed by
  :meth:`repro.ohm.operators.Join.joined_attributes`;
* GROUP treats NULL key values as equal (SQL GROUP BY behaviour);
* a row whose FILTER predicate is *unknown* is dropped (SQL WHERE).

Passing an :class:`~repro.obs.Observability` profiles the run: one
``ohm.op.<KIND>`` span per executed operator under an ``ohm.run`` root,
plus per-operator metrics ``ohm.operator.<uid>.rows_in`` /
``.rows_out`` (counters) and ``.seconds`` (timer) — the row/timing
numbers a query-plan monitor would show for the abstract layer — and
the per-kernel ``exec.kernel.*`` row counts.

The executor is an adapter over the shared run harness
(:mod:`repro.exec.run`: option resolution, degradation ladder,
supervised wavefront scheduler — ``docs/execution-model.md``); what it
owns are the per-operator kernels below. An ``on_error`` policy
(``docs/robustness.md``) absorbs row-level expression errors in FILTER,
PROJECT, JOIN, and TARGET delivery; :meth:`OhmExecutor.run_with_rejects`
additionally returns the rejected rows as a reject
:class:`~repro.data.dataset.Dataset`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.data.dataset import Dataset, Instance, Row
from repro.errors import ExecutionError
from repro.exec import ExpressionPlanner, block, fuse, kernels
from repro.exec.block import relation_resolver
from repro.exec.run import Runtime, run_waves, start_run
from repro.expr.ast import ColumnRef
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry
from repro.obs import Observability
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
from repro.resilience import ErrorContext, RejectedRow, rejects_dataset
from repro.schema.model import Relation


class OhmExecutor(Runtime):
    """Executes a schema-propagated OHM graph over an :class:`Instance`.

    An executor carries no run-scoped state — the source instance, the
    run's planner and its results are threaded through the call chain —
    so one executor can run several graphs concurrently (or recursively)
    without interference. Keywords are those of
    :class:`~repro.exec.run.RunOptions` (no endpoint options), each
    readable back as an attribute."""

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        obs: Optional[Observability] = None,
        **options,
    ):
        super().__init__(False, obs=obs, **options)
        self.registry = registry or DEFAULT_REGISTRY

    def run(
        self, graph: OhmGraph, instance: Instance
    ) -> Tuple[Instance, Dict[str, Dataset]]:
        """Execute ``graph`` against ``instance``.

        Returns ``(targets, edge_data)``: the datasets delivered to each
        TARGET operator (named by target relation), and every intermediate
        edge's dataset keyed by edge name (useful to inspect
        materialization points such as ``DSLink10``)."""
        targets, edge_data, _rejected = self._run_impl(graph, instance)
        return targets, edge_data

    def run_with_rejects(
        self, graph: OhmGraph, instance: Instance
    ) -> Tuple[Instance, Dict[str, Dataset], Dataset]:
        """Like :meth:`run`, additionally returning the rows rejected
        under the ``reject`` policy as a dataset of the standard reject
        relation (:data:`~repro.resilience.REJECT_COLUMNS`)."""
        targets, edge_data, rejected = self._run_impl(graph, instance)
        return targets, edge_data, rejects_dataset(rejected)

    def execute(self, graph: OhmGraph, instance: Instance) -> Instance:
        """Execute and return only the target datasets."""
        targets, _edges = self.run(graph, instance)
        return targets

    def run_operator(
        self,
        op: Operator,
        inputs: List[Dataset],
        out_relations: List[Relation],
        instance: Optional[Instance] = None,
    ) -> List[Dataset]:
        """One operator's reference semantics outside any graph run:
        its output datasets, one per relation of ``out_relations``."""
        return self._run_operator(
            op, inputs, out_relations, instance,
            planner=self.options.planner(self.registry),
        )

    # -- per-operator semantics ----------------------------------------------

    def _run_operator(
        self,
        op: Operator,
        inputs: List[Dataset],
        out_relations: List[Relation],
        instance: Optional[Instance] = None,
        *,
        planner: ExpressionPlanner,
        errors: Optional[ErrorContext] = None,
    ) -> List[Dataset]:
        if isinstance(op, Source):
            return [
                self._run_source(op, out, instance) for out in out_relations
            ]
        if isinstance(op, Filter):
            return [
                self._run_filter(op, inputs[0], out_relations[0], planner, errors)
            ]
        if isinstance(op, Project):  # covers all PROJECT subtypes
            return [
                self._run_project(op, inputs[0], out_relations[0], planner, errors)
            ]
        if isinstance(op, Join):
            return [
                self._run_join(
                    op, inputs[0], inputs[1], out_relations[0], planner, errors
                )
            ]
        if isinstance(op, Union):
            return [self._run_union(op, inputs, out_relations[0], planner)]
        if isinstance(op, Group):
            return [self._run_group(op, inputs[0], out_relations[0], planner)]
        if isinstance(op, Split):
            if planner.batched:
                chain = planner.fused_chain(inputs[0], self._obs)
                if chain is not None:
                    # handle renames only — every output keeps chaining
                    # on the shared selection, nothing is gathered
                    results = [
                        planner.materialize_fused(
                            out,
                            chain.project(
                                [(n, n) for n in out.attribute_names]
                            ),
                        )
                        for out in out_relations
                    ]
                    fuse.fused_op(chain, self._obs, 0)
                    return results
                # every output shares the (immutable) input columns
                shared = inputs[0].as_block()
                return [
                    planner.materialize_block(out, shared)
                    for out in out_relations
                ]
            return [
                planner.materialize(
                    out, [dict(r) for r in inputs[0]], fresh=True
                )
                for out in out_relations
            ]
        if isinstance(op, Nest):
            return [self._run_nest(op, inputs[0], out_relations[0], planner)]
        if isinstance(op, Unnest):
            return [self._run_unnest(op, inputs[0], out_relations[0], planner)]
        if isinstance(op, Unknown):
            return self._run_unknown(op, inputs, out_relations)
        raise ExecutionError(
            f"no execution semantics for {op.KIND} {op.uid}", stage=op.uid
        )

    def _run_source(
        self, op: Source, out: Relation, instance: Optional[Instance]
    ) -> Dataset:
        if instance is None or op.relation.name not in instance:
            if op.provider is not None:
                return op.provider().renamed(out.name)
            raise ExecutionError(
                f"source relation {op.relation.name!r} not present in instance",
                stage=op.uid,
            )
        dataset = instance.dataset(op.relation.name)
        checked = dataset.with_relation(op.relation)  # validates types
        return checked.renamed(out.name)

    def _run_filter(
        self,
        op: Filter,
        data: Dataset,
        out: Relation,
        planner: ExpressionPlanner,
        errors: Optional[ErrorContext] = None,
    ) -> Dataset:
        if planner.batched:
            chain = planner.fused_chain(data, self._obs)
            if chain is not None:
                resolve = relation_resolver(
                    data.relation.name, chain.handles
                )
                predicate = planner.block_predicate(
                    op.condition, resolve, tier="fused"
                )
                if predicate is not None:
                    # narrow the selection vector — no gather; the
                    # predicate sees only the columns it reads
                    reads = fuse.read_set([op.condition], resolve)
                    mask = predicate(chain.view(reads))
                    kept = [i for i, flag in enumerate(mask) if flag]
                    fuse.fused_op(chain, self._obs, len(kept))
                    return planner.materialize_fused(
                        out, chain.narrow(kept)
                    )
            blk = data.as_block()
            resolve = relation_resolver(data.relation.name, blk.columns)
            predicate = planner.block_predicate(op.condition, resolve)
            if predicate is not None:
                kept = block.filter_block(
                    blk, predicate, planner.batch_size, obs=self._obs
                )
                return planner.materialize_block(out, kept)
        on_error = errors.kernel_handler() if errors is not None else None
        kept = kernels.filter_rows(
            data.rows,
            planner.predicate(op.condition),
            kernels.row_binder(data.relation.name),
            obs=self._obs,
            on_error=on_error,
        )
        return planner.materialize(
            out, [dict(row) for row in kept], fresh=True
        )

    def _run_project(
        self,
        op: Project,
        data: Dataset,
        out: Relation,
        planner: ExpressionPlanner,
        errors: Optional[ErrorContext] = None,
    ) -> Dataset:
        if planner.batched:
            chain = planner.fused_chain(data, self._obs)
            if chain is not None:
                produced = self._project_fused(op, data, chain, planner)
                if produced is not None:
                    return planner.materialize_fused(out, produced)
            blk = data.as_block()
            resolve = relation_resolver(data.relation.name, blk.columns)
            lowered = [
                (name, planner.block_scalar(expr, resolve))
                for name, expr in op.derivations
            ]
            if all(fn is not None for _name, fn in lowered):
                produced = block.project_block(
                    blk,
                    lowered,
                    batch_size=planner.batch_size,
                    obs=self._obs,
                )
                return planner.materialize_block(out, produced)
        on_error = errors.kernel_handler() if errors is not None else None
        rows = kernels.project_rows(
            data.rows,
            [(name, planner.scalar(expr)) for name, expr in op.derivations],
            kernels.row_binder(data.relation.name),
            obs=self._obs,
            on_error=on_error,
        )
        return planner.materialize(out, rows, fresh=True)

    def _project_fused(
        self,
        op: Project,
        data: Dataset,
        chain: fuse.FusedBlock,
        planner: ExpressionPlanner,
    ) -> Optional[fuse.FusedBlock]:
        """PROJECT as a handle rebinding on the chain: pass-through
        column references rename handles (no gather), computed columns
        evaluate eagerly but only over read-set views of the surviving
        selection. ``None`` when any derivation needs the unfused path
        — fusion is all-or-nothing per operator."""
        resolve = relation_resolver(data.relation.name, chain.handles)
        lowered = []
        for name, expr in op.derivations:
            if isinstance(expr, ColumnRef):
                key = resolve(expr)
                if key is not None:
                    lowered.append((name, None, key))
                    continue
            fn = planner.block_scalar(expr, resolve, tier="fused")
            if fn is None:
                return None
            lowered.append((name, expr, fn))
        handles: Dict[str, fuse.Handle] = {}
        for name, expr, fn in lowered:
            if expr is None:
                handles[name] = chain.handles[fn]
            else:
                handles[name] = fn(
                    chain.view(fuse.read_set([expr], resolve))
                )
        fuse.fused_op(chain, self._obs, chain.length)
        return chain.derive(handles)

    def _run_join(
        self,
        op: Join,
        left: Dataset,
        right: Dataset,
        out: Relation,
        planner: ExpressionPlanner,
        errors: Optional[ErrorContext] = None,
    ) -> Dataset:
        attrs = Join.joined_attributes(left.relation, right.relation)
        if planner.batched:
            joined = block.hash_join_block(
                left.as_block(),
                right.as_block(),
                left.relation,
                right.relation,
                op.condition,
                op.kind,
                [(attr.name, side, source) for attr, side, source in attrs],
                planner,
                obs=self._obs,
            )
            if joined is not None:
                return planner.materialize_block(out, joined)

        def merge(left_row: Optional[Row], right_row: Optional[Row]) -> Row:
            merged: Row = {}
            for attr, side, source in attrs:
                source_row = left_row if side == "left" else right_row
                merged[attr.name] = (
                    None if source_row is None else source_row[source]
                )
            return merged

        rows: List[Row] = []
        kernels.hash_join(
            left.rows,
            right.rows,
            left.relation,
            right.relation,
            op.condition,
            op.kind,
            merge,
            rows.append,
            planner,
            obs=self._obs,
            on_error=errors.kernel_handler() if errors is not None else None,
        )
        return planner.materialize(out, rows, fresh=True)

    def _run_union(
        self,
        op: Union,
        inputs: List[Dataset],
        out: Relation,
        planner: ExpressionPlanner,
    ) -> Dataset:
        if planner.batched:
            unioned = block.union_block(
                [dataset.as_block() for dataset in inputs],
                out.attribute_names,
                distinct=op.distinct,
                obs=self._obs,
            )
            return planner.materialize_block(out, unioned)
        rows = kernels.union_rows(
            [dataset.rows for dataset in inputs],
            out.attribute_names,
            distinct=op.distinct,
            obs=self._obs,
        )
        return planner.materialize(out, rows, fresh=True)

    def _run_group(
        self,
        op: Group,
        data: Dataset,
        out: Relation,
        planner: ExpressionPlanner,
    ) -> Dataset:
        if planner.batched:
            produced = self._group_block(op, data, planner)
            if produced is not None:
                return planner.materialize_block(out, produced)
        rows = kernels.group_aggregate_rows(
            data.rows,
            op.keys,
            [(name, planner.aggregate(agg)) for name, agg in op.aggregates],
            obs=self._obs,
        )
        return planner.materialize(out, rows, fresh=True)

    def _group_block(self, op: Group, data: Dataset, planner: ExpressionPlanner):
        """The GROUP operator over columns, or ``None`` when any
        aggregate argument needs the row path. Aggregate members are
        bound anonymously on the row path, so the resolver here carries
        no relation qualifier."""
        chain = planner.fused_chain(data, self._obs)
        if chain is not None:
            produced = self._group_fused(op, chain, planner)
            if produced is not None:
                return produced
        blk = data.as_block()
        resolve = relation_resolver(None, blk.columns)
        lowered = []
        for name, agg in op.aggregates:
            plan = planner.block_aggregate(agg, resolve)
            if plan is None:
                return None
            lowered.append((name, plan[0], plan[1]))
        return block.group_aggregate_block(
            blk, op.keys, lowered, obs=self._obs, planner=planner
        )

    def _group_fused(self, op: Group, chain, planner: ExpressionPlanner):
        """GROUP as a fused terminal: aggregate over a read-set view of
        the chain (group keys plus the columns the aggregate arguments
        touch) — the full intermediate block never materializes."""
        resolve = relation_resolver(None, chain.handles)
        lowered = []
        args = []
        for name, agg in op.aggregates:
            plan = planner.block_aggregate(agg, resolve, tier="fused")
            if plan is None:
                return None
            if agg.arg is not None:
                args.append(agg.arg)
            lowered.append((name, plan[0], plan[1]))
        reads = fuse.read_set(args, resolve)
        names = list(dict.fromkeys(list(op.keys) + (reads or [])))
        view = chain.view(names if reads is not None else None)
        fuse.fused_op(chain, self._obs, chain.length)
        return block.group_aggregate_block(
            view, op.keys, lowered, obs=self._obs, planner=planner
        )

    def _run_nest(
        self, op: Nest, data: Dataset, out: Relation, planner: ExpressionPlanner
    ) -> Dataset:
        rows = kernels.nest_rows(
            data.rows, op.keys, op.nested, op.into, obs=self._obs
        )
        return planner.materialize(out, rows, fresh=True)

    def _run_unnest(
        self, op: Unnest, data: Dataset, out: Relation, planner: ExpressionPlanner
    ) -> Dataset:
        scalar_names = [a.name for a in data.relation if a.name != op.attr]
        rows = kernels.unnest_rows(
            data.rows, op.attr, scalar_names, obs=self._obs
        )
        return planner.materialize(out, rows, fresh=True)

    def _run_unknown(
        self, op: Unknown, inputs: List[Dataset], out_relations: List[Relation]
    ) -> List[Dataset]:
        if op.executor is None:
            raise ExecutionError(
                f"UNKNOWN operator {op.reference!r} carries no executable "
                "behaviour; cannot run this graph directly",
                stage=op.uid,
            )
        outputs = op.executor(inputs)
        if len(outputs) != len(out_relations):
            raise ExecutionError(
                f"UNKNOWN {op.reference!r} produced {len(outputs)} outputs, "
                f"expected {len(out_relations)}",
                stage=op.uid,
            )
        return [
            Dataset(out, [dict(r) for r in produced], validate=False)
            for out, produced in zip(out_relations, outputs)
        ]

    def _run_target(
        self,
        op: Target,
        data: Dataset,
        planner: ExpressionPlanner,
        errors: Optional[ErrorContext] = None,
    ) -> Dataset:
        names = op.relation.attribute_names
        if errors is not None and errors.handling:
            # an active policy forces the checked path — bad rows land on
            # the policy's channel, never abort the delivery
            from repro.errors import SchemaError

            result = Dataset(op.relation)
            for index, row in enumerate(data):
                try:
                    result.append({n: row.get(n) for n in names})
                except SchemaError as exc:
                    errors.record(index, dict(row), exc)
            return result
        if planner.batched:
            fused = data.peek_fused()
            if fused is not None:
                # fused delivery: the chain's terminal gather — only the
                # target's columns materialize; columns the target lacks
                # become NULL, matching the row path's row.get
                return Dataset.adopt_block(
                    op.relation,
                    fuse.materialize_fused(fused, names, fill_missing=True),
                )
            blk = data.peek_block()
            if blk is not None:
                # trusted delivery straight from the columnar form:
                # subset/NULL-fill to the target attribute set without a
                # row round-trip (missing columns become NULL, matching
                # the row path's row.get)
                columns = {
                    n: blk.columns[n]
                    if n in blk.columns
                    else [None] * blk.length
                    for n in names
                }
                return Dataset.adopt_block(
                    op.relation, block.RowBlock(columns, blk.length)
                )
        if self.compiled:
            # trusted delivery: upstream kernels already shaped the rows
            return Dataset.adopt(
                op.relation, [{n: row.get(n) for n in names} for row in data]
            )
        result = Dataset(op.relation)
        for row in data:
            result.append({n: row.get(n) for n in names})
        return result

    def _run_impl(
        self, graph: OhmGraph, instance: Instance
    ) -> Tuple[Instance, Dict[str, Dataset], List[RejectedRow]]:
        planner, ladder = start_run(self.options, graph, self.registry, instance)
        graph.propagate_schemas()
        return self._run_graph(graph, instance, planner, ladder)

    def _run_graph(
        self, graph: OhmGraph, instance: Instance, planner, ladder
    ) -> Tuple[Instance, Dict[str, Dataset], List[RejectedRow]]:
        """The run proper, of a schema-propagated graph after
        :func:`~repro.exec.run.start_run` (the mapping runtime starts its
        runs on the mapping set, then runs the lowered graph here)."""
        run = _GraphRun(self, graph, instance, ladder)
        with self._obs.tracer.span("ohm.run", graph=graph.name):
            run_waves(graph.topological_order(), run, self.options, planner)
        if self.catalog is not None:
            # close the feedback loop: the next estimate_graph over the
            # same edge names re-plans from these actuals
            self.catalog.observe_instance(instance)
            for name, dataset in run.edge_data.items():
                self.catalog.observe_link(name, len(dataset))
        return run.targets, run.edge_data, run.rejected


class _GraphRun:
    """One run of one graph: its operators as the scheduler's nodes
    (:class:`repro.exec.run.Nodes`), plus the run-scoped state their
    bookkeeping fills — never the executor's."""

    unit = "operators"

    def __init__(self, executor: OhmExecutor, graph: OhmGraph, instance, ladder):
        self.executor = executor
        self.graph = graph
        self.instance = instance
        self.ladder = ladder
        self.obs = executor.options.obs
        self.targets = Instance()
        self.by_edge: Dict[Tuple[str, int], Dataset] = {}
        self.edge_data: Dict[str, Dataset] = {}
        self.rejected: List[RejectedRow] = []

    def key(self, op):
        return op.uid

    def parents(self, op):
        return (e.src for e in self.graph.in_edges(op.uid))

    name = key

    def prepare(self, op):
        inputs = [
            self.by_edge[(e.src, e.src_port)]
            for e in self.graph.in_edges(op.uid)
        ]
        ctx = ErrorContext(
            op.uid, getattr(op, "on_error", None) or self.executor.on_error
        )
        return ctx, (inputs, self.graph.out_edges(op.uid), ctx)

    def compute(self, op, state):
        """One operator's pure compute through the degradation ladder."""
        inputs, out_edges, ctx = state
        executor, metrics = self.executor, self.obs.metrics
        if isinstance(op, Target):
            delivered = self.ladder.attempt(
                lambda p: executor._run_target(op, inputs[0], p, errors=ctx),
                ctx,
                metrics,
            )
            return [delivered]
        out_relations = [e.schema for e in out_edges]
        outputs = self.ladder.attempt(
            lambda p: executor._run_operator(
                op, inputs, out_relations, self.instance, planner=p, errors=ctx
            ),
            ctx,
            metrics,
        )
        if len(outputs) != len(out_edges):
            raise ExecutionError(
                f"{op.KIND} {op.uid} produced {len(outputs)} "
                f"outputs for {len(out_edges)} edges",
                stage=op.uid,
            )
        return outputs

    def book(self, op, state, result) -> None:
        inputs, out_edges, ctx = state
        metrics = self.obs.metrics
        with self.obs.tracer.span(f"ohm.op.{op.KIND}", uid=op.uid) as span:
            outputs, seconds = result()
            if isinstance(op, Target):
                self.targets.put(outputs[0])
            self.rejected.extend(ctx.rejected)
            ctx.publish(metrics, span)
            if self.obs.enabled:
                rows_in = sum(len(d) for d in inputs)
                rows_out = sum(len(d) for d in outputs)
                span.set(rows_in=rows_in, rows_out=rows_out)
                prefix = f"ohm.operator.{op.uid}"
                metrics.count(f"{prefix}.rows_in", rows_in)
                metrics.count(f"{prefix}.rows_out", rows_out)
                metrics.observe(f"{prefix}.seconds", seconds)
            if not isinstance(op, Target):
                for edge, dataset in zip(out_edges, outputs):
                    self.by_edge[(edge.src, edge.src_port)] = dataset
                    self.edge_data[edge.name] = dataset


def execute(
    graph: OhmGraph,
    instance: Instance,
    registry: Optional[FunctionRegistry] = None,
    obs: Optional[Observability] = None,
    **options,
) -> Instance:
    """Execute ``graph`` over ``instance``; returns the target datasets
    (``options`` are :class:`OhmExecutor`'s keywords)."""
    return OhmExecutor(registry, obs, **options).execute(graph, instance)


def execute_with_edges(
    graph: OhmGraph,
    instance: Instance,
    registry: Optional[FunctionRegistry] = None,
    obs: Optional[Observability] = None,
    **options,
) -> Tuple[Instance, Dict[str, Dataset]]:
    """Execute and also return every intermediate edge's data by name."""
    return OhmExecutor(registry, obs, **options).run(graph, instance)


__all__ = ["OhmExecutor", "execute", "execute_with_edges"]

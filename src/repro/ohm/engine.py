"""Reference execution engine for OHM graphs.

The paper treats OHM as a description to be *deployed*; this engine gives
OHM a direct executable semantics so the reproduction can verify that
every translation (ETL→OHM, OHM→mappings, mappings→OHM, OHM→deployment)
preserves transformation semantics on actual data — the three-way checks
in the integration tests.

Every operator but SOURCE and UNKNOWN is one call into
:mod:`repro.exec.ops`, the bodies the ETL stages run too; expressions
are lowered once per operator by an
:class:`~repro.exec.ExpressionPlanner` (pass ``compiled=False`` to fall
back to the tree-walking interpreter, the semantic oracle). On the
compiled tier FILTER, PROJECT, SPLIT and GROUP run a selection-vector
chain (:mod:`repro.exec.fuse`) — filters narrow an index list,
projections rename or compute handles — each falling back to the row
kernels whenever an expression cannot be lowered. The chain stays lazy
until a GROUP terminal, a chain breaker (JOIN, UNION, and NEST /
UNNEST, row-shaped at every tier) or TARGET delivery, which gathers
only the target's columns.

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
the per-kernel ``exec.kernel.*`` / ``exec.block.*`` row counts.

The executor is an adapter over the shared run harness
(:mod:`repro.exec.run`: option resolution, the pre-run check,
supervised topological loop — ``docs/execution-model.md``); what it
owns is the per-operator dispatch, :func:`operator_outputs`. An
``on_error`` policy (``docs/robustness.md``) absorbs row-level
expression errors in FILTER, PROJECT, JOIN, GROUP's aggregate arguments
and TARGET delivery, on both tiers.

:meth:`OhmExecutor.run` returns a :class:`~repro.exec.run.RunResult`:
the targets, the rejected rows as a reject
:class:`~repro.data.dataset.Dataset`, every edge's row count, and the
datasets of the edges named in ``keep``. A run lets go of an edge's
dataset once the edge's one consumer has taken it.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Tuple

from repro.data.dataset import Dataset, Instance
from repro.errors import ExecutionError, SchemaError
from repro.exec import ExpressionPlanner, ops
from repro.exec.run import (
    RunResult,
    Runtime,
    check_keep,
    run_nodes,
    start_run,
)
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry
from repro.obs import NULL_OBS, Observability
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
        self,
        graph: OhmGraph,
        instance: Optional[Instance] = None,
        *,
        keep: Collection[str] = (),
    ) -> RunResult:
        """Execute ``graph`` against ``instance``: the datasets delivered
        to each TARGET operator (by target relation), the rejected rows,
        every edge's row count, and the datasets of the edges named in
        ``keep`` (e.g. a materialization point such as ``DSLink10``)."""
        planner = start_run(self.options, graph, self.registry)
        graph.propagate_schemas()
        run = self._run_graph(graph, instance, planner, keep)
        return RunResult(
            run.targets, rejects_dataset(run.rejected), run.rows, run.edges
        )

    def _run_graph(
        self,
        graph: OhmGraph,
        instance: Optional[Instance],
        planner: ExpressionPlanner,
        keep: Collection[str],
    ) -> "_GraphRun":
        """The run proper, of a schema-propagated graph after
        :func:`~repro.exec.run.start_run` (the mapping runtime starts its
        runs on the mapping set, then runs the lowered graph here)."""
        keep = check_keep(keep, [e.name for e in graph.edges])
        run = _GraphRun(self, graph, instance, planner, keep)
        with self._obs.tracer.span("ohm.run", graph=graph.name):
            run_nodes(graph.topological_order(), run, self.options)
        if self.catalog is not None:
            # close the feedback loop: the next estimate_graph over the
            # same edge names re-plans from these actuals
            self.catalog.observe_instance(instance)
            self.catalog.observe_link_counts(run.rows)
        return run


# -- per-operator semantics ----------------------------------------------------


def operator_outputs(
    op: Operator,
    inputs: List[Dataset],
    out_relations: List[Relation],
    instance: Optional[Instance],
    planner: ExpressionPlanner,
    obs: Observability = NULL_OBS,
    errors: Optional[ErrorContext] = None,
) -> List[Dataset]:
    """One operator's reference semantics: its output datasets, one per
    relation of ``out_relations``."""
    if isinstance(op, Source):
        return [_source_output(op, out, instance) for out in out_relations]
    if isinstance(op, Filter):
        return ops.route(
            inputs[0], [(op.condition, None)], out_relations, False,
            planner, obs, errors,
        )
    if isinstance(op, Project):  # covers all PROJECT subtypes
        return [
            ops.derive(
                inputs[0], op.derivations, out_relations[0], planner,
                obs, errors,
            )
        ]
    if isinstance(op, Join):
        left, right = inputs
        plan = [
            (attr.name, side, source)
            for attr, side, source in Join.joined_attributes(
                left.relation, right.relation
            )
        ]
        return [
            ops.join(
                left, right, op.condition, op.kind, plan,
                out_relations[0], planner, obs, errors,
            )
        ]
    if isinstance(op, Union):
        return [ops.union(inputs, out_relations[0], op.distinct, planner, obs)]
    if isinstance(op, Group):
        return [
            ops.group(
                inputs[0], op.keys, op.aggregates, out_relations[0],
                planner, obs, errors,
            )
        ]
    if isinstance(op, Split):
        return ops.fan_out(inputs[0], out_relations, planner, obs)
    if isinstance(op, Nest):
        return [
            ops.nest(
                inputs[0], op.keys, op.nested, op.into, out_relations[0],
                planner, obs,
            )
        ]
    if isinstance(op, Unnest):
        return [ops.unnest(inputs[0], op.attr, out_relations[0], planner, obs)]
    if isinstance(op, Unknown):
        return _unknown_outputs(op, inputs, out_relations)
    raise ExecutionError(
        f"no execution semantics for {op.KIND} {op.uid}", stage=op.uid
    )


def _source_output(
    op: Source, out: Relation, instance: Optional[Instance]
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


def _unknown_outputs(
    op: Unknown, inputs: List[Dataset], out_relations: List[Relation]
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
        _adopt_output(op, out, produced)
        for out, produced in zip(out_relations, outputs)
    ]


def _adopt_output(op: Unknown, out: Relation, produced) -> Dataset:
    """One UNKNOWN output as the edge's dataset. A returned
    :class:`Dataset` hands over its block, so the edge stays columnar;
    its columns must be the edge schema's. Row dicts are copied in, as
    a ``Custom`` stage's body always returned them."""
    if not isinstance(produced, Dataset):
        return Dataset(out, [dict(r) for r in produced], validate=False)
    try:
        return Dataset.adopt_block(out, produced.as_block())
    except SchemaError as exc:
        raise ExecutionError(
            f"UNKNOWN {op.reference!r} output does not fit edge "
            f"{out.name!r}: {exc}",
            stage=op.uid,
        ) from exc


class _GraphRun:
    """One run of one graph: its operators as the loop's nodes
    (:class:`repro.exec.run.Nodes`), plus the run-scoped state their
    bookkeeping fills — never the executor's.

    An edge's dataset is held from its producer's booking until its one
    consumer takes it as input (every output port feeds exactly one
    edge), and in :attr:`edges` past the run only when it is kept."""

    def __init__(self, executor: OhmExecutor, graph: OhmGraph, instance,
                 planner, keep):
        self.executor = executor
        self.graph = graph
        self.instance = instance
        self.planner = planner
        self.keep = keep
        self.obs = executor.options.obs
        self.targets = Instance()
        self.by_edge: Dict[Tuple[str, int], Dataset] = {}
        self.rows: Dict[str, int] = {}
        self.edges: Dict[str, Dataset] = {}
        self.rejected: List[RejectedRow] = []

    def name(self, op):
        return op.uid

    def prepare(self, op):
        inputs = [
            self.by_edge.pop((e.src, e.src_port))
            for e in self.graph.in_edges(op.uid)
        ]
        ctx = ErrorContext(
            op.uid, getattr(op, "on_error", None) or self.executor.on_error
        )
        return ctx, (inputs, self.graph.out_edges(op.uid), ctx)

    def compute(self, op, state):
        """One operator's pure compute. An operator with a columnar body
        falls back inside :mod:`repro.exec.ops`; SOURCE, UNKNOWN and
        TARGET have none, so each runs once."""
        inputs, out_edges, ctx = state
        if isinstance(op, Target):
            return [
                ops.deliver(inputs[0], op.relation, self.executor.compiled, ctx)
            ]
        outputs = operator_outputs(
            op, inputs, [e.schema for e in out_edges], self.instance,
            self.planner, self.obs, ctx,
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
                    self.rows[edge.name] = len(dataset)
                    if edge.name in self.keep:
                        self.edges[edge.name] = dataset


__all__ = ["OhmExecutor", "operator_outputs"]

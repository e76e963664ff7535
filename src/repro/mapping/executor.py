"""Direct execution of mappings over data instances.

The paper relies on "the semantics of mappings are known" — Clio can
generate queries from them. We go one step further and interpret the
mapping formulas directly, so the reproduction can check that ETL jobs,
OHM graphs, and extracted mappings all compute the same instances (the
three-way equivalence in the integration tests).

A single mapping executes as the paper's Figure 9 template: the source
bindings are joined left-deep in binding order — each binding's rows
tested, on one reused environment, against the ``where`` conjuncts
``lhs = rhs`` that tie it to the bindings before it (a nested loop; no
hash index yet), or extended by product when it has none (placeholder
and theta joins) — and the full ``where`` then filters the surviving
combinations, which come out in the cross product's own order. If
grouping, rows are grouped by the group-by expressions and aggregate
derivations evaluate per group; each result row populates the target
relation (underived nullable columns get NULL).

Row work runs on the shared :mod:`repro.exec.kernels`, with expressions
lowered once per mapping by an :class:`~repro.exec.ExpressionPlanner`
(``compiled=False`` falls back to the interpreting oracle) — the same
execution core as the OHM engine and the ETL stages.

A :class:`~repro.mapping.model.MappingSet` executes in dependency order;
mappings sharing a target union (bag) their results — the UNION semantics
of section VI-A.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.data.dataset import Dataset, Instance, Row
from repro.errors import (
    INFRASTRUCTURE_ERRORS,
    STATIC_ERRORS,
    ExecutionError,
    MappingError,
    RunCancelled,
)
from repro.exec import ExpressionPlanner, block, fuse, kernels
from repro.exec.run import Runtime, run_waves, start_run
from repro.expr.algebra import conjoin, transform
from repro.expr.ast import AggregateCall, BinaryOp, ColumnRef, Expr, Literal
from repro.expr.evaluator import Environment, evaluate
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry
from repro.mapping.model import Mapping, MappingSet
from repro.obs import Observability
from repro.resilience import ErrorContext, RejectedRow, rejects_dataset


class MappingExecutor(Runtime):
    """Interprets mappings over instances.

    ``on_error`` sets the row error policy (``fail_fast`` / ``skip`` /
    ``reject``) applied per mapping: a source-row combination whose
    where clause or derivations error is dropped (``skip``) or captured
    (``reject`` — see :meth:`run_with_rejects`) instead of aborting.
    The executor is an adapter over the shared run harness
    (:mod:`repro.exec.run` — ``docs/execution-model.md``): keywords are
    those of :class:`~repro.exec.run.RunOptions` (no endpoint options),
    each readable back as an attribute, and every run gets its own
    planner, so an executor carries no run-scoped state."""

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        obs: Optional[Observability] = None,
        **options,
    ):
        super().__init__(False, obs=obs, **options)
        self.registry = registry or DEFAULT_REGISTRY

    @staticmethod
    def _source_row_of(mapping: Mapping):
        """Maps a bound :class:`Environment` back to the source row (or,
        for multi-source mappings, the per-variable rows) recorded on
        the reject channel."""
        variables = [b.var for b in mapping.sources]
        if len(variables) == 1:
            var = variables[0]
            return lambda env: env.bindings[var]
        return lambda env: {
            var: dict(env.bindings[var]) for var in variables
        }

    # -- single mapping ------------------------------------------------------------

    def execute_mapping(
        self,
        mapping: Mapping,
        instance: Instance,
        errors: Optional[ErrorContext] = None,
        planner: Optional[ExpressionPlanner] = None,
    ) -> Dataset:
        """Evaluate one mapping; returns the dataset it asserts into its
        target relation. Row errors are absorbed into ``errors`` when an
        active policy context is supplied. ``planner`` is the tier to
        evaluate at — a run passes each ladder rung's; a direct call
        gets a fresh one at the executor's own tier."""
        if mapping.is_opaque:
            return self._execute_opaque(mapping, instance)
        planner = planner or self.options.planner(self.registry)
        if planner.fused:
            result = self._execute_fused(mapping, instance, planner)
            if result is not None:
                return result
        if planner.batched:
            result = self._execute_block(mapping, instance, planner)
            if result is not None:
                return result
        handling = errors is not None and errors.handling
        row_of = self._source_row_of(mapping) if handling else None
        joined = self._satisfying_rows(mapping, instance, planner, errors)
        if mapping.is_grouping:
            return self._grouped_result(mapping, joined, planner)
        rows = kernels.project_rows(
            joined,
            [(col, planner.scalar(expr)) for col, expr in mapping.derivations],
            defaults={attr.name: None for attr in mapping.target},
            obs=self._obs,
            on_error=(
                errors.kernel_handler(row_of=row_of) if handling else None
            ),
        )
        return Dataset(mapping.target, rows, validate=False)

    def _execute_fused(
        self, mapping: Mapping, instance: Instance, planner: ExpressionPlanner
    ) -> Optional[Dataset]:
        """Fused evaluation of the single-source, non-grouping mapping
        shape: the where clause narrows a selection vector over the
        source chain (no intermediate gather), derivations are handle
        renames or computed columns over read-set views, underived
        target columns broadcast NULL, and the result stays lazily
        fused-backed — a downstream mapping reading it keeps chaining.
        ``None`` falls back to the unfused block (then row) path."""
        if len(mapping.sources) != 1 or mapping.is_grouping:
            return None
        binding = mapping.sources[0]
        target_names = set(mapping.target.attribute_names)
        if any(col not in target_names for col, _e in mapping.derivations):
            return None
        dataset = self._source_dataset(binding.relation.name, instance)
        chain = planner.fused_chain(dataset, self._obs)
        if chain is None:
            return None
        names = set(chain.handles)
        var = binding.var

        def resolve(ref):
            # mirrors _execute_block: the row path binds the source row
            # under its mapping variable only
            if ref.qualifier is None or ref.qualifier == var:
                return ref.name if ref.name in names else None
            return None

        predicate = planner.block_predicate(
            mapping.where, resolve, tier="fused"
        )
        if predicate is None:
            return None
        lowered = []
        for col, expr in mapping.derivations:
            if isinstance(expr, ColumnRef):
                key = resolve(expr)
                if key is not None:
                    # pass-through: rename the handle, never gather
                    lowered.append((col, None, key))
                    continue
            fn = planner.block_scalar(expr, resolve, tier="fused")
            if fn is None:
                return None
            lowered.append((col, expr, fn))
        reads = fuse.read_set([mapping.where], resolve)
        mask = predicate(chain.view(reads))
        kept = [i for i, flag in enumerate(mask) if flag]
        child = chain.narrow(kept)
        fuse.fused_op(chain, self._obs, len(kept))
        handles: Dict[str, fuse.Handle] = {
            attr.name: [None] * child.length for attr in mapping.target
        }
        for col, expr, fn in lowered:
            if expr is None:
                handles[col] = child.handles[fn]
            else:
                handles[col] = fn(
                    child.view(fuse.read_set([expr], resolve))
                )
        fuse.fused_op(chain, self._obs, 0)
        return Dataset.adopt_fused(mapping.target, child.derive(handles))

    def _execute_block(
        self, mapping: Mapping, instance: Instance, planner: ExpressionPlanner
    ) -> Optional[Dataset]:
        """Columnar evaluation of the common single-source, non-grouping
        mapping shape (filter then project over one bound relation), or
        ``None`` for the row path — multi-source joins,
        grouping, and expressions the block compiler cannot lower all
        fall back."""
        if len(mapping.sources) != 1 or mapping.is_grouping:
            return None
        binding = mapping.sources[0]
        target_names = set(mapping.target.attribute_names)
        if any(col not in target_names for col, _e in mapping.derivations):
            return None
        dataset = self._source_dataset(binding.relation.name, instance)
        blk = dataset.as_block()
        names = set(blk.columns)
        var = binding.var

        def resolve(ref):
            # the row path binds the single source row under its mapping
            # variable only; an unqualified reference resolves through
            # the Environment's single-named-binding fall-through
            if ref.qualifier is None or ref.qualifier == var:
                return ref.name if ref.name in names else None
            return None

        predicate = planner.block_predicate(mapping.where, resolve)
        if predicate is None:
            return None
        derivations = [
            (col, planner.block_scalar(expr, resolve))
            for col, expr in mapping.derivations
        ]
        if any(fn is None for _col, fn in derivations):
            return None
        filtered = block.filter_block(
            blk, predicate, planner.batch_size, obs=self._obs
        )
        projected = block.project_block(
            filtered,
            derivations,
            defaults={attr.name: None for attr in mapping.target},
            batch_size=planner.batch_size,
            obs=self._obs,
        )
        return Dataset.adopt_block(mapping.target, projected)

    def _source_dataset(self, name: str, instance: Instance) -> Dataset:
        if name not in instance:
            raise ExecutionError(
                f"mapping source relation {name!r} not present in instance"
            )
        return instance.dataset(name)

    def _satisfying_rows(
        self,
        mapping: Mapping,
        instance: Instance,
        planner: ExpressionPlanner,
        errors: Optional[ErrorContext] = None,
    ) -> List[Environment]:
        """Environments for every combination of source rows satisfying
        the where clause, in the cross product's enumeration order. The
        candidates come from the left-deep join (:meth:`_joined`); the
        whole where clause still decides each of them, so the rest of
        the clause never sees a combination the join conjuncts exclude
        (as in :func:`kernels.hash_join`). A join conjunct that raises a
        data error abandons the join: the product is enumerated and the
        where clause meets the error under the run's own policy."""
        rows = [
            self._source_dataset(b.relation.name, instance).rows
            for b in mapping.sources
        ]
        variables = [b.var for b in mapping.sources]
        try:
            combos = self._joined(mapping, variables, rows, planner)
        except (*INFRASTRUCTURE_ERRORS, *STATIC_ERRORS, RunCancelled):
            raise
        except Exception:
            combos = itertools.product(*rows)
        candidates = []
        for combo in combos:
            env = Environment()
            env.bindings.update(zip(variables, combo))
            candidates.append(env)
        handling = errors is not None and errors.handling
        return kernels.filter_rows(
            candidates,
            planner.predicate(mapping.where),
            obs=self._obs,
            on_error=(
                errors.kernel_handler(row_of=self._source_row_of(mapping))
                if handling
                else None
            ),
        )

    def _joined(
        self,
        mapping: Mapping,
        variables: List[str],
        rows: List[List[Row]],
        planner: ExpressionPlanner,
    ) -> List[tuple]:
        """Left-deep nested-loop join of the bindings: a superset of the
        satisfying combinations (one row per binding), left-major with
        each binding's rows in relation order. Binding *k* extends every
        partial combination by each of its rows and keeps the extensions
        that the equality conjuncts tying *k* to the bindings before it
        accept — evaluated by the conjunct itself on one rebound
        environment, so NULL never matches and ``3 = 3.0`` does; a
        binding without such a conjunct keeps the whole product."""
        equalities = []
        for conjunct in mapping.where_conjuncts():
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                try:
                    equalities.append((conjunct, mapping._vars_of(conjunct)))
                except MappingError:
                    continue  # ambiguous column: the where clause reports it
        combos = [(row,) for row in rows[0]]
        env = Environment()  # rebound per candidate, as row_binder
        rows_in = rows_out = 0
        for k in range(1, len(variables)):
            var, bound = variables[k], set(variables[: k + 1])
            ties = [
                conjunct
                for conjunct, used in equalities
                if var in used and len(used) > 1 and used <= bound
            ]
            extended = (combo + (row,) for combo in combos for row in rows[k])
            if not ties:
                combos = list(extended)
                continue
            accepts = planner.predicate(conjoin(ties))
            rows_in += len(combos) + len(rows[k])
            combos = []
            for combo in extended:
                env.bindings.update(zip(variables, combo))
                if accepts(env):
                    combos.append(combo)
            rows_out += len(combos)
        if rows_in:
            kernels._observe(self._obs, "join", rows_in, rows_out)
        return combos

    def _grouped_result(
        self,
        mapping: Mapping,
        joined: List[Environment],
        planner: ExpressionPlanner,
    ) -> Dataset:
        groups = kernels.group_rows(
            joined,
            [planner.scalar(e) for e in mapping.group_by],
            obs=self._obs,
        )
        derivations = [
            (col, self._group_fn(expr, planner))
            for col, expr in mapping.derivations
        ]
        result = Dataset(mapping.target, validate=False)
        for members in groups:
            row: Row = {a.name: None for a in mapping.target}
            for col, fn in derivations:
                row[col] = fn(members)
            result.append(row, validate=False)
        return result

    def _group_fn(
        self, expr: Expr, planner: ExpressionPlanner
    ) -> Callable[[List[Environment]], object]:
        """``members → value`` for one derivation of a grouping mapping:
        a scalar reads the group's first member, a bare aggregate folds
        its argument over the members, and a scalar expression *over*
        aggregates goes through :meth:`_evaluate_aggregated`."""
        if not expr.contains_aggregate():
            scalar = planner.scalar(expr)
            return lambda members: scalar(members[0])
        if not isinstance(expr, AggregateCall):
            return lambda members: self._evaluate_aggregated(
                expr, members, planner
            )
        if expr.arg is None:
            return len
        # multi-source environments: evaluate the argument per member,
        # then fold the values
        arg = planner.scalar(expr.arg)
        fold = planner.aggregate(
            AggregateCall(expr.func, ColumnRef("__v"), expr.distinct)
        )
        return lambda members: fold([{"__v": arg(env)} for env in members])

    def _evaluate_aggregated(
        self,
        expr: Expr,
        members: List[Environment],
        planner: ExpressionPlanner,
    ) -> object:
        """Evaluate a scalar expression over aggregate calls for one
        group (each aggregate is computed over the group, then the
        surrounding scalar expression is evaluated)."""

        def fold(node: Expr):
            if isinstance(node, AggregateCall):
                return Literal(self._group_fn(node, planner)(members))
            return None

        # the folded expression embeds this group's aggregate values as
        # literals, so it is unique per group — evaluate it directly
        # instead of polluting the planner's compilation cache
        folded = transform(expr, fold)
        return evaluate(folded, members[0], self.registry)

    def _execute_opaque(self, mapping: Mapping, instance: Instance) -> Dataset:
        if mapping.executor is None:
            raise ExecutionError(
                f"opaque mapping {mapping.name} ({mapping.reference!r}) has "
                "no executable behaviour bound"
            )
        inputs = [
            self._source_dataset(b.relation.name, instance)
            for b in mapping.sources
        ]
        rows = mapping.executor(inputs)
        return Dataset(mapping.target, [dict(r) for r in rows], validate=False)

    # -- mapping sets ------------------------------------------------------------

    def execute(self, mappings: MappingSet, instance: Instance) -> Instance:
        """Evaluate a mapping set; returns the final target datasets
        (intermediate relations are computed internally and not
        returned)."""
        targets, _intermediates = self.run(mappings, instance)
        return targets

    def run(self, mappings: MappingSet, instance: Instance):
        """Like :meth:`execute` but also returns the intermediate
        relations' datasets keyed by name."""
        targets, intermediates, _rejected = self._run_impl(mappings, instance)
        return targets, intermediates

    def run_with_rejects(self, mappings: MappingSet, instance: Instance):
        """Like :meth:`run`, additionally returning the rows rejected
        under the ``reject`` policy as a dataset of the standard reject
        relation (:data:`~repro.resilience.REJECT_COLUMNS`)."""
        targets, intermediates, rejected = self._run_impl(mappings, instance)
        return targets, intermediates, rejects_dataset(rejected)

    def _run_impl(self, mappings: MappingSet, instance: Instance):
        planner, ladder = start_run(
            self.options, mappings, self.registry, instance
        )
        order = mappings.in_dependency_order()
        run = _MappingRun(self, order, instance, ladder)
        run_waves(order, run, self.options, planner)
        final_names = set(mappings.final_target_names())
        targets = Instance()
        intermediates: Dict[str, Dataset] = {}
        for name, dataset in run.produced.items():
            if name in final_names:
                # re-validate against the declared target relation
                targets.put(dataset.with_relation(dataset.relation))
            else:
                intermediates[name] = dataset
        if self.catalog is not None:
            # close the feedback loop: produced relations become
            # observed actuals for the next estimate
            self.catalog.observe_instance(instance)
            for name, dataset in run.produced.items():
                self.catalog.observe_link(name, len(dataset))
        return targets, intermediates, run.rejected


class _MappingRun:
    """One run of one mapping set: its mappings as the scheduler's nodes
    (:class:`repro.exec.run.Nodes`), plus the run-scoped state their
    bookkeeping fills — never the executor's.

    A mapping depends on *every* producer of each source relation it
    reads (matching :meth:`MappingSet.in_dependency_order`), so two
    producers of one shared target may share a wave — their merge order
    is the dependency order, exactly as in the serial loop — while any
    reader of that target lands strictly later."""

    unit = "mappings"

    def __init__(self, executor: MappingExecutor, order, instance, ladder):
        self.executor = executor
        self.ladder = ladder
        self.metrics = executor.options.obs.metrics
        self.rejected: List[RejectedRow] = []
        self.produced: Dict[str, Dataset] = {}
        #: the sources plus every relation produced so far; compute only
        #: reads it
        self.working = Instance()
        for dataset in instance:
            self.working.put(dataset)
        self.producers: Dict[str, List[int]] = {}
        for mapping in order:
            self.producers.setdefault(mapping.target.name, []).append(
                id(mapping)
            )

    key = staticmethod(id)

    def parents(self, mapping):
        return (
            producer
            for binding in mapping.sources
            for producer in self.producers.get(binding.relation.name, ())
            if producer != id(mapping)
        )

    def name(self, mapping) -> str:
        return mapping.name

    def prepare(self, mapping):
        ctx = ErrorContext(mapping.name, self.executor.on_error)
        return ctx, ctx

    def compute(self, mapping, ctx):
        """One mapping through the degradation ladder."""
        return self.ladder.attempt(
            lambda planner: self.executor.execute_mapping(
                mapping, self.working, errors=ctx, planner=planner
            ),
            ctx,
            self.metrics,
        )

    def book(self, mapping, ctx, result) -> None:
        """Publish row-error outcomes, union (bag) into a shared target,
        make the result visible to later mappings."""
        dataset, _seconds = result()
        self.rejected.extend(ctx.rejected)
        ctx.publish(self.metrics)
        existing = self.produced.get(mapping.target.name)
        if existing is not None:
            merged = Dataset(existing.relation, validate=False)
            merged.extend(existing.rows, validate=False)
            merged.extend(dataset.rows, validate=False)
            dataset = merged
        self.produced[mapping.target.name] = dataset
        self.working.put(dataset)


def execute_mappings(
    mappings: MappingSet,
    instance: Instance,
    registry: Optional[FunctionRegistry] = None,
    obs: Optional[Observability] = None,
    **options,
) -> Instance:
    """Convenience wrapper over :class:`MappingExecutor` (``options``
    are its keywords)."""
    return MappingExecutor(registry, obs, **options).execute(mappings, instance)


__all__ = ["MappingExecutor", "execute_mappings"]

"""Execution of mappings over data instances.

OHM is the hub (paper section VI-A): a mapping set is compiled into an
OHM instance by the Figure 9 template and only then deployed — or run.
:class:`MappingExecutor` vets the mapping set with the analyzer, lowers
it with :func:`~repro.mapping.to_ohm.mappings_to_ohm` and runs the
graph as the :class:`~repro.ohm.engine.OhmExecutor` it is — same
options (resolved once), tiers, hash joins, fallback, supervisor, spill.
:meth:`MappingExecutor.run` returns the graph run's
:class:`~repro.exec.run.RunResult`, mapped back by name: targets by
relation; ``rows`` and the kept ``edges`` are the intermediate
relations', read from the edges named after them; rejects as the graph
run recorded them (``stage`` is the lowered operator's uid,
``M1.filter2``; ``docs/robustness.md``). Mappings sharing a target
bag-union (VI-A).

``compiled=False`` is the *reference reading* of a mapping formula and
shares nothing with the lowering: the product of the source bindings,
``where`` over each combination, grouping by the group-by expressions,
then the derivations (underived nullable columns get NULL; under a
skip/reject policy a combination on which a per-row expression of a
grouping mapping raises is taken by the policy before grouping) — on
:class:`~repro.expr.evaluator.Environment` and the tree-walking
:func:`~repro.expr.evaluator.evaluate`, row error policy and supervisor
at mapping boundaries. No planner, no join planning: the independent
oracle the lowering is checked against
(``tests/mapping/test_join_plan.py``), kept small rather than fast.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Collection, Dict, List, Optional

from repro.data.dataset import Dataset, Instance, Row
from repro.errors import ExecutionError
from repro.exec import kernels
from repro.exec.run import RunResult, check_keep, start_run
from repro.expr.algebra import transform
from repro.expr.ast import AggregateCall, Expr, Literal
from repro.expr.evaluator import (
    Environment,
    evaluate,
    evaluate_aggregate,
    evaluate_predicate,
)
from repro.mapping.model import Mapping, MappingSet
from repro.mapping.to_ohm import mappings_to_ohm
from repro.ohm.engine import OhmExecutor
from repro.resilience import ErrorContext, RejectedRow, rejects_dataset

#: The hop brake: dead weight, on purpose (ROADMAP item 1's hop rule).
#: A benchmark comparison bounds the spread of ``paper-mappings``'
#: ``units_per_s`` by 25 % of the earlier run's median, so it cannot
#: resolve a step over ~3x; a lowered run is 21x the interpreter it
#: replaced (0.194 -> 0.0094 s/op). Every lowered run therefore counts to
#: this number (~17 ms), and the brake comes out in steps of at most ~3x:
#: 3 000 000, now 1 000 000, next 300 000, then gone.
_HOP_BRAKE = 1_000_000


class MappingExecutor(OhmExecutor):
    """Runs mappings by lowering them to OHM; with ``compiled=False``,
    reads them directly (the reference).

    Keywords are :class:`~repro.ohm.engine.OhmExecutor`'s, each readable
    back as an attribute; an executor carries no run-scoped state."""

    def run(
        self,
        mappings: MappingSet,
        instance: Optional[Instance] = None,
        *,
        keep: Collection[str] = (),
    ) -> RunResult:
        """Evaluate a mapping set: the final target datasets, the
        rejected rows, every intermediate relation's row count, and the
        datasets of the intermediate relations named in ``keep``."""
        # the analyzer vets the mapping set itself, before the lowering
        # can object to it and before row one
        planner = start_run(self.options, mappings, self.registry)
        intermediate = mappings.intermediate_relation_names()
        keep = check_keep(keep, intermediate)
        instance = instance or Instance()
        if not self.compiled:
            return self._run_reference(mappings, instance, keep)
        # every intermediate relation is an edge of the uncleaned graph
        graph = mappings_to_ohm(mappings, cleanup=False)
        run = self._run_graph(graph, instance, planner, keep)
        # compiled TARGET delivery is trusted; a mapping's is validated
        # against the declared target relation, as the reference's is
        targets = Instance(d.with_relation(d.relation) for d in run.targets)
        sum(range(_HOP_BRAKE))  # not semantics: see _HOP_BRAKE
        return RunResult(
            targets,
            rejects_dataset(run.rejected),
            {name: run.rows[name] for name in intermediate},
            run.edges,
        )

    # -- the reference reading (compiled=False) ----------------------------------

    def _run_reference(
        self, mappings: MappingSet, instance: Instance, keep
    ) -> RunResult:
        supervisor = self.options.supervisor
        metrics = self._obs.metrics
        working = Instance(instance)  # plus every relation produced so far
        produced: Dict[str, Dataset] = {}
        rejected: List[RejectedRow] = []
        for mapping in mappings.in_dependency_order():
            if supervisor is not None:
                supervisor.check(mapping.name)
            ctx = ErrorContext(mapping.name, self.on_error)
            dataset = self._read(mapping, working, ctx)
            rejected.extend(ctx.rejected)
            ctx.publish(metrics)
            existing = produced.get(mapping.target.name)
            if existing is not None:  # a shared target: bag union
                dataset = Dataset(
                    mapping.target, existing.rows + dataset.rows, validate=False
                )
            produced[mapping.target.name] = dataset
            working.put(dataset)
            if supervisor is not None:
                supervisor.committed(mapping.name)
        targets = Instance()
        rows: Dict[str, int] = {}
        final_names = set(mappings.final_target_names())
        for name, dataset in produced.items():
            if name in final_names:
                # validate against the declared target relation
                targets.put(dataset.with_relation(dataset.relation))
            else:
                rows[name] = len(dataset)
        if self.catalog is not None:  # actuals for the next estimate
            self.catalog.observe_instance(instance)
            self.catalog.observe_link_counts(
                {name: len(dataset) for name, dataset in produced.items()}
            )
        return RunResult(
            targets,
            rejects_dataset(rejected),
            rows,
            {name: produced[name] for name in keep},
        )

    def _read(
        self, mapping: Mapping, instance: Instance, ctx: ErrorContext
    ) -> Dataset:
        """One mapping formula, read literally."""
        for binding in mapping.sources:
            if binding.relation.name not in instance:
                raise ExecutionError(
                    f"mapping source relation {binding.relation.name!r} not "
                    "present in instance"
                )
        inputs = [instance.dataset(b.relation.name) for b in mapping.sources]
        if mapping.is_opaque:
            if mapping.executor is None:
                raise ExecutionError(
                    f"opaque mapping {mapping.name} ({mapping.reference!r}) "
                    "has no executable behaviour bound"
                )
            rows = [dict(row) for row in mapping.executor(inputs)]
            return Dataset(mapping.target, rows, validate=False)
        registry = self.registry
        variables = [b.var for b in mapping.sources]
        if len(variables) == 1:
            # the reject channel records the source row, or the
            # per-variable rows of a combination
            def row_of(env):
                return env.bindings[variables[0]]
        else:
            def row_of(env):
                return {var: dict(env.bindings[var]) for var in variables}

        absorb = ctx.kernel_handler(row_of=row_of)  # None under fail_fast
        satisfying: List[Environment] = []
        # the product is enumerated, never held: only what satisfies is
        for index, combination in enumerate(
            itertools.product(*(d.rows for d in inputs))
        ):
            env = Environment(**dict(zip(variables, combination)))
            try:
                if evaluate_predicate(mapping.where, env, registry):
                    satisfying.append(env)
            except Exception as exc:  # any row error; absorb takes only a data error
                if absorb is None:
                    raise
                absorb(index, env, exc)
        nulls: Row = {attr.name: None for attr in mapping.target}
        if not mapping.is_grouping:
            rows = kernels.project_rows(
                satisfying,
                [
                    (col, lambda env, _e=expr: evaluate(_e, env, registry))
                    for col, expr in mapping.derivations
                ],
                defaults=nulls,
                obs=self._obs,
                on_error=absorb,
            )
            return Dataset(mapping.target, rows, validate=False)
        if absorb is not None:
            # what the lowering computes per row before its GROUP — the
            # group-by expressions, the grouped scalars and every
            # aggregate's argument — is what takes a row error per row
            per_row = list(mapping.group_by)
            for _col, expr in mapping.derivations:
                if not expr.contains_aggregate():
                    per_row.append(expr)
                per_row.extend(
                    node.arg
                    for node in expr.walk()
                    if isinstance(node, AggregateCall) and node.arg is not None
                )
            satisfying = kernels.rows_that_evaluate(
                satisfying,
                [partial(evaluate, expr, registry=registry) for expr in per_row],
                None,
                absorb,
            )
        groups: Dict[tuple, List[Environment]] = {}  # in first-seen order
        for env in satisfying:
            key = tuple(
                kernels.group_key_value(evaluate(expr, env, registry))
                for expr in mapping.group_by
            )
            groups.setdefault(key, []).append(env)

        def over(members: List[Environment], expr: Expr):
            """``expr`` for one group: each aggregate call folded over
            the members, the scalar around it read on the first one."""

            def fold(node: Expr) -> Optional[Expr]:
                if isinstance(node, AggregateCall):
                    return Literal(evaluate_aggregate(node, members, registry))
                return None

            return evaluate(transform(expr, fold), members[0], registry)

        rows = [
            dict(
                nulls,
                **{col: over(members, expr) for col, expr in mapping.derivations},
            )
            for members in groups.values()
        ]
        return Dataset(mapping.target, rows, validate=False)


__all__ = ["MappingExecutor"]

"""repro.exec — the shared compiled execution core.

Every runtime in the reproduction (the OHM engine, the ETL stages, the
mapping executor) dispatches row work onto :mod:`repro.exec.kernels`
and lowers expressions through an :class:`ExpressionPlanner`, so the
operator semantics of the paper's abstract model are implemented
exactly once.

There are two expression implementations: the tree-walking evaluator
(:mod:`repro.expr.evaluator`, the semantic oracle), which is every row
closure the planner hands out, and the column compiler
(:mod:`repro.exec.compile_block`). A planner runs at one of two tiers,
and the ``compiled`` option is the only thing that picks one:

* *compiled* (the default): column kernels driven by selection-vector
  chains (:mod:`repro.exec.fuse`) that stay lazy across adjacent
  operators until a chain breaker or target delivery gathers them, and
  kernel output adopted as trusted;
* the *oracle* (``compiled=False``): row kernels over the evaluator,
  every kernel output copied and validated.

Each columnar operator therefore has one body, and the nine operators
stages and OHM share (FILTER, PROJECT, JOIN, GROUP, UNION, SPLIT, NEST,
UNNEST, TARGET) are written once, in :mod:`repro.exec.ops`. An
expression the column compiler cannot express identically sends its
operator to the row body, never changing results, and a columnar body
that fails reruns once on the operator's row body — the one fallback at
run time (:func:`repro.exec.ops.columnar_or_rows`). What
each option accepts and where its value comes from is the table in
``docs/execution-model.md`` ("Options"); a planner is immutable once
built.

How a run uses the two tiers — option resolution, the pre-run check,
the run's one planner, the supervised topological loop — is
:mod:`repro.exec.run`, the one harness under the three runtimes. This
package does not import it (it needs :mod:`repro.resilience`, which
imports the ETL stages, which import this package); the runtimes import
it directly.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro import config
from repro.data.dataset import Dataset
from repro.expr.ast import AggregateCall, Expr
from repro.expr.evaluator import evaluate, evaluate_aggregate, evaluate_predicate
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry

from repro.exec.compile_block import (
    aggregate_values_reducer,
    compile_block_expr,
    compile_block_predicate,
)
from repro.exec import block, fuse, kernels
from repro.exec.block import Fold, RowBlock
from repro.exec.fuse import FusedBlock

# -- kernel fault injection ---------------------------------------------------
#
# The fault harness (repro.faults) installs a process-wide hook that may
# wrap every closure the planner hands to the kernels. The hook receives
# (tier, kind, fn) — tier is "block" (a column function) or "rows" (a
# row closure), kind is "scalar" / "predicate" / "aggregate" — and
# returns fn or a wrapper
# that raises repro.errors.FaultInjected on the invocations the fault
# plan selects. With no hook installed (the normal case) the planner's
# hot path is untouched.

_kernel_fault_hook: Optional[Callable] = None


def set_kernel_fault_hook(hook: Optional[Callable]) -> None:
    """Install (or with ``None`` remove) the process-wide kernel fault
    hook. Test/diagnostics machinery only — see :mod:`repro.faults`."""
    global _kernel_fault_hook
    _kernel_fault_hook = hook


def kernel_fault_hook() -> Optional[Callable]:
    return _kernel_fault_hook


class ExpressionPlanner:
    """Hands the kernels their per-member closures and column functions.

    A row closure is always the evaluator's (:func:`scalar`,
    :func:`predicate`, :func:`aggregate`); a column function comes from
    the column compiler, only on a compiled planner. ``compiled`` is the
    planner's one tier field: it gates the column kernels and trusted
    materialization, so ``compiled=False`` is the copy-and-validate
    semantic oracle and shares no lowering with the compiled tier. An
    explicit ``compiled`` reads no process default.
    """

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        compiled: Optional[bool] = None,
    ) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        self.compiled: bool = config.resolve("compiled", compiled)

    def scalar(self, expr: Expr) -> Callable[[Any], Any]:
        """An ``env → value`` closure for ``expr``."""
        return self._faulted(
            "scalar", partial(evaluate, expr, registry=self.registry)
        )

    def predicate(self, expr: Expr) -> Callable[[Any], bool]:
        """An ``env → bool`` closure with SQL WHERE semantics (unknown
        filters out)."""
        return self._faulted(
            "predicate", partial(evaluate_predicate, expr, registry=self.registry)
        )

    def materialize(self, relation, rows, fresh: bool = False):
        """Materialize kernel output ``rows`` as a Dataset.

        The compiled strategy adopts ``fresh`` row lists wholesale (the
        kernels built them, nothing else aliases them); the interpreting
        oracle always goes through the legacy copy-per-row constructor,
        so ``compiled=False`` reproduces the original engines'
        materialization behaviour exactly."""
        if self.compiled and fresh and isinstance(rows, list):
            return Dataset.adopt(relation, rows)
        return Dataset(relation, rows, validate=False)

    # -- block (columnar) lowering --------------------------------------

    def block_scalar(self, expr: Expr, resolve) -> Optional[Callable]:
        """A ``RowBlock → column`` function for ``expr`` under the given
        column resolver, or ``None`` when the operator must take the row
        path (the oracle, or the expression isn't expressible
        column-wise). Compiled once per operator invocation — resolvers
        are call-site-specific, so these are not cached planner-wide."""
        if not self.compiled:
            return None
        fn = compile_block_expr(expr, self.registry, resolve)
        return None if fn is None else self._faulted("scalar", fn, "block")

    def block_predicate(self, expr: Expr, resolve) -> Optional[Callable]:
        """A ``RowBlock → bool column`` function with SQL WHERE semantics
        (True only where definitely true), or ``None`` for row fallback."""
        if not self.compiled:
            return None
        fn = compile_block_predicate(expr, self.registry, resolve)
        return None if fn is None else self._faulted("predicate", fn, "block")

    def block_aggregate(self, agg: AggregateCall, resolve):
        """``(values_fn, reducer)`` for columnar grouped aggregation —
        ``values_fn`` evaluates the argument once over a whole block,
        ``reducer`` folds one group's gathered values — a
        :class:`~repro.exec.block.Fold` naming the function when it is
        a SUM, COUNT, AVG, MIN or MAX without DISTINCT — or is the
        member position a FIRST / LAST picks (0 / -1). ``(None, None)``
        is ``COUNT(*)`` (group size); a bare ``None`` means row
        fallback."""
        if not self.compiled:
            return None
        if agg.arg is None:
            return (None, None)
        values_fn = compile_block_expr(agg.arg, self.registry, resolve)
        if values_fn is None:
            return None
        values_fn = self._faulted("aggregate", values_fn, "block")
        reducer = aggregate_values_reducer(agg)
        if agg.func in ("SUM", "COUNT", "AVG", "MIN", "MAX") and not agg.distinct:
            reducer = Fold(agg.func, reducer)
        return (values_fn, reducer)

    # -- chains: the one columnar body ------------------------------------

    def fused_chain(self, dataset, obs=None) -> Optional[FusedBlock]:
        """Continue the upstream chain of a fused-backed ``dataset``, or
        open one over its block; ``None`` on the oracle — the caller then
        runs its row body. A chain body hands its output on with
        ``Dataset.adopt_fused``: columns are gathered only when a
        consumer breaks the chain or at target delivery."""
        if not self.compiled:
            return None
        chain = dataset.peek_fused()
        if chain is not None:
            return chain
        return fuse.fuse_source(dataset.as_block(), obs)

    def materialize_block(self, relation, rowblock: RowBlock):
        """Adopt a kernel-output block as a Dataset without converting
        through rows — the columnar analogue of ``materialize(...,
        fresh=True)``. Only called on block paths, which only a compiled
        (trusted) planner runs."""
        return Dataset.adopt_block(relation, rowblock)

    def aggregate(self, agg: AggregateCall) -> Callable[[list], Any]:
        """A ``members → value`` closure over a group of rows or
        environments."""
        return self._faulted(
            "aggregate", partial(evaluate_aggregate, agg, registry=self.registry)
        )

    def _faulted(self, kind: str, fn: Callable, tier: str = "rows"):
        """Hand ``fn`` to the installed kernel fault hook (if any),
        labelled ``block`` (a column function) or ``rows`` (a row
        closure, on either planner)."""
        hook = _kernel_fault_hook
        if hook is None:
            return fn
        return hook(tier, kind, fn)


__all__ = [
    "ExpressionPlanner",
    "FusedBlock",
    "RowBlock",
    "aggregate_values_reducer",
    "block",
    "compile_block_expr",
    "compile_block_predicate",
    "fuse",
    "kernel_fault_hook",
    "kernels",
    "set_kernel_fault_hook",
]

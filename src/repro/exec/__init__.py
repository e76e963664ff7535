"""repro.exec — the shared compiled execution core.

Every runtime in the reproduction (the OHM engine, the ETL stages, the
mapping executor) dispatches row work onto :mod:`repro.exec.kernels`
and lowers expressions through an :class:`ExpressionPlanner`, so the
operator semantics of the paper's abstract model are implemented
exactly once.

There are two expression implementations: the tree-walking evaluator
(:mod:`repro.expr.evaluator`, the semantic oracle), which is every row
closure the planner hands out, and the column compiler
(:mod:`repro.exec.compile_block`). The planner runs at one of five
tiers: the *oracle* (``compiled=False``: row kernels, and every
kernel output copied and validated); *rows* (the same row kernels,
their output adopted as trusted); *batched* column kernels driven by
selection-vector chains (:mod:`repro.exec.fuse`) that are gathered
into a :class:`repro.exec.block.RowBlock` at every operator boundary;
*fused*, the same chains left lazy across adjacent operators; and
*parallel*, the block tier with the independent nodes of a topological
wave computing on a worker pool (:mod:`repro.exec.parallel` — a
scheduler, not a second set of kernels). Each columnar operator
therefore has one body — :meth:`ExpressionPlanner.materialize_fused`
is where the batched and the fused tier part — and the nine operators
stages and OHM share (FILTER, PROJECT, JOIN, GROUP, UNION, SPLIT,
NEST, UNNEST, TARGET) are written once, in :mod:`repro.exec.ops`. An
expression the column compiler cannot express identically sends its
operator to the row body, never changing results; a row error a
columnar body raises under a skip/reject policy replays on the
operator's row body (:func:`repro.exec.ops.columnar_or_rows`).
:func:`resolve_tier` is the
one statement of how the ``compiled`` / ``batched`` / ``fused`` /
``parallel`` / ``workers`` / ``mode`` options combine into a tier; what
each option accepts and where its value comes from is the table in
``docs/execution-model.md`` ("Options"). With no option stated the
tier is *fused* — ``batched`` and ``fused`` default on — and
``mode="auto"`` is a name for that default: nothing re-decides a tier
per run, and a planner is immutable once built.

How a run uses these tiers — option resolution, the degradation ladder
(the run's tier, then the oracle), the supervised wavefront scheduler —
is :mod:`repro.exec.run`, the one
harness under the three runtimes. This package does not import it (it
needs :mod:`repro.resilience`, which imports the ETL stages, which
import this package); the runtimes import it directly.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple, Optional

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
from repro.exec import block, fuse, kernels, parallel
from repro.exec.block import RowBlock
from repro.exec.fuse import FusedBlock
from repro.exec.parallel import WorkerPool, set_default_executor


class Tier(NamedTuple):
    """The six tier options of one engine, resolved together."""

    compiled: bool
    #: block kernels; implies ``compiled``.
    batched: bool
    #: selection-vector chains stay lazy across operator boundaries;
    #: implies ``batched``.
    fused: bool
    #: wavefront scheduling (the run harness's; no planner reads it).
    parallel: bool
    workers: int
    mode: Optional[str]


def resolve_tier(
    compiled: Optional[bool] = None,
    batched: Optional[bool] = None,
    fused: Optional[bool] = None,
    parallel: Optional[bool] = None,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
) -> Tier:
    """The flags-and-mode → tier rule, read through :mod:`repro.config`
    (a ``None`` keyword is the process default).

    Each tier builds on the one below, so ``compiled`` gates ``batched``
    (``REPRO_COMPILED=0`` stays a pure row-at-a-time oracle run even
    with ``REPRO_BATCH=1``) and ``batched`` gates ``fused``; fanning out
    takes two workers. A ``mode`` overrides the flags: ``"rows"`` /
    ``"block"`` / ``"parallel"`` pin the tier (``"parallel"`` is
    ``"block"`` plus the wavefront), ``"auto"`` names the default tier —
    block kernels, exactly what no mode and no ``batched`` setting
    resolve to. ``auto`` names kernels, not the scheduler: under it, as
    without a mode, ``parallel`` is the option's value and does not need
    ``batched`` — a wavefront over row kernels is still a wavefront."""
    resolve = config.resolve
    compiled = resolve("compiled", compiled)
    batched = compiled and resolve("batched", batched)
    workers = resolve("workers", workers)
    parallel = workers >= 2 and resolve("parallel", parallel)
    fused = resolve("fused", fused)
    mode = resolve("mode", mode)
    if mode == "rows":
        batched = parallel = False
    elif mode == "block":
        batched, parallel = compiled, False
    elif mode == "parallel":
        batched = compiled
        parallel = batched and workers >= 2
    elif mode == "auto":
        batched = compiled
    fused = batched and fused
    return Tier(compiled, batched, fused, parallel, workers, mode)


# -- kernel fault injection ---------------------------------------------------
#
# The fault harness (repro.faults) installs a process-wide hook that may
# wrap every closure the planner hands to the kernels. The hook receives
# (tier, kind, fn) — tier is "block" / "compiled" / "oracle", kind is
# "scalar" / "predicate" / "aggregate" — and returns fn or a wrapper
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
    the column compiler, only on a batched planner. ``compiled`` gates
    ``batched`` and trusted materialization, so ``compiled=False`` is the
    copy-and-validate semantic oracle and shares no lowering with any
    other tier.
    """

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        compiled: Optional[bool] = None,
        batched: Optional[bool] = None,
        mode: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        self._at(registry, resolve_tier(compiled, batched, fused, mode=mode))

    @classmethod
    def at(
        cls, registry: Optional[FunctionRegistry], tier: Tier
    ) -> "ExpressionPlanner":
        """A planner at an already resolved ``tier`` — how a run builds
        its planner and its ladder's rungs; reads no process default."""
        planner = cls.__new__(cls)
        planner._at(registry, tier)
        return planner

    def _at(self, registry: Optional[FunctionRegistry], tier: Tier) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        self.compiled = tier.compiled
        self.batched = tier.batched
        self.fused = tier.fused

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
        path (batched mode off, or the expression isn't expressible
        column-wise). Compiled once per operator invocation — resolvers
        are call-site-specific, so these are not cached planner-wide."""
        if not self.batched:
            return None
        fn = compile_block_expr(expr, self.registry, resolve)
        return None if fn is None else self._faulted("scalar", fn, "block")

    def block_predicate(self, expr: Expr, resolve) -> Optional[Callable]:
        """A ``RowBlock → bool column`` function with SQL WHERE semantics
        (True only where definitely true), or ``None`` for row fallback."""
        if not self.batched:
            return None
        fn = compile_block_predicate(expr, self.registry, resolve)
        return None if fn is None else self._faulted("predicate", fn, "block")

    def block_aggregate(self, agg: AggregateCall, resolve):
        """``(values_fn, reducer)`` for columnar grouped aggregation —
        ``values_fn`` evaluates the argument once over a whole block,
        ``reducer`` folds one group's gathered values, or is the member
        position a FIRST / LAST picks (0 / -1). ``(None, None)`` is
        ``COUNT(*)`` (group size); a bare ``None`` means row
        fallback."""
        if not self.batched:
            return None
        if agg.arg is None:
            return (None, None)
        values_fn = compile_block_expr(agg.arg, self.registry, resolve)
        if values_fn is None:
            return None
        values_fn = self._faulted("aggregate", values_fn, "block")
        return (values_fn, aggregate_values_reducer(agg))

    # -- chains: the one columnar body, fused or gathered ----------------

    def fused_chain(self, dataset, obs=None) -> Optional[FusedBlock]:
        """Open (or continue) a selection-vector chain over ``dataset``,
        or ``None`` when this planner is not batched — the caller then
        runs its row body. A fusing planner continues the upstream chain
        of a fused-backed dataset; a batched planner that does not fuse
        always starts afresh over the dataset's block, and unobserved:
        its chains live for one operator (:meth:`materialize_fused`
        gathers them), so they book no ``exec.fuse.*``."""
        if not self.batched:
            return None
        if not self.fused:
            return fuse.fuse_source(dataset.as_block())
        chain = dataset.peek_fused()
        if chain is not None:
            return chain
        return fuse.fuse_source(dataset.as_block(), obs)

    def materialize_fused(self, relation, chain: FusedBlock):
        """A chain body's output as a Dataset — where the fused and the
        block tier part. Fusing, the chain is adopted lazily:
        columns are gathered only if/when a downstream consumer breaks
        the chain (``Dataset.as_block``/``.rows``) or at target
        delivery. Otherwise it is gathered here and now into a
        block-backed dataset: the block tier *is* the chain
        materialized at every operator boundary."""
        if self.fused:
            return Dataset.adopt_fused(relation, chain)
        return Dataset.adopt_block(relation, fuse.materialize_fused(chain))

    def materialize_block(self, relation, rowblock: RowBlock):
        """Adopt a kernel-output block as a Dataset without converting
        through rows — the columnar analogue of ``materialize(...,
        fresh=True)``. Only called on block paths (which only run in
        batched mode, which implies compiled/trusted)."""
        return Dataset.adopt_block(relation, rowblock)

    def aggregate(self, agg: AggregateCall) -> Callable[[list], Any]:
        """A ``members → value`` closure over a group of rows or
        environments."""
        return self._faulted(
            "aggregate", partial(evaluate_aggregate, agg, registry=self.registry)
        )

    def _faulted(self, kind: str, fn: Callable, tier: Optional[str] = None):
        """Hand ``fn`` to the installed kernel fault hook (if any). A
        column function is labelled ``block`` — fused or gathered, a
        chain runs the same functions — and a row closure ``compiled`` or
        ``oracle``, after the planner it runs on."""
        hook = _kernel_fault_hook
        if hook is None:
            return fn
        return hook(tier or ("compiled" if self.compiled else "oracle"), kind, fn)


def degrade_counter(prev: "ExpressionPlanner") -> str:
    """The ``exec.degrade.*`` counter name for falling from the tier the
    planner ``prev`` ran at to the oracle, the ladder's one lower rung —
    shared by every runtime so the names are written once."""
    if prev.fused:
        return "exec.degrade.fused_to_oracle"
    if prev.batched:
        return "exec.degrade.block_to_oracle"
    return "exec.degrade.rows_to_oracle"


__all__ = [
    "ExpressionPlanner",
    "FusedBlock",
    "RowBlock",
    "Tier",
    "WorkerPool",
    "aggregate_values_reducer",
    "block",
    "compile_block_expr",
    "compile_block_predicate",
    "degrade_counter",
    "fuse",
    "kernel_fault_hook",
    "kernels",
    "parallel",
    "resolve_tier",
    "set_default_executor",
    "set_kernel_fault_hook",
]

"""repro.exec — the shared compiled execution core.

Every runtime in the reproduction (the OHM engine, the ETL stages, the
mapping executor) dispatches row work onto :mod:`repro.exec.kernels`
and lowers expressions through an :class:`ExpressionPlanner`, so the
operator semantics of the paper's abstract model are implemented
exactly once.

The planner has two strategies:

* ``compiled=True`` (the default) — expressions are lowered once per
  operator by :mod:`repro.exec.compile_expr` into plain Python
  closures;
* ``compiled=False`` — each closure defers to the tree-walking
  interpreter (:mod:`repro.expr.evaluator`), the semantic oracle.

The default is process-wide: :func:`set_default_compiled` overrides it
programmatically (the CLI's ``--interpreted`` flag), and the
``REPRO_COMPILED`` environment variable overrides it from outside
(``REPRO_COMPILED=0`` keeps CI's oracle runs green). Engine
constructors accept ``compiled=None`` meaning "use the default".

On top of the compiled tier sits the *batched* (columnar) tier: block
kernels over :class:`repro.exec.block.RowBlock` columns with
expressions lowered by :mod:`repro.exec.compile_block`. It resolves the
same way — ``batched=True`` engine kwargs, :func:`set_default_batched`
(the CLI's ``--row-mode`` / ``--batch-size`` flags), or the
``REPRO_BATCH`` environment variable (``REPRO_BATCH=1`` switches it on;
an integer > 1, or ``REPRO_BATCH_SIZE``, also sets the batch size).
Batched execution requires the compiler, so under the interpreting
oracle (``compiled=False``) it switches itself off — and operators the
block tier cannot express identically fall back to the row kernels per
operator, never changing results.

The fourth tier is *parallel* execution (:mod:`repro.exec.parallel`):
independent stages run as topological wavefronts and the block join /
grouped-aggregation kernels partition by key hash across a worker pool,
deterministically (results stay bit-identical to serial runs). It
resolves through the same triad — ``parallel=True`` / ``workers=N``
engine kwargs, :func:`set_default_parallel` / :func:`set_default_workers`
(the CLI's ``--workers N``), or ``REPRO_PARALLEL`` / ``REPRO_WORKERS``
— and a failing worker degrades to the serial path per operator
(``exec.degrade.parallel_to_serial``). See ``docs/execution-model.md``
for the full five-tier handbook.

The fifth tier is *fused* execution (:mod:`repro.exec.fuse`): adjacent
block operators chain through selection vectors instead of
materializing an intermediate ``RowBlock`` per operator, gathering
columns once at the chain's single materialization point (and only the
columns downstream readers reference). It rides on the batched tier and
is on by default there — ``fused=False`` engine kwargs,
:func:`set_default_fused` (the CLI's ``--no-fuse``), or ``REPRO_FUSE=0``
switch it off — and any chain whose operators decline to fuse falls
back to the unfused block kernels per chain
(``exec.degrade.fused_to_block``), never changing results.

How a run uses these tiers — option resolution, the degradation ladder,
the supervised wavefront scheduler — is :mod:`repro.exec.run`, the one
harness under the three runtimes. This package does not import it (it
needs :mod:`repro.resilience`, which imports the ETL stages, which
import this package); the runtimes import it directly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro import config
from repro.data.dataset import Dataset
from repro.expr.ast import AggregateCall, Expr
from repro.expr.evaluator import (
    Environment,
    evaluate,
    evaluate_aggregate,
    evaluate_predicate,
)
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry

from repro.exec.compile_expr import (
    compile_aggregate,
    compile_expr,
    compile_predicate,
    is_foldable,
)
from repro.exec.compile_block import (
    aggregate_values_reducer,
    compile_block_expr,
    compile_block_predicate,
)
from repro.exec import block, fuse, kernels, parallel
from repro.exec.block import RowBlock
from repro.exec.fuse import FusedBlock
from repro.exec.parallel import (
    WorkerPool,
    default_parallel,
    default_workers,
    resolve_parallel,
    resolve_workers,
    set_default_executor,
    set_default_parallel,
    set_default_workers,
    set_parallel_threshold,
)

#: default rows per block in batched mode (overridable per engine, via
#: ``set_default_batch_size``, or with ``REPRO_BATCH_SIZE``); the
#: authoritative value lives in the central knob registry,
#: :mod:`repro.config`.
DEFAULT_BATCH_SIZE = config.DEFAULT_BATCH_SIZE


def default_compiled() -> bool:
    """The process-wide compiled-mode default: a
    :func:`set_default_compiled` override wins, else the
    ``REPRO_COMPILED`` environment variable, else True."""
    return config.COMPILED.default()


def set_default_compiled(value: Optional[bool]) -> None:
    """Override the process-wide compiled default (None restores the
    environment-variable/True resolution)."""
    config.COMPILED.set(value)


def resolve_compiled(value: Optional[bool]) -> bool:
    """Resolve an engine constructor's ``compiled`` argument: an
    explicit True/False wins, None means the process default."""
    return default_compiled() if value is None else bool(value)


def default_batched() -> bool:
    """The process-wide batched-mode default: a
    :func:`set_default_batched` override wins, else the ``REPRO_BATCH``
    environment variable (any non-false value enables), else False."""
    return config.BATCHED.default()


def set_default_batched(value: Optional[bool]) -> None:
    """Override the process-wide batched default (None restores the
    environment-variable/False resolution)."""
    config.BATCHED.set(value)


def resolve_batched(value: Optional[bool]) -> bool:
    """Resolve an engine constructor's ``batched`` argument: an explicit
    True/False wins, None means the process default."""
    return default_batched() if value is None else bool(value)


def default_batch_size() -> int:
    """The process-wide batch size: a :func:`set_default_batch_size`
    override wins, else ``REPRO_BATCH_SIZE``, else an integer
    ``REPRO_BATCH`` value > 1 (so ``REPRO_BATCH=4096`` both enables
    batching and sizes the blocks), else :data:`DEFAULT_BATCH_SIZE`."""
    return config.BATCH_SIZE.default()


def set_default_batch_size(value: Optional[int]) -> None:
    """Override the process-wide batch size (None restores the
    environment-variable/:data:`DEFAULT_BATCH_SIZE` resolution)."""
    config.BATCH_SIZE.set(value)


def resolve_batch_size(value: Optional[int]) -> int:
    """Resolve an engine constructor's ``batch_size`` argument: an
    explicit size wins, None means the process default."""
    return config.BATCH_SIZE.resolve(value)


def default_fused() -> bool:
    """The process-wide fused-pipeline default: a
    :func:`set_default_fused` override wins, else ``REPRO_FUSE=0``
    disables, else True (fusion is on whenever batching is)."""
    return config.FUSED.default()


def set_default_fused(value: Optional[bool]) -> None:
    """Override the process-wide fused default (None restores the
    environment-variable/True resolution)."""
    config.FUSED.set(value)


def resolve_fused(value: Optional[bool]) -> bool:
    """Resolve an engine constructor's ``fused`` argument: an explicit
    True/False wins, None means the process default."""
    return default_fused() if value is None else bool(value)


def default_mode() -> Optional[str]:
    """The process-wide execution-mode default: a
    :func:`set_default_mode` override wins, else ``REPRO_MODE``, else
    ``None`` (engines honour their per-flag resolution)."""
    return config.MODE.default()


def set_default_mode(value: Optional[str]) -> None:
    """Override the process-wide execution mode — ``"rows"``,
    ``"block"``, ``"parallel"``, or ``"auto"`` (None restores the
    environment-variable resolution)."""
    config.MODE.set(value)


def resolve_mode(value: Optional[str]) -> Optional[str]:
    """Resolve an engine constructor's ``mode`` argument: an explicit
    mode wins (validated), None means the process default — which is
    itself usually None, meaning "use the compiled/batched/parallel
    flags as given"."""
    if value is not None:
        return config.check_mode(value)
    return default_mode()


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
    """Lowers expressions to per-member closures for the kernels.

    One planner is built per run (or per operator batch) and caches the
    lowered closure per expression identity (`Expr.key()`), so an
    expression shared by several operators is lowered once. The
    ``compiled`` strategy decides whether lowering means real
    compilation or a thin wrapper over the interpreter — kernels never
    know the difference, which is what keeps ``compiled=False`` an
    everything-else-equal semantic oracle.
    """

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        compiled: Optional[bool] = None,
        batched: Optional[bool] = None,
        batch_size: Optional[int] = None,
        parallel: Optional[bool] = None,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
        fused: Optional[bool] = None,
    ) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        self.compiled = resolve_compiled(compiled)
        # the block tier builds on the compiler; under the interpreting
        # oracle it switches itself off so REPRO_COMPILED=0 stays a pure
        # row-at-a-time oracle run even with REPRO_BATCH=1
        self.batched = self.compiled and resolve_batched(batched)
        self.batch_size = resolve_batch_size(batch_size)
        # the parallel tier partitions *block* kernels, so it sits on top
        # of the batched tier the same way batched sits on compiled; a
        # worker count below 2 means there is nothing to fan out to
        self.workers = resolve_workers(workers)
        self.parallel = (
            self.batched and self.workers >= 2 and resolve_parallel(parallel)
        )
        # an explicit mode overrides the per-flag resolution above:
        # "rows"/"block"/"parallel" pin the tier, "auto" defers the
        # decision to tune_for() once the run's data size is known
        self.mode = resolve_mode(mode)
        if self.mode == "rows":
            self.batched = False
            self.parallel = False
        elif self.mode == "block":
            self.batched = self.compiled
            self.parallel = False
        elif self.mode == "parallel":
            self.batched = self.compiled
            self.parallel = self.batched and self.workers >= 2
        # the fused tier chains *block* operators, so it rides on the
        # batched tier (recomputed whenever tune_for() re-tiers)
        self._fused_requested = fused
        self.fused = self.batched and resolve_fused(fused)
        self._pool: Optional[WorkerPool] = None
        self._scalars: dict = {}
        self._predicates: dict = {}
        self._aggregates: dict = {}

    def tune_for(self, n_rows: int, model=None, memory_budget=None) -> str:
        """``mode="auto"``: pick the execution tier from the run's
        (estimated or actual) largest input cardinality via the cost
        model's crossovers (:func:`repro.cost.model.choose_tier`) and
        reconfigure this planner accordingly. A ``memory_budget``
        (resident-row ceiling) biases the choice toward the row tier
        once blocking operators would spill. Returns the chosen tier;
        a no-op (returning the current configuration's tier) for every
        other mode. Tier choice never changes results — block and
        partitioned kernels are bit-identical to the serial compiled
        path — only how fast they arrive."""
        if self.mode != "auto":
            if self.parallel:
                return "parallel"
            return "block" if self.batched else "rows"
        if model is None:
            from repro.cost.model import DEFAULT_MODEL as model
        tier = model.choose_tier(n_rows, self.workers, memory_budget)
        self.batched = self.compiled and tier in ("block", "parallel")
        self.parallel = self.batched and tier == "parallel"
        self.fused = self.batched and resolve_fused(self._fused_requested)
        return tier if self.compiled else "rows"

    def pool(self) -> WorkerPool:
        """The planner's worker pool (lazily built; threads by default,
        see :func:`repro.exec.parallel.set_default_executor`)."""
        if self._pool is None:
            self._pool = WorkerPool(self.workers)
        return self._pool

    def partitions_for(self, n_rows: int) -> int:
        """The degree of kernel parallelism chosen from the observed
        cardinality ``n_rows``: 0 when this planner is serial or the
        input is too small, else the data-size-driven partition count
        (:func:`repro.exec.parallel.partitions_for` — independent of the
        worker count, so results are too)."""
        if not self.parallel:
            return 0
        return parallel.partitions_for(n_rows)

    def scalar(self, expr: Expr) -> Callable[[Any], Any]:
        """An ``env → value`` closure for ``expr``."""
        key = expr.key()
        fn = self._scalars.get(key)
        if fn is None:
            if self.compiled:
                # kernels always bind real Environments, so dispatch the
                # raw compiled body (no bare-mapping conversion per call)
                fn = compile_expr(expr, self.registry).raw
            else:
                registry = self.registry

                def fn(env, _expr=expr, _registry=registry):
                    return evaluate(_expr, env, _registry)

            self._scalars[key] = fn
        return self._faulted("scalar", fn)

    def predicate(self, expr: Expr) -> Callable[[Any], bool]:
        """An ``env → bool`` closure with SQL WHERE semantics (unknown
        filters out)."""
        key = expr.key()
        fn = self._predicates.get(key)
        if fn is None:
            if self.compiled:
                fn = compile_predicate(expr, self.registry).raw
            else:
                registry = self.registry

                def fn(env, _expr=expr, _registry=registry):
                    return evaluate_predicate(_expr, env, _registry)

            self._predicates[key] = fn
        return self._faulted("predicate", fn)

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

    def block_scalar(
        self, expr: Expr, resolve, tier: str = "block"
    ) -> Optional[Callable]:
        """A ``RowBlock → column`` function for ``expr`` under the given
        column resolver, or ``None`` when the operator must take the row
        path (batched mode off, or the expression isn't expressible
        column-wise). Compiled once per operator invocation — resolvers
        are call-site-specific, so these are not cached planner-wide.
        Fused call sites pass ``tier="fused"`` so a poisoned fused chain
        can be targeted independently of the block tier."""
        if not self.batched:
            return None
        fn = compile_block_expr(expr, self.registry, resolve)
        return None if fn is None else self._faulted("scalar", fn, tier=tier)

    def block_predicate(
        self, expr: Expr, resolve, tier: str = "block"
    ) -> Optional[Callable]:
        """A ``RowBlock → bool column`` function with SQL WHERE semantics
        (True only where definitely true), or ``None`` for row fallback."""
        if not self.batched:
            return None
        fn = compile_block_predicate(expr, self.registry, resolve)
        return (
            None if fn is None else self._faulted("predicate", fn, tier=tier)
        )

    def block_aggregate(self, agg: AggregateCall, resolve, tier: str = "block"):
        """``(values_fn, reducer)`` for columnar grouped aggregation —
        ``values_fn`` evaluates the argument once over a whole block,
        ``reducer`` folds one group's gathered values. ``(None, None)``
        is ``COUNT(*)`` (group size); a bare ``None`` means row
        fallback."""
        if not self.batched:
            return None
        if agg.arg is None:
            return (None, None)
        values_fn = compile_block_expr(agg.arg, self.registry, resolve)
        if values_fn is None:
            return None
        values_fn = self._faulted("aggregate", values_fn, tier=tier)
        return (values_fn, aggregate_values_reducer(agg))

    # -- fused (selection-vector) lowering ------------------------------

    def fused_chain(self, dataset, obs=None) -> Optional[FusedBlock]:
        """Open (or continue) a fused chain over ``dataset``: the
        upstream chain when the dataset is already fused-backed, else a
        fresh chain over its columnar form. ``None`` when this planner
        doesn't fuse — callers then use the unfused block path."""
        if not self.fused:
            return None
        chain = dataset.peek_fused()
        if chain is not None:
            return chain
        return fuse.fuse_source(dataset.as_block(), obs)

    def materialize_fused(self, relation, chain: FusedBlock):
        """Adopt a fused chain as a lazily-backed Dataset — columns are
        gathered only if/when a downstream consumer breaks the chain
        (``Dataset.as_block``/``.rows``) or at target delivery."""
        return Dataset.adopt_fused(relation, chain)

    def materialize_block(self, relation, rowblock: RowBlock):
        """Adopt a kernel-output block as a Dataset without converting
        through rows — the columnar analogue of ``materialize(...,
        fresh=True)``. Only called on block paths (which only run in
        batched mode, which implies compiled/trusted)."""
        return Dataset.adopt_block(relation, rowblock)

    def aggregate(self, agg: AggregateCall) -> Callable[[list], Any]:
        """A ``members → value`` closure over a group of rows or
        environments."""
        key = agg.key()
        fn = self._aggregates.get(key)
        if fn is None:
            if self.compiled:
                fn = compile_aggregate(agg, self.registry)
            else:
                registry = self.registry

                def fn(members, _agg=agg, _registry=registry):
                    return evaluate_aggregate(_agg, members, _registry)

            self._aggregates[key] = fn
        return self._faulted("aggregate", fn)

    def _faulted(self, kind: str, fn: Callable, tier: Optional[str] = None):
        """Hand ``fn`` to the installed kernel fault hook (if any); the
        closure cache always stores the unwrapped function, so removing
        the hook restores clean execution. The fused tier chains the
        block tier's hook underneath its own: a fault plan targeting
        ``tier="block"`` fires in the fused path too (the fused chain IS
        the block tier's work), while ``tier="fused"`` targets only
        fused lowering."""
        hook = _kernel_fault_hook
        if hook is None:
            return fn
        if tier is None:
            tier = "compiled" if self.compiled else "oracle"
        if tier == "fused":
            fn = hook("block", kind, fn)
        return hook(tier, kind, fn)


def degrade_counter(prev: "ExpressionPlanner") -> str:
    """The ``exec.degrade.*`` counter name for falling off the tier the
    planner ``prev`` ran at — shared by every runtime's degradation
    ladder so the fused→block→rows→oracle rungs are named once."""
    if getattr(prev, "fused", False):
        return "exec.degrade.fused_to_block"
    if prev.batched:
        return "exec.degrade.block_to_rows"
    return "exec.degrade.rows_to_oracle"


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ExpressionPlanner",
    "FusedBlock",
    "RowBlock",
    "WorkerPool",
    "default_parallel",
    "default_workers",
    "parallel",
    "resolve_parallel",
    "resolve_workers",
    "set_default_executor",
    "set_default_parallel",
    "set_default_workers",
    "set_parallel_threshold",
    "aggregate_values_reducer",
    "block",
    "compile_aggregate",
    "compile_block_expr",
    "compile_block_predicate",
    "compile_expr",
    "compile_predicate",
    "default_batch_size",
    "default_batched",
    "default_compiled",
    "default_fused",
    "default_mode",
    "degrade_counter",
    "fuse",
    "resolve_fused",
    "resolve_mode",
    "set_default_fused",
    "set_default_mode",
    "is_foldable",
    "kernel_fault_hook",
    "kernels",
    "set_kernel_fault_hook",
    "resolve_batch_size",
    "resolve_batched",
    "resolve_compiled",
    "set_default_batch_size",
    "set_default_batched",
    "set_default_compiled",
]

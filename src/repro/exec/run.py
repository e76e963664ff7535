"""repro.exec.run — the one run harness under the three runtimes.

``EtlEngine`` and ``OhmExecutor`` differ in what a node *is* (a stage,
an operator) and in what they own beyond running nodes (endpoints and
checkpoints; the operator kernels); ``MappingExecutor`` lowers its
mappings to OHM and is an ``OhmExecutor`` from there. Everything else
about a run is written here once:

* :class:`RunOptions` — every engine keyword, resolved exactly once
  through :mod:`repro.config`;
* :class:`TierLadder` — the degradation ladder: the run's tier, then
  the interpreting oracle, pinned to its tier;
* :func:`start_run` and :func:`run_waves` — the pre-run check,
  supervision and the serial/wavefront scheduler over the
  :class:`Nodes` protocol.

``docs/execution-model.md`` ("The run harness") is the description.
The runtimes import this module directly: ``repro.exec`` does not load
it eagerly, because it needs :mod:`repro.resilience`, whose checkpoint
codec imports the ETL stages, which import ``repro.exec``.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import config
from repro.errors import STATIC_ERRORS, RunCancelled
from repro.exec import ExpressionPlanner, Tier, degrade_counter, resolve_tier
from repro.exec.parallel import WorkerPool, WorkerUnavailable, topological_waves
from repro.expr.functions import FunctionRegistry
from repro.obs import NULL_OBS, Observability
from repro.resilience import (
    ErrorContext,
    RetryPolicy,
    resolve_checkpoint,
    resolve_retry,
)
from repro.supervision import (
    CircuitBreaker,
    MemoryBudget,
    RunSupervisor,
    governed,
    resolve_breaker,
    resolve_memory_budget,
    resolve_supervisor,
)

T = TypeVar("T")

#: the options only a runtime with source/target endpoints takes (the
#: ETL engine); the OHM and mapping runtimes reject them as unknown.
ENDPOINT_OPTIONS = ("retry", "checkpoint", "breaker")

#: failures the ladder never retries: a cancellation is not a tier
#: failure, and a plan defect fails identically at every tier —
#: degrading would only bury the diagnosis under tier noise
_NEVER_DEGRADE = (RunCancelled, *STATIC_ERRORS)


class RunOptions(NamedTuple):
    """Every engine keyword, resolved once at engine construction.

    One field per keyword the engines take; the values are the resolved
    ones (a ``None`` keyword has already fallen through override,
    environment and default), so a run never consults
    :mod:`repro.config` again.
    Frozen as a named tuple, not a ``dataclass``: nothing else in the
    package imports ``dataclasses``, and it (with ``inspect``) would add
    10 ms to every import and 1 MiB to every process."""

    #: spans and metrics sink (the no-op bundle when none was given).
    obs: Observability
    #: allow the compiled tiers: column kernels, trusted
    #: materialization (``False``: the interpreting oracle).
    compiled: bool
    #: route block-capable nodes through the columnar kernels (needs the
    #: compiler; nodes fall back per operator). The default.
    batched: bool
    #: leave batched operators' selection-vector chains lazy across
    #: operator boundaries instead of gathering at each.
    fused: bool
    #: wavefront scheduling: independent nodes of one topological level
    #: compute concurrently on a worker pool.
    parallel: bool
    workers: int
    #: "rows"/"block"/"parallel" pin the tier, "auto" names the default
    #: one (block kernels; the scheduler still follows ``parallel``),
    #: None keeps the flags above.
    mode: Optional[str]
    #: run-level row error policy (a node may override it).
    on_error: str
    #: retry on the oracle rung of the :class:`TierLadder` after a tier
    #: failure (``False`` surfaces the first failure — useful when
    #: debugging a kernel).
    degrade: bool
    #: statistics catalog fed back with actuals after every run, or None.
    catalog: Any
    deadline: Optional[float]
    #: resident-row budget blocking kernels obey during runs, or None.
    memory_budget: Optional[MemoryBudget]
    #: deadline supervision, or None (then no per-boundary work at all).
    supervisor: Optional[RunSupervisor]
    #: vet the plan with :func:`repro.analysis.check_plan` before row one.
    check: bool
    #: retry policy for transient endpoint failures, or None.
    retry: Optional[RetryPolicy] = None
    #: checkpoint store for resumable runs, or None.
    checkpoint: Any = None
    #: circuit breaker guarding the endpoints, or None.
    breaker: Optional[CircuitBreaker] = None

    @classmethod
    def resolve(cls, endpoints: bool = True, **kwargs: Any) -> "RunOptions":
        """Resolve engine keywords (``None`` or absent: the process
        default). ``endpoints=False`` is a runtime without sources and
        targets of its own: :data:`ENDPOINT_OPTIONS` are then unknown
        keywords, and an unknown keyword is a ``TypeError``."""
        known = set(cls._fields)
        if not endpoints:
            known.difference_update(ENDPOINT_OPTIONS)
        for name in kwargs:
            if name not in known:
                raise TypeError(f"unexpected keyword argument {name!r}")
        get = kwargs.get
        obs = get("obs") or NULL_OBS
        tier = resolve_tier(
            get("compiled"), get("batched"), get("fused"), get("parallel"),
            get("workers"), get("mode"),
        )
        supervisor = resolve_supervisor(
            get("supervisor"), get("deadline"), obs=obs
        )
        return cls(
            obs=obs,
            **tier._asdict(),
            on_error=config.resolve("on_error", get("on_error")),
            degrade=bool(get("degrade", True)),
            catalog=get("catalog"),
            deadline=None if supervisor is None else supervisor.budget.deadline,
            memory_budget=resolve_memory_budget(get("memory_budget")),
            supervisor=supervisor,
            check=config.resolve("check", get("check")),
            retry=resolve_retry(get("retry")) if endpoints else None,
            checkpoint=resolve_checkpoint(get("checkpoint")) if endpoints else None,
            breaker=resolve_breaker(get("breaker")) if endpoints else None,
        )

    def planner(self, registry: Optional[FunctionRegistry]) -> ExpressionPlanner:
        """The planner of one run, at this engine's resolved tier."""
        tier = Tier(
            self.compiled, self.batched, self.fused, self.parallel,
            self.workers, self.mode,
        )
        return ExpressionPlanner.at(registry, tier)


class Runtime:
    """Base of the three runtimes: holds the resolved :class:`RunOptions`
    and exposes each one as a read-only attribute (``engine.batched``,
    ``engine.checkpoint``, …) with its constructor-time meaning — a run
    never writes engine state it would have to undo."""

    options: RunOptions

    def __init__(self, endpoints: bool, **options: Any) -> None:
        self.options = RunOptions.resolve(endpoints, **options)
        self._obs = self.options.obs

    def __getattr__(self, name: str) -> Any:
        # reached only when normal lookup fails; no options yet means an
        # instance still being constructed or copied
        options = self.__dict__.get("options")
        if options is None or name not in options._fields:
            raise AttributeError(name)
        return getattr(options, name)


class TierLadder:
    """The degradation ladder of one run: the run's planner, then —
    when that planner compiles and ``degrade`` is on — the interpreting
    oracle. Two rungs at most.

    A row error under a skip/reject policy never reaches the ladder (the
    operator absorbs it, :func:`repro.exec.ops.columnar_or_rows`), so
    what falls here is a tier failure: an injected fault or a kernel
    bug. The retry runs on the one body that shares no lowering with
    any compiled tier, pinned to its tier, so no process default
    (``REPRO_MODE``, ``REPRO_BATCH``, ``REPRO_FUSE`` …) can turn it back
    into a compiled one."""

    def __init__(self, planner: ExpressionPlanner, options: RunOptions) -> None:
        self.rungs: List[ExpressionPlanner] = [planner]
        if options.degrade and planner.compiled:
            oracle = Tier(False, False, False, False, options.workers, "rows")
            self.rungs.append(ExpressionPlanner.at(planner.registry, oracle))

    def attempt(
        self,
        fn: Callable[[ExpressionPlanner], T],
        ctx: ErrorContext,
        metrics: Any,
    ) -> T:
        """``fn(planner)`` on the top rung, and on a tier failure once
        more on the oracle (counted in ``exec.degrade.*``). The context
        is reset per attempt so a failed attempt's partial rejects are
        not counted twice. When the oracle fails too its exception — the
        most trustworthy diagnosis — propagates."""
        top = self.rungs[0]
        ctx.reset()
        try:
            return fn(top)
        except _NEVER_DEGRADE:
            raise
        except Exception:  # noqa: BLE001 — the ladder decides
            if len(self.rungs) == 1:
                raise
        metrics.count(degrade_counter(top))
        ctx.reset()
        return fn(self.rungs[1])


class Nodes(Protocol):
    """What a runtime tells the scheduler about one run's plan.

    ``prepare`` and ``book`` run on the calling thread, in topological
    order; ``compute`` must be pure (no spans, no shared-state writes —
    the metrics registry is internally locked) because a wavefront runs
    it on a worker thread."""

    #: what a node is called in the ``exec.parallel.wave`` span.
    unit: str

    def key(self, node: Any) -> Hashable:
        """The node's identity for wave splitting."""

    def parents(self, node: Any) -> Iterable[Hashable]:
        """Keys of the nodes whose outputs this one reads."""

    def name(self, node: Any) -> str:
        """The node's name at supervisor checks and in the committed
        frontier a :class:`RunCancelled` reports."""

    def prepare(self, node: Any) -> Tuple[Optional[ErrorContext], Any]:
        """Gather the node's inputs once its parents are booked:
        ``(ctx, state)``. ``ctx`` is the node's error context, or None
        when nothing is left to compute (restored from a checkpoint);
        ``state`` is handed back to ``compute`` and ``book``."""

    def compute(self, node: Any, state: Any) -> Any:
        """The node's outputs."""

    def book(
        self,
        node: Any,
        state: Any,
        result: Optional[Callable[[], Tuple[Any, float]]],
    ) -> None:
        """Publish the node: open the runtime's own span, take
        ``(outputs, seconds)`` from ``result()`` inside it (serially
        that *is* the compute, so kernel spans nest under the node's),
        wire the outputs to later nodes. ``result`` is None exactly
        when ``prepare`` returned no context."""


def start_run(
    options: RunOptions,
    plan: Any,
    registry: Optional[FunctionRegistry],
) -> TierLadder:
    """What every run does before its first node: the ``check=True``
    pre-flight, arming the supervisor, and the run's planner as the top
    rung of its ladder."""
    if options.check:
        from repro.analysis import check_plan

        check_plan(plan, registry=registry)
    if options.supervisor is not None:
        options.supervisor.start(options.obs)
    return TierLadder(options.planner(registry), options)


def run_waves(
    order: Sequence[Any],
    nodes: Nodes,
    options: RunOptions,
) -> None:
    """Run topologically ordered ``order`` to completion under the
    run's supervisor and memory budget: serially, or — when the run is
    parallel — wave by wave, a wave of two or more mutually independent
    nodes computing on a pool of ``options.workers`` workers."""
    supervisor = options.supervisor
    waves: Sequence[Sequence[Any]] = [order]
    pool: Optional[WorkerPool] = None
    if options.parallel:
        waves = topological_waves(order, nodes.key, nodes.parents)
        pool = WorkerPool(options.workers)
    with governed(options.memory_budget):
        for wave in waves:
            if supervisor is not None:
                supervisor.check("wave")
            if pool is not None and len(wave) >= 2:
                _run_wave(wave, nodes, options, pool)
                continue
            for node in wave:
                name = nodes.name(node)
                if supervisor is not None:
                    supervisor.check(name)
                ctx, state = nodes.prepare(node)
                nodes.book(
                    node, state, None if ctx is None else _timed(nodes, node, state)
                )
                if supervisor is not None:
                    supervisor.committed(name)


def _timed(nodes: Nodes, node: Any, state: Any) -> Callable[[], Tuple[Any, float]]:
    """The node's compute as a task returning ``(outputs, seconds)``."""

    def run() -> Tuple[Any, float]:
        started = perf_counter()
        outputs = nodes.compute(node, state)
        return outputs, perf_counter() - started

    return run


def _run_wave(
    wave: Sequence[Any], nodes: Nodes, options: RunOptions, pool: WorkerPool
) -> None:
    """One wave on the pool. Compute fans out to workers; bookkeeping
    replays on this thread in topological order, so results, reject
    routing and checkpoints are byte-identical to a serial run. An
    unavailable worker recomputes its node inline
    (``exec.degrade.parallel_to_serial``); a genuine node error
    propagates exactly as the serial loop's would. The supervisor guards
    each task, so once a run is cancelled the still-queued tasks
    short-circuit while in-flight ones drain — the pool joins every
    future before bookkeeping replays."""
    supervisor = options.supervisor
    metrics = options.obs.metrics
    prepared = [(node, *nodes.prepare(node)) for node in wave]
    tasks = [
        _timed(nodes, node, state)
        for node, ctx, state in prepared
        if ctx is not None
    ]
    guard = (lambda fn: fn) if supervisor is None else supervisor.guard
    finished = zip(tasks, pool.run_all([guard(task) for task in tasks]))
    metrics.count("exec.parallel.waves")
    metrics.count("exec.parallel.tasks", len(tasks))
    with options.obs.tracer.span(
        "exec.parallel.wave", **{nodes.unit: len(wave)}, workers=pool.workers
    ):
        for node, ctx, state in prepared:
            if ctx is None:
                nodes.book(node, state, None)
            else:
                task, (error, timed) = next(finished)
                if isinstance(error, WorkerUnavailable):
                    metrics.count("exec.degrade.parallel_to_serial")
                    ctx.reset()
                    timed = task()
                elif error is not None:
                    raise error
                nodes.book(node, state, lambda: timed)  # noqa: B023 — called now
            if supervisor is not None:
                supervisor.committed(nodes.name(node))


__all__ = [
    "ENDPOINT_OPTIONS",
    "Nodes",
    "RunOptions",
    "Runtime",
    "TierLadder",
    "run_waves",
    "start_run",
]

"""repro.exec.run — the one run harness under the three runtimes.

``EtlEngine`` and ``OhmExecutor`` differ in what a node *is* (a stage,
an operator) and in what they own beyond running nodes (endpoints and
checkpoints; the operator kernels); ``MappingExecutor`` lowers its
mappings to OHM and is an ``OhmExecutor`` from there. Everything else
about a run is written here once:

* :class:`RunOptions` — every engine keyword, resolved exactly once
  through :mod:`repro.config`;
* :func:`start_run` and :func:`run_nodes` — the pre-run check, the
  run's one planner, supervision and the topological loop over the
  :class:`Nodes` protocol.

There is no retry at this level: the one fallback at run time is
inside an operator, a columnar body rerunning on its own row body
(:func:`repro.exec.ops.columnar_or_rows`).

``docs/execution-model.md`` ("The run harness") is the description.
The runtimes import this module directly: ``repro.exec`` does not load
it eagerly, because it needs :mod:`repro.resilience`, whose checkpoint
codec imports the ETL stages, which import ``repro.exec``.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import (
    Any,
    Callable,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro import config
from repro.exec import ExpressionPlanner
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

#: the options only a runtime with source/target endpoints takes (the
#: ETL engine); the OHM and mapping runtimes reject them as unknown.
ENDPOINT_OPTIONS = ("retry", "checkpoint", "breaker")

#: the keywords of the tiers that are gone. The benchmark harness
#: (``benchmarks/harness``) still passes them, so an engine drops each
#: with a DeprecationWarning instead of a TypeError; nothing reads them.
RETIRED_KEYWORDS = ("batched", "fused", "parallel", "workers", "mode")


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
    #: the compiled tier: fused column kernels, trusted materialization
    #: (``False``: the interpreting oracle).
    compiled: bool
    #: run-level row error policy (a node may override it).
    on_error: str
    #: statistics catalog fed back with actuals after every run, or None.
    catalog: Any
    deadline: Optional[float]
    #: resident-row budget blocking kernels obey during runs, or None.
    memory_budget: Optional[MemoryBudget]
    #: deadline supervision, or None (then no per-boundary work at all).
    supervisor: Optional[RunSupervisor]
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
        keywords, and an unknown keyword is a ``TypeError`` — except a
        :data:`RETIRED_KEYWORDS` one, dropped with a warning."""
        known = set(cls._fields)
        if not endpoints:
            known.difference_update(ENDPOINT_OPTIONS)
        for name in kwargs:
            if name in RETIRED_KEYWORDS:
                warnings.warn(
                    f"{name!r} selected an execution tier that is gone; "
                    "it is ignored (the compiled tier runs unless "
                    "compiled=False)",
                    DeprecationWarning,
                    stacklevel=4,
                )
            elif name not in known:
                raise TypeError(f"unexpected keyword argument {name!r}")
        get = kwargs.get
        obs = get("obs") or NULL_OBS
        supervisor = resolve_supervisor(
            get("supervisor"), get("deadline"), obs=obs
        )
        return cls(
            obs=obs,
            compiled=config.resolve("compiled", get("compiled")),
            on_error=config.resolve("on_error", get("on_error")),
            catalog=get("catalog"),
            deadline=None if supervisor is None else supervisor.budget.deadline,
            memory_budget=resolve_memory_budget(get("memory_budget")),
            supervisor=supervisor,
            retry=resolve_retry(get("retry")) if endpoints else None,
            checkpoint=resolve_checkpoint(get("checkpoint")) if endpoints else None,
            breaker=resolve_breaker(get("breaker")) if endpoints else None,
        )

    def planner(self, registry: Optional[FunctionRegistry]) -> ExpressionPlanner:
        """The planner of one run, at this engine's resolved tier."""
        return ExpressionPlanner(registry, self.compiled)


class Runtime:
    """Base of the three runtimes: holds the resolved :class:`RunOptions`
    and exposes each one as a read-only attribute (``engine.compiled``,
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


class Nodes(Protocol):
    """What a runtime tells the loop about one run's plan."""

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
        ``(outputs, seconds)`` from ``result()`` inside it (that *is*
        the compute, so kernel spans nest under the node's), wire the
        outputs to later nodes. ``result`` is None exactly when
        ``prepare`` returned no context."""


def start_run(
    options: RunOptions,
    plan: Any,
    registry: Optional[FunctionRegistry],
) -> ExpressionPlanner:
    """What every run does before its first node: vet ``plan`` with
    :func:`repro.analysis.check_plan` (a statically broken plan is
    refused before row one), arm the supervisor, and return the run's
    planner."""
    from repro.analysis import check_plan

    check_plan(plan, registry=registry)
    if options.supervisor is not None:
        options.supervisor.start(options.obs)
    return options.planner(registry)


def run_nodes(
    order: Sequence[Any],
    nodes: Nodes,
    options: RunOptions,
) -> None:
    """Run topologically ordered ``order`` to completion, one node at a
    time, under the run's supervisor and memory budget."""
    supervisor = options.supervisor
    with governed(options.memory_budget):
        for node in order:
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


__all__ = [
    "ENDPOINT_OPTIONS",
    "Nodes",
    "RETIRED_KEYWORDS",
    "RunOptions",
    "Runtime",
    "run_nodes",
    "start_run",
]

"""Run supervision: deadlines, circuit breakers, and memory governance.

Real ETL platforms supervise their jobs — a DataStage-class engine
bounds runtime and memory, quarantines flaky endpoints, and never
leaves a target half-written. This package gives the reproduction the
same tier, shared by all three runtimes (ETL engine, OHM executor,
mapping executor):

* :mod:`repro.supervision.supervisor` — :class:`Budget` and
  :class:`RunSupervisor`: per-run wall-clock deadlines with
  cooperative cancellation at stage/operator boundaries, raising a
  structured :class:`~repro.errors.RunCancelled` that carries the
  committed (resumable) frontier;
* :mod:`repro.supervision.breaker` — :class:`CircuitBreaker`
  (closed/open/half-open, per-endpoint keying, injectable clock)
  wrapping the same seams :class:`~repro.resilience.RetryPolicy`
  wraps, failing fast with :class:`~repro.errors.BreakerOpen` once an
  endpoint keeps dying;
* :mod:`repro.supervision.memory` — :class:`MemoryBudget`, the
  resident-row ceiling blocking operators consult, installed around a
  run via :func:`governed`;
* :mod:`repro.supervision.spill` — the temp-file machinery budget
  overruns route through: external merge sort, grace-partitioned
  aggregation, and grace-partitioned hash join, all bit-identical to
  the in-memory kernels.

The ``deadline``, ``memory_budget`` and ``breaker`` options are rows of
:mod:`repro.config`. Metrics: ``exec.supervise.*``, ``exec.breaker.*``,
``exec.spill.*``. See ``docs/robustness.md``.
"""

from __future__ import annotations

from repro.supervision.breaker import (
    CircuitBreaker,
    resolve_breaker,
)
from repro.supervision.memory import (
    MemoryBudget,
    active_memory_budget,
    governed,
    resolve_memory_budget,
)
from repro.supervision.supervisor import (
    Budget,
    RunSupervisor,
    resolve_supervisor,
)

__all__ = [
    "Budget",
    "CircuitBreaker",
    "MemoryBudget",
    "RunSupervisor",
    "active_memory_budget",
    "governed",
    "resolve_breaker",
    "resolve_memory_budget",
    "resolve_supervisor",
]

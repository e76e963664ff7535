"""The metrics registry: counters, gauges, and timers.

Where the tracer answers "what happened, in what order, how long did each
step take *this* run", the metrics registry accumulates the flat numbers
an ETL monitor would show (paper section VI): rows per link, rows in/out
per OHM operator, seconds per compile phase, rewrite-rule firings,
operators placed per runtime platform.

Conventions:

* metric names are dotted lowercase paths mirroring the span names,
  ending in the unit or quantity: ``etl.link.DSLink10.rows``,
  ``ohm.operator.FILTER_3.seconds``, ``rewrite.rule.merge-filters.fired``
  (see ``docs/observability.md``);
* **counters** are monotonically accumulated integers (:meth:`count`),
  **gauges** are last-write-wins floats (:meth:`gauge`), **timers**
  accumulate a call count and total seconds (:meth:`observe` /
  :meth:`timer`);
* the disabled default is :data:`NULL_METRICS`, whose methods are
  no-ops — instrumented code never branches on enablement;
* :meth:`Metrics.snapshot` is the canonical export: a plain dict with
  ``counters`` / ``gauges`` / ``timers`` sections, stable-sorted by
  name, serialized by :meth:`to_json` and pretty-printed by
  :meth:`to_text`.
"""

from __future__ import annotations

import json
from threading import Lock
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.obs.tracer import NULL_SPAN, _NullSpan


class _TimerContext:
    """Context manager adding one observation to a timer on exit."""

    __slots__ = ("_metrics", "_name", "_start")

    def __init__(self, metrics: "Metrics", name: str):
        self._metrics = metrics
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._metrics.observe(self._name, perf_counter() - self._start)


class Metrics:
    """Accumulates counters, gauges, and timers for one pipeline run.

    Usage::

        metrics = Metrics()
        metrics.count("etl.link.DSLink1.rows", 200)
        metrics.gauge("deploy.pushdown.pushed_operators", 6)
        with metrics.timer("compile.phase.stages.seconds"):
            ...
        print(metrics.to_text())
    """

    enabled = True

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [observation count, total seconds]
        self._timers: Dict[str, List[float]] = {}
        # parallel wavefronts record from worker threads; a lock keeps
        # read-modify-write accumulation exact
        self._lock = Lock()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Add one observation of ``seconds`` to the timer ``name``."""
        with self._lock:
            entry = self._timers.get(name)
            if entry is None:
                self._timers[name] = [1, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds

    def timer(self, name: str) -> _TimerContext:
        """Time a ``with`` block into the timer ``name``."""
        return _TimerContext(self, name)

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def timer_stats(self, name: str) -> Tuple[int, float]:
        """``(observation count, total seconds)`` for a timer."""
        entry = self._timers.get(name, [0, 0.0])
        return int(entry[0]), float(entry[1])

    @property
    def timers(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(entry[0]), "total_seconds": float(entry[1])}
            for name, entry in self._timers.items()
        }

    def snapshot(self) -> Dict[str, Any]:
        """The canonical export: every section, name-sorted."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": dict(sorted(self.timers.items())),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_text(self) -> str:
        """An aligned, sectioned table of every metric."""
        snap = self.snapshot()
        lines: List[str] = []
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(n) for n in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(n) for n in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {value}")
        if snap["timers"]:
            lines.append("timers:")
            width = max(len(n) for n in snap["timers"])
            for name, entry in snap["timers"].items():
                lines.append(
                    f"  {name:<{width}}  "
                    f"{entry['total_seconds'] * 1000:.3f}ms "
                    f"/ {entry['count']} calls"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


class NullMetrics:
    """The zero-overhead default: recording is a no-op, reads are empty."""

    enabled = False
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    timers: Dict[str, Dict[str, float]] = {}

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def timer(self, name: str) -> _NullSpan:
        return NULL_SPAN

    def counter(self, name: str) -> int:
        return 0

    def timer_stats(self, name: str) -> Tuple[int, float]:
        return (0, 0.0)

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "timers": {}}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_text(self) -> str:
        return "(metrics disabled)"


NULL_METRICS = NullMetrics()


__all__ = ["Metrics", "NullMetrics", "NULL_METRICS"]

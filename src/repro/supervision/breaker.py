"""Circuit breakers for endpoint calls.

A :class:`CircuitBreaker` sits *outside* a retry policy on the same
seams retry wraps — ETL source extracts, target loads, and the SQL
runner — and quarantines an endpoint that keeps failing even after its
retries are exhausted. The classic three-state machine:

* **closed** — calls pass through; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: calls raise :class:`~repro.errors.BreakerOpen`
  immediately (no endpoint I/O, no backoff burn) until
  ``reset_timeout`` seconds have passed.
* **half-open** — the first call after the cool-down is let through as
  a probe; success closes the breaker, failure re-opens it and restarts
  the cool-down.

:class:`~repro.errors.BreakerOpen` is deliberately not a
:class:`~repro.errors.TransientError`, so no retry policy absorbs it:
callers fail fast, and the planner layers can degrade (the pushdown
executor falls back to local ETL when the DBMS endpoint is open).

Keys are per endpoint — one flaky target must not quarantine a healthy
source. The clock is injectable; every transition is observable as
``exec.breaker.*`` counters.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Union

from repro import config
from repro.errors import BreakerOpen, ValidationError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: default consecutive-failure threshold when the option gives only truth.
DEFAULT_FAILURE_THRESHOLD = 3
#: default cool-down before a half-open probe, in seconds.
DEFAULT_RESET_TIMEOUT = 30.0


class _Endpoint:
    __slots__ = ("state", "failures", "opened_at")

    def __init__(self):
        self.state = CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None


class CircuitBreaker:
    """Per-endpoint-keyed circuit breaker with an injectable clock.

    One instance guards many endpoints (each ``key`` gets its own
    independent state machine) so an engine can share a single breaker
    across all its sources and targets.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        reset_timeout: float = DEFAULT_RESET_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValidationError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValidationError("reset_timeout must be > 0 seconds")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _Endpoint] = {}

    def _endpoint(self, key: str) -> _Endpoint:
        endpoint = self._endpoints.get(key)
        if endpoint is None:
            endpoint = self._endpoints[key] = _Endpoint()
        return endpoint

    def state(self, key: str) -> str:
        """The endpoint's current state name (for tests/diagnostics)."""
        with self._lock:
            endpoint = self._endpoint(key)
            if endpoint.state == OPEN and self._cooled_down(endpoint):
                return HALF_OPEN
            return endpoint.state

    def _cooled_down(self, endpoint: _Endpoint) -> bool:
        return (
            endpoint.opened_at is not None
            and self._clock() - endpoint.opened_at >= self.reset_timeout
        )

    # -- the guarded call -----------------------------------------------------

    def call(self, key: str, fn: Callable, obs=None):
        """Run ``fn()`` under the breaker for ``key``.

        Raises :class:`BreakerOpen` without touching the endpoint while
        open; otherwise runs the call, counting consecutive failures
        and driving the state machine. Exceptions from ``fn`` always
        propagate unchanged (the breaker observes, it never absorbs).
        """
        with self._lock:
            endpoint = self._endpoint(key)
            if endpoint.state == OPEN:
                if self._cooled_down(endpoint):
                    endpoint.state = HALF_OPEN
                    self._count(obs, f"exec.breaker.{key}.half_open")
                else:
                    self._count(obs, f"exec.breaker.{key}.fast_fail")
                    remaining = self.reset_timeout - (
                        self._clock() - endpoint.opened_at
                    )
                    raise BreakerOpen(
                        f"circuit breaker open for endpoint {key!r} "
                        f"(half-opens in {remaining:.2f}s)",
                        key=key,
                        retry_after=max(remaining, 0.0),
                    )
        try:
            result = fn()
        except BreakerOpen:
            raise
        except Exception:  # any endpoint failure counts, then propagates
            self._record_failure(key, obs)
            raise
        else:
            self._record_success(key, obs)
            return result

    def _record_failure(self, key: str, obs=None) -> None:
        with self._lock:
            endpoint = self._endpoint(key)
            endpoint.failures += 1
            if (
                endpoint.state == HALF_OPEN
                or endpoint.failures >= self.failure_threshold
            ):
                endpoint.state = OPEN
                endpoint.opened_at = self._clock()
                self._count(obs, f"exec.breaker.{key}.opened")
            self._count(obs, f"exec.breaker.{key}.failures")

    def _record_success(self, key: str, obs=None) -> None:
        with self._lock:
            endpoint = self._endpoint(key)
            if endpoint.state != CLOSED:
                self._count(obs, f"exec.breaker.{key}.closed")
            endpoint.state = CLOSED
            endpoint.failures = 0
            endpoint.opened_at = None

    @staticmethod
    def _count(obs, name: str) -> None:
        if obs is not None and obs.enabled:
            obs.metrics.count(name)

    def __repr__(self) -> str:
        states = {k: e.state for k, e in self._endpoints.items()}
        return (
            f"CircuitBreaker(threshold={self.failure_threshold}, "
            f"reset={self.reset_timeout}, endpoints={states})"
        )


def resolve_breaker(
    breaker: Union[CircuitBreaker, int, None] = None,
) -> Optional[CircuitBreaker]:
    """The engines' breaker resolution: a :class:`CircuitBreaker` is
    used as-is, an int is a ``failure_threshold`` shorthand, ``None``
    consults the ``breaker`` option, and a resolved 0 (or nothing
    anywhere) means no breaker."""
    if isinstance(breaker, CircuitBreaker):
        return breaker
    threshold = config.resolve("breaker", breaker)
    if not threshold:
        return None
    return CircuitBreaker(failure_threshold=threshold)


__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "resolve_breaker",
]

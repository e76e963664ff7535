"""Retry with exponential backoff and a deadline.

Transient endpoint failures (a busy table source, a locked SQLite
database) are retried with exponentially growing pauses until either
the attempt budget or the wall-clock deadline runs out. The clock and
the sleep function are injectable so tests — and the fault-injection
suite — run instantly against a fake clock.

Only :class:`~repro.errors.TransientError` (and whatever extra types a
caller lists in ``retry_on``) is retried; a permanent failure
propagates on the first attempt.

Backoff is deterministic by default (the exact schedule
``base_delay * multiplier**n`` capped at ``max_delay``). Opting in with
``jitter=True`` switches to *full jitter*: each pause is drawn
uniformly from ``[0, scheduled_pause]``, decorrelating a thundering
herd of workers that all tripped over the same locked endpoint. The
RNG is injectable (any object with ``uniform``), so seeded tests stay
deterministic.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type

from repro import config
from repro.errors import TransientError, ValidationError
from repro.obs import NULL_OBS


class RetryPolicy:
    """Exponential backoff: delays ``base_delay * multiplier**n`` capped
    at ``max_delay``, at most ``max_retries`` retries, and never past
    ``deadline`` seconds of total elapsed time.

    With ``jitter=True`` each pause becomes ``uniform(0, pause)`` (full
    jitter); ``rng`` takes any ``random.Random``-like object for
    deterministic seeded schedules.

    :ivar clock: 0-arg callable returning seconds (injectable).
    :ivar sleep: 1-arg callable pausing execution (injectable).
    """

    __slots__ = (
        "max_retries",
        "base_delay",
        "multiplier",
        "max_delay",
        "deadline",
        "clock",
        "sleep",
        "jitter",
        "rng",
    )

    def __init__(
        self,
        max_retries: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 5.0,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        jitter: bool = False,
        rng: Optional[random.Random] = None,
    ):
        if max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if base_delay < 0 or max_delay < 0:
            raise ValidationError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValidationError("multiplier must be >= 1")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.deadline = deadline
        self.clock = clock
        self.sleep = sleep
        self.jitter = jitter
        self.rng = rng if rng is not None else random.Random()

    def delays(self) -> Tuple[float, ...]:
        """The full *scheduled* backoff (jitter, when enabled, draws
        each actual pause from ``[0, scheduled]`` at call time)."""
        out, delay = [], self.base_delay
        for _ in range(self.max_retries):
            out.append(min(delay, self.max_delay))
            delay *= self.multiplier
        return tuple(out)

    def call(
        self,
        fn: Callable,
        name: str = "call",
        obs=None,
        retry_on: Tuple[Type[BaseException], ...] = (TransientError,),
    ):
        """Invoke ``fn()`` under this policy.

        Emits ``exec.retry.<name>.attempts`` per retry,
        ``exec.retry.<name>.recovered`` when a retry eventually
        succeeds, and ``exec.retry.<name>.exhausted`` when the budget or
        deadline runs out (the last error then propagates)."""
        obs = obs or NULL_OBS
        start = self.clock()
        attempt = 0
        delay = self.base_delay
        while True:
            try:
                result = fn()
            except retry_on as exc:
                attempt += 1
                elapsed = self.clock() - start
                pause = min(delay, self.max_delay)
                if self.jitter:
                    pause = self.rng.uniform(0.0, pause)
                out_of_budget = attempt > self.max_retries
                past_deadline = (
                    self.deadline is not None
                    and elapsed + pause > self.deadline
                )
                if out_of_budget or past_deadline:
                    obs.metrics.count(f"exec.retry.{name}.exhausted")
                    raise exc
                obs.metrics.count(f"exec.retry.{name}.attempts")
                self.sleep(pause)
                delay = delay * self.multiplier
            else:
                if attempt:
                    obs.metrics.count(f"exec.retry.{name}.recovered")
                return result

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"base_delay={self.base_delay}, multiplier={self.multiplier}, "
            f"max_delay={self.max_delay}, deadline={self.deadline})"
        )


def resolve_retry(explicit) -> Optional["RetryPolicy"]:
    """An engine's effective retry policy.

    ``explicit`` may be a :class:`RetryPolicy` (used as-is), an ``int``
    (shorthand for ``RetryPolicy(max_retries=n)``), or ``None`` — then
    the ``max_retries`` option applies. A budget of 0 from either is
    ``None``: no retry wrapper at all."""
    if isinstance(explicit, RetryPolicy):
        return explicit
    budget = config.resolve("max_retries", explicit)
    return RetryPolicy(max_retries=budget) if budget else None


__all__ = [
    "RetryPolicy",
    "resolve_retry",
]

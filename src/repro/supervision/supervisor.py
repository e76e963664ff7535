"""Run supervision: wall-clock budgets and cooperative cancellation.

A :class:`RunSupervisor` is the per-run authority on "should this run
keep going". The engines thread one through their stage/operator
loops and call :meth:`RunSupervisor.check` at every boundary; when the
run's :class:`Budget` deadline elapses (or :meth:`RunSupervisor.cancel`
was called from another thread) the next check raises a structured
:class:`~repro.errors.RunCancelled` carrying the frontier of
stages/operators whose outputs were already committed — with a
checkpoint store configured, exactly the resume point.

Cancellation is *cooperative*: nothing is killed mid-kernel; the node
in flight runs to completion and the run stops at the next boundary.

The deadline is the ``deadline`` option of :mod:`repro.config`
(unbounded unless set). See ``docs/robustness.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from repro import config
from repro.errors import RunCancelled, ValidationError


class Budget:
    """The wall-clock budget of one supervised run.

    :param deadline: hard limit in seconds — crossing it cancels the
        run at the next cooperative check.
    :param soft_timeout: advisory limit in seconds — crossing it emits
        one ``exec.supervise.soft_timeout`` counter (an operator alert)
        but the run continues.
    """

    __slots__ = ("deadline", "soft_timeout")

    def __init__(
        self,
        deadline: Optional[float] = None,
        soft_timeout: Optional[float] = None,
    ):
        for label, value in (
            ("deadline", deadline),
            ("soft_timeout", soft_timeout),
        ):
            if value is not None and value <= 0:
                raise ValidationError(f"{label} must be > 0 seconds")
        if (
            deadline is not None
            and soft_timeout is not None
            and soft_timeout > deadline
        ):
            raise ValidationError("soft_timeout must not exceed deadline")
        self.deadline = deadline
        self.soft_timeout = soft_timeout

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline}, "
            f"soft_timeout={self.soft_timeout})"
        )


class RunSupervisor:
    """Owns deadline enforcement and cancellation for one run.

    Thread-safe by construction: :meth:`cancel` flips a
    :class:`threading.Event` that the engine thread observes at every
    :meth:`check`, so another thread may cancel a run. The clock is
    injectable so deadline behaviour is testable without
    sleeping.
    """

    def __init__(
        self,
        budget: Optional[Budget] = None,
        clock: Callable[[], float] = time.monotonic,
        obs=None,
    ):
        self.budget = budget if budget is not None else Budget()
        self.obs = obs
        self._clock = clock
        self._cancel_event = threading.Event()
        self._cancel_reason: Optional[str] = None
        self._started_at: Optional[float] = None
        self._soft_warned = False
        self._frontier: List[str] = []

    # -- run lifecycle --------------------------------------------------------

    def start(self, obs=None) -> "RunSupervisor":
        """Arm the budget clock at the top of a run. A deliberate
        non-reset of the cancel flag: a supervisor cancelled before the
        run starts must cancel that run at its first check."""
        if obs is not None:
            self.obs = obs
        self._started_at = self._clock()
        self._soft_warned = False
        self._frontier = []
        return self

    def committed(self, name: str) -> None:
        """Record a stage/operator whose outputs are durably committed
        (the frontier a :class:`RunCancelled` reports for resume)."""
        self._frontier.append(name)

    @property
    def frontier(self) -> tuple:
        return tuple(self._frontier)

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining(self) -> Optional[float]:
        """Seconds left in the budget, or None when unbounded."""
        if self.budget.deadline is None:
            return None
        return self.budget.deadline - self.elapsed()

    # -- cancellation ---------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation (idempotent; any thread)."""
        if not self._cancel_event.is_set():
            self._cancel_reason = reason
            self._cancel_event.set()

    def _cancelled_error(self, point: str) -> RunCancelled:
        reason = self._cancel_reason or "cancelled"
        elapsed = self.elapsed()
        return RunCancelled(
            f"run cancelled at {point} after {elapsed:.3f}s "
            f"(reason={reason}, committed={len(self._frontier)})",
            reason=reason,
            frontier=tuple(self._frontier),
            elapsed=elapsed,
        )

    def check(self, point: str) -> None:
        """A cooperative cancellation point (a stage or operator boundary).

        Raises :class:`RunCancelled` when the run is cancelled or the
        deadline has elapsed; otherwise returns after bumping the
        ``exec.supervise.checks`` counter and, once per run, the
        soft-timeout alert."""
        obs = self.obs
        if self._cancel_event.is_set():
            self._count(obs, "exec.supervise.cancelled")
            raise self._cancelled_error(point)
        deadline = self.budget.deadline
        elapsed = self.elapsed()
        if deadline is not None and elapsed > deadline:
            self.cancel(reason="deadline")
            self._count(obs, "exec.supervise.deadline")
            self._count(obs, "exec.supervise.cancelled")
            raise self._cancelled_error(point)
        soft = self.budget.soft_timeout
        if soft is not None and not self._soft_warned and elapsed > soft:
            self._soft_warned = True
            self._count(obs, "exec.supervise.soft_timeout")
        self._count(obs, "exec.supervise.checks")

    @staticmethod
    def _count(obs, name: str) -> None:
        if obs is not None and obs.enabled:
            obs.metrics.count(name)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"RunSupervisor({self.budget!r}, {state})"


def resolve_supervisor(
    supervisor: Optional[RunSupervisor] = None,
    deadline: Optional[float] = None,
    obs=None,
) -> Optional[RunSupervisor]:
    """The engines' supervisor resolution: an explicit supervisor wins;
    otherwise a deadline (the keyword, else the ``deadline`` option)
    builds one; otherwise ``None`` — the engines skip every check,
    keeping the unsupervised hot path free of per-boundary work."""
    if supervisor is not None:
        if obs is not None and supervisor.obs is None:
            supervisor.obs = obs
        return supervisor
    resolved = config.resolve("deadline", deadline)
    if resolved is None:
        return None
    return RunSupervisor(Budget(deadline=resolved), obs=obs)


__all__ = [
    "Budget",
    "RunSupervisor",
    "resolve_supervisor",
]

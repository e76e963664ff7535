"""Memory governance: the resident-row budget blocking operators obey.

A :class:`MemoryBudget` bounds how many rows a blocking operator may
hold resident at once — hash-join build sides, group-aggregate states,
and sort buffers. The accounting unit is *rows*, not bytes: every
execution tier already counts rows (RowBlock lengths, row-list
lengths), the cost model is calibrated in row-units, and a row count
needs no platform dependency (no psutil), so budgets stay deterministic
and testable.

The kernels consult the *active* budget through a module-global hook —
the same pattern as :func:`repro.exec.set_kernel_fault_hook` — because
kernel signatures are shared by every tier and threading a budget
through each call site would churn all of them. Engines install the
budget around a run with :func:`governed`; when none is installed the
kernels' hot paths pay a single ``None`` check.

The budget is the ``memory_budget`` option of :mod:`repro.config`
(unbounded unless set). See ``docs/robustness.md`` for the spill design
it triggers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Union

from repro import config
from repro.errors import ValidationError


class MemoryBudget:
    """A resident-row ceiling for blocking operators.

    :param max_rows: rows a single blocking operator may keep resident;
        above it the operator spills to temp-file runs.
    """

    __slots__ = ("max_rows",)

    def __init__(self, max_rows: int):
        max_rows = int(max_rows)
        if max_rows < 1:
            raise ValidationError("memory budget must be >= 1 resident row")
        self.max_rows = max_rows

    def exceeded(self, resident_rows: int) -> bool:
        """Whether holding ``resident_rows`` at once breaks the budget."""
        return resident_rows > self.max_rows

    def runs_for(self, resident_rows: int) -> int:
        """How many budget-sized runs/partitions ``resident_rows``
        split into (at least 1)."""
        return max(
            1, -(-int(resident_rows) // self.max_rows)  # ceil division
        )

    def __repr__(self) -> str:
        return f"MemoryBudget(max_rows={self.max_rows})"


_ACTIVE: Optional[MemoryBudget] = None


def active_memory_budget() -> Optional[MemoryBudget]:
    """The budget blocking kernels currently consult (None = unbounded)."""
    return _ACTIVE


@contextmanager
def governed(budget: Optional[MemoryBudget]):
    """Install ``budget`` for the duration of a run, restoring whatever
    was active before (nested engine runs keep the outer budget when
    the inner engine has none)."""
    global _ACTIVE
    if budget is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = budget
    try:
        yield budget
    finally:
        _ACTIVE = previous


def resolve_memory_budget(
    budget: Union[MemoryBudget, int, None] = None,
) -> Optional[MemoryBudget]:
    """The engines' budget resolution: a :class:`MemoryBudget` is used
    as-is, an int is a ``max_rows`` shorthand, ``None`` consults the
    ``memory_budget`` option."""
    if isinstance(budget, MemoryBudget):
        return budget
    resolved = config.resolve("memory_budget", budget)
    if resolved is None:
        return None
    return MemoryBudget(resolved)


__all__ = [
    "MemoryBudget",
    "active_memory_budget",
    "governed",
    "resolve_memory_budget",
]

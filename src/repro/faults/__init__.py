"""Deterministic seeded fault injection.

Everything the resilience tier defends against can be manufactured here,
reproducibly: poisoned rows (type-valid values that explode inside
expressions, like a zero divisor), transient and permanent endpoint
failures, and kernel faults at a chosen execution tier. A
:class:`FaultPlan` is seeded, so a failing parity run can be replayed
exactly from its seed.

Usage::

    plan = FaultPlan(seed=7)
    bad = plan.poison(instance, "Orders", "qty", count=5, value=0)
    src = plan.flaky_source(TableSource(orders), failures=2)
    plan.fault_kernels(tier="block", first=3)
    with plan.injected():          # installs the exec kernel hook
        engine.run(job, bad)

The harness raises :class:`~repro.errors.TransientError` from flaky
endpoints (so retry policies engage) and :class:`~repro.errors.
FaultInjected` from kernels (so the degradation ladder engages); a
``permanent`` endpoint raises a plain :class:`~repro.errors.
ExecutionError` that no retry will absorb.

The *crash tier* simulates ``kill -9`` mid-run:
:class:`~repro.errors.InjectedCrash` derives from ``BaseException``, so
no retry policy, error-policy channel, or degradation ladder can absorb
it — exactly like a process death. :class:`CrashingStore` kills the run
at a chosen checkpoint-save boundary and :class:`CrashingTarget` kills
it around (or mid-) a target write; the exactly-once suite re-runs the
job afterwards and asserts the resumed output is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.data.dataset import Dataset, Instance
from repro.errors import (
    ExecutionError,
    FaultInjected,
    InjectedCrash,
    TransientError,
)
from repro.etl.stages.access import TableSource, TableTarget
from repro.exec import set_kernel_fault_hook

#: the fault labels a kernel fault can target (see
#: ExpressionPlanner._faulted): "block" wraps the column functions a
#: chain runs, fused or gathered; "compiled" / "oracle" wrap the row
#: closures of a compiled planner / of the interpreting oracle — the
#: ladder's two rungs are "block" or "compiled" above "oracle"
TIERS = ("block", "compiled", "oracle")


class FaultPlan:
    """A reproducible schedule of injected faults.

    All randomness flows from ``seed``; all counters live on the plan,
    so two plans with the same seed and the same configuration calls
    inject exactly the same faults.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        #: relation name -> row indices poisoned by :meth:`poison`
        self.poisoned: Dict[str, List[int]] = {}
        # kernel-fault schedule per tier: remaining "first N" budget
        self._kernel_budget: Dict[str, int] = {}
        self._kernel_rate: Dict[str, float] = {}
        self._kernel_rng = random.Random(seed ^ 0x5EED)
        #: how many kernel faults actually fired, per tier
        self.kernel_faults_fired: Dict[str, int] = {}

    # -- row poisoning --------------------------------------------------------

    def poison(
        self,
        instance: Instance,
        relation: str,
        column: str,
        count: Optional[int] = None,
        rate: Optional[float] = None,
        value=0,
    ) -> Instance:
        """A copy of ``instance`` with ``column`` of seeded-chosen rows
        of ``relation`` replaced by ``value``.

        The poison value must be *type-valid* for the column (the
        default 0 in a divisor column is the canonical case): sources
        re-validate types, so a type-invalid value would fail at the
        boundary rather than exercising row-level expression errors.
        Exactly one of ``count`` / ``rate`` selects how many rows."""
        if (count is None) == (rate is None):
            raise ValueError("pass exactly one of count= or rate=")
        source = instance.dataset(relation)
        rows = [dict(r) for r in source.rows]
        if count is None:
            chosen = [
                i for i in range(len(rows)) if self._rng.random() < rate
            ]
        else:
            count = min(count, len(rows))
            chosen = sorted(self._rng.sample(range(len(rows)), count))
        for i in chosen:
            rows[i][column] = value
        self.poisoned[relation] = chosen
        rebuilt = Dataset(source.relation, rows, validate=False)
        out = Instance()
        for name in instance.names:
            out.add(rebuilt if name == relation else instance.dataset(name))
        return out

    # -- endpoint faults ------------------------------------------------------

    def flaky_source(
        self, source: TableSource, failures: int = 1, permanent: bool = False
    ) -> "FlakySource":
        """Wrap an ETL table source so its first ``failures`` extracts
        raise :class:`TransientError` (every extract, when
        ``permanent``)."""
        return FlakySource(source, failures=failures, permanent=permanent)

    def flaky_target(
        self, target: TableTarget, failures: int = 1, permanent: bool = False
    ) -> "FlakyTarget":
        """Wrap an ETL table target so its first ``failures`` loads
        raise :class:`TransientError` (every load, when ``permanent``)."""
        return FlakyTarget(target, failures=failures, permanent=permanent)

    def flaky_writes(
        self, runner, failures: int = 1, permanent: bool = False
    ) -> None:
        """Poison a :class:`~repro.deploy.sql.SqliteRunner`'s *batched
        write* seam (``executemany``-style loads): its first
        ``failures`` batch inserts raise :class:`TransientError` (every
        one, when ``permanent``). Query paths are untouched — pair with
        :meth:`flaky_callable` to poison both."""
        state = {"remaining": failures}

        def hook(sql, rows):
            if permanent:
                raise ExecutionError("injected permanent write failure")
            if state["remaining"] > 0:
                state["remaining"] -= 1
                raise TransientError("injected transient write failure")

        runner.write_hook = hook

    # -- crash tier -----------------------------------------------------------

    def crashing_store(
        self, store, after_saves: int = 0, persist_first: bool = False
    ) -> "CrashingStore":
        """Wrap a :class:`~repro.resilience.CheckpointStore` so the run
        dies (``InjectedCrash``) at the ``after_saves``-th snapshot
        boundary — before persisting it, or after when
        ``persist_first`` (the crash then lands between the fsync and
        the engine's in-memory bookkeeping)."""
        return CrashingStore(
            store, after_saves=after_saves, persist_first=persist_first
        )

    def crashing_target(
        self, target: TableTarget, mode: str = "before"
    ) -> "CrashingTarget":
        """Wrap an ETL target so its first load crashes the run:
        ``before`` the write starts, ``after`` it fully lands (but
        before the stage checkpoint), or ``torn`` — half the bytes hit
        the file target's path before death, simulating a non-atomic
        writer."""
        return CrashingTarget(target, mode=mode)

    def flaky_callable(self, fn, failures: int = 1, permanent: bool = False):
        """Wrap any 0+-arg callable the same way (used for e.g. the SQL
        runner's connection)."""
        state = {"remaining": failures}

        def wrapped(*args, **kwargs):
            if permanent:
                raise ExecutionError("injected permanent endpoint failure")
            if state["remaining"] > 0:
                state["remaining"] -= 1
                raise TransientError("injected transient endpoint failure")
            return fn(*args, **kwargs)

        return wrapped

    # -- kernel faults --------------------------------------------------------

    def fault_kernels(
        self,
        tier: str = "block",
        first: Optional[int] = None,
        rate: Optional[float] = None,
    ) -> "FaultPlan":
        """Schedule kernel faults at ``tier``: either the first ``first``
        closure invocations at that tier raise, or each raises with
        probability ``rate`` (seeded). Returns the plan for chaining."""
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        if (first is None) == (rate is None):
            raise ValueError("pass exactly one of first= or rate=")
        if first is not None:
            self._kernel_budget[tier] = first
        else:
            self._kernel_rate[tier] = rate
        return self

    def _should_fault(self, tier: str) -> bool:
        budget = self._kernel_budget.get(tier, 0)
        if budget > 0:
            self._kernel_budget[tier] = budget - 1
            return True
        rate = self._kernel_rate.get(tier)
        if rate is not None and self._kernel_rng.random() < rate:
            return True
        return False

    def hook(self, tier: str, kind: str, fn):
        """The ``repro.exec`` kernel fault hook bound to this plan."""
        if tier not in self._kernel_budget and tier not in self._kernel_rate:
            return fn
        plan = self

        def faulted(*args, **kwargs):
            if plan._should_fault(tier):
                plan.kernel_faults_fired[tier] = (
                    plan.kernel_faults_fired.get(tier, 0) + 1
                )
                raise FaultInjected(
                    f"injected {tier} {kind} kernel fault (seed={plan.seed})"
                )
            return fn(*args, **kwargs)

        return faulted

    @contextmanager
    def injected(self):
        """Install this plan's kernel hook for the duration of a block."""
        set_kernel_fault_hook(self.hook)
        try:
            yield self
        finally:
            set_kernel_fault_hook(None)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, poisoned={self.poisoned}, "
            f"kernel_budget={self._kernel_budget})"
        )


class FlakySource(TableSource):
    """A table source whose first N extracts fail transiently."""

    STAGE_TYPE = "TableSource"

    def __init__(
        self, inner: TableSource, failures: int = 1, permanent: bool = False
    ):
        super().__init__(inner.relation, name=inner.name)
        self._inner = inner
        self.failures_remaining = failures
        self.permanent = permanent

    def extract(self, instance):
        if self.permanent:
            raise ExecutionError(
                "injected permanent source failure", stage=self.name
            )
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise TransientError(
                "injected transient source failure", stage=self.name
            )
        return self._inner.extract(instance)


class FlakyTarget(TableTarget):
    """A table target whose first N loads fail transiently."""

    STAGE_TYPE = "TableTarget"

    def __init__(
        self, inner: TableTarget, failures: int = 1, permanent: bool = False
    ):
        super().__init__(inner.relation, name=inner.name)
        self._inner = inner
        self.failures_remaining = failures
        self.permanent = permanent

    def load(self, data, trusted: bool = False, errors=None):
        if self.permanent:
            raise ExecutionError(
                "injected permanent target failure", stage=self.name
            )
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise TransientError(
                "injected transient target failure", stage=self.name
            )
        return self._inner.load(data, trusted=trusted, errors=errors)


class CrashingStore:
    """A checkpoint-store proxy that raises
    :class:`~repro.errors.InjectedCrash` at the ``after_saves``-th
    ``save_stage`` call — before persisting that snapshot, or just
    after it when ``persist_first``. Reads (``load_frontier``) and
    ``clear`` pass through untouched, so the post-crash resume run uses
    the *same wrapped store object* with the crash already spent."""

    def __init__(self, store, after_saves: int = 0, persist_first: bool = False):
        self._store = store
        self.after_saves = after_saves
        self.persist_first = persist_first
        self.saves = 0
        self.crashed = False

    def save_stage(self, job, stage_uid, outputs, delivered=None):
        if not self.crashed and self.saves == self.after_saves:
            self.crashed = True
            if self.persist_first:
                self._store.save_stage(job, stage_uid, outputs, delivered)
            raise InjectedCrash(
                f"injected crash at checkpoint save #{self.saves} "
                f"({stage_uid}, persist_first={self.persist_first})"
            )
        self.saves += 1
        return self._store.save_stage(job, stage_uid, outputs, delivered)

    def load_frontier(self, job):
        return self._store.load_frontier(job)

    def clear(self, job):
        return self._store.clear(job)

    def __repr__(self) -> str:
        return (
            f"CrashingStore({self._store!r}, after_saves={self.after_saves}, "
            f"persist_first={self.persist_first})"
        )


class CrashingTarget(TableTarget):
    """A target whose first load crashes the run with
    :class:`~repro.errors.InjectedCrash`: ``before`` the write,
    ``after`` it fully lands (write done, checkpoint not), or ``torn``
    — half the serialized bytes are forced onto a file target's path
    before death (simulating a non-atomic writer, so resume must
    overwrite the torn file). Subsequent loads pass through, so the
    resume run reuses the same wrapped stage."""

    STAGE_TYPE = "TableTarget"
    MODES = ("before", "after", "torn")

    def __init__(self, inner: TableTarget, mode: str = "before"):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; expected {self.MODES}")
        super().__init__(inner.relation, name=inner.name)
        self._inner = inner
        self.mode = mode
        self.crashed = False

    def load(self, data, trusted: bool = False, errors=None):
        if self.crashed:
            return self._inner.load(data, trusted=trusted, errors=errors)
        self.crashed = True
        if self.mode == "before":
            raise InjectedCrash("injected crash before target write")
        if self.mode == "torn":
            path = getattr(self._inner, "path", None)
            if path is not None:
                from repro.data.csvio import dataset_to_csv_text

                result = self._inner.load(
                    data, trusted=trusted, errors=errors
                )
                text = dataset_to_csv_text(result)
                with open(path, "w", newline="") as handle:
                    handle.write(text[: max(1, len(text) // 2)])
            raise InjectedCrash("injected crash mid target write (torn file)")
        result = self._inner.load(data, trusted=trusted, errors=errors)
        raise InjectedCrash("injected crash after target write")


__all__ = [
    "TIERS",
    "CrashingStore",
    "CrashingTarget",
    "FaultPlan",
    "FlakySource",
    "FlakyTarget",
]

"""Row-level error policies and the reject channel.

A stage (or OHM operator, or mapping) processes rows under one of three
policies:

* ``fail_fast`` — any row error aborts the run (the historical
  behaviour, and still the default);
* ``skip`` — rows that error are dropped, counted in
  ``exec.errors.<stage>.skipped``;
* ``reject`` — rows that error are captured as :class:`RejectedRow`
  records (error code, message, originating stage/link, row index, and
  the offending row) and routed onto the reject channel: a dedicated
  reject link in ETL jobs, or a reject :class:`~repro.data.dataset.
  Dataset` returned alongside results by the OHM and mapping executors.

:class:`ErrorContext` is the per-stage collector: engines create one
per stage execution, kernels call its handler for each failing row, and
the engine publishes the counts to metrics once the stage (including
any degradation retries — see ``docs/robustness.md``) has succeeded.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro import config
from repro.config import check_policy
from repro.data.dataset import Dataset
from repro.errors import INFRASTRUCTURE_ERRORS, STATIC_ERRORS, RunCancelled
from repro.schema.model import Relation, relation

FAIL_FAST = "fail_fast"
SKIP = "skip"
REJECT = "reject"
POLICIES = config.ERROR_POLICIES


# -- the reject relation ------------------------------------------------------

#: column layout of every reject channel; the ``row`` column holds
#: :func:`format_row` of the offending input row so reject outputs are
#: comparable across runtimes and execution modes.
REJECT_COLUMNS = (
    ("stage", "varchar", False),
    ("link", "varchar", True),
    ("row_index", "int", True),
    ("error_code", "varchar", False),
    ("message", "varchar", True),
    ("row", "varchar", True),
)


def reject_relation(name: str = "rejects") -> Relation:
    """The standard reject-channel relation under the given link name."""
    return relation(name, *REJECT_COLUMNS)


def format_row(row) -> str:
    """Canonical text form of a row: keys sorted, ``repr`` values.

    Deterministic across runtimes and execution modes, so parity suites
    can compare rejected-row multisets textually."""
    if not isinstance(row, dict):
        return repr(row)
    inner = ", ".join(f"{k}: {row[k]!r}" for k in sorted(row))
    return "{" + inner + "}"


class RejectedRow:
    """One row that failed under the ``reject`` policy."""

    __slots__ = ("stage", "link", "row_index", "row", "error_code", "message")

    def __init__(
        self,
        stage: str,
        row_index: Optional[int],
        row,
        error_code: str,
        message: str,
        link: Optional[str] = None,
    ):
        self.stage = stage
        self.link = link
        self.row_index = row_index
        self.row = row
        self.error_code = error_code
        self.message = message

    def as_reject_row(self) -> dict:
        """This record as a row of the standard reject relation."""
        return {
            "stage": self.stage,
            "link": self.link,
            "row_index": self.row_index,
            "error_code": self.error_code,
            "message": self.message,
            "row": format_row(self.row),
        }

    def __repr__(self) -> str:
        return (
            f"RejectedRow(stage={self.stage!r}, row_index={self.row_index}, "
            f"error_code={self.error_code!r})"
        )


def rejects_dataset(rejected: List[RejectedRow], name: str = "rejects") -> Dataset:
    """Materialize rejected rows as a dataset of the reject relation."""
    return Dataset.adopt(
        reject_relation(name), [r.as_reject_row() for r in rejected]
    )


class ErrorContext:
    """Per-stage row-error collector.

    The engine creates one per stage execution and passes its
    :meth:`kernel_handler` into the row kernels as ``on_error``. Under
    ``fail_fast`` the handler is ``None`` and kernels keep their
    unguarded hot path. Collected rows/counts are *pending* until the
    stage attempt succeeds: the degradation ladder calls :meth:`reset`
    before each retry so a failed attempt's partial rejects are not
    double-counted, and :meth:`publish` emits metrics exactly once.
    """

    __slots__ = ("stage", "policy", "rejected", "skipped", "redirected")

    def __init__(self, stage: str, policy: str):
        self.stage = stage
        self.policy = check_policy(policy)
        self.rejected: List[RejectedRow] = []
        self.skipped = 0
        #: rows whose error was redirected onto an in-band output (the
        #: FilterStage reject output) rather than the generic channel.
        self.redirected = 0

    @property
    def handling(self) -> bool:
        """Whether row errors are absorbed rather than propagated."""
        return self.policy != FAIL_FAST

    def reset(self) -> None:
        """Drop pending state (called before each execution attempt)."""
        self.rejected = []
        self.skipped = 0
        self.redirected = 0

    def record(
        self,
        row_index: Optional[int],
        row,
        exc: BaseException,
        link: Optional[str] = None,
    ) -> None:
        if isinstance(exc, (*INFRASTRUCTURE_ERRORS, RunCancelled)):
            # not a data error: let retry / the degradation ladder (or,
            # for a cancellation, the caller) see it
            raise exc
        if isinstance(exc, STATIC_ERRORS):
            # a deterministic plan defect (bad schema, unparseable or
            # ill-typed expression): absorbing it per row would skip or
            # reject *every* row — surface it instead
            raise exc
        if self.policy == REJECT:
            self.rejected.append(
                RejectedRow(
                    self.stage,
                    row_index,
                    dict(row) if isinstance(row, dict) else row,
                    type(exc).__name__,
                    str(exc),
                    link=link,
                )
            )
        else:
            self.skipped += 1

    def kernel_handler(
        self,
        row_of: Optional[Callable] = None,
        link: Optional[str] = None,
    ) -> Optional[Callable]:
        """An ``on_error(index, item, exc)`` callback for the kernels,
        or ``None`` under ``fail_fast`` (kernels then keep their
        unguarded fast path). ``row_of`` maps the kernel's item (e.g. a
        bound :class:`~repro.expr.evaluator.Environment`) back to the
        source row recorded on the reject channel."""
        if not self.handling:
            return None

        def handle(index, item, exc):
            row = row_of(item) if row_of is not None else item
            self.record(index, row, exc, link=link)

        return handle

    def publish(self, metrics, span=None) -> None:
        """Emit ``exec.errors.*`` counters (and span attributes) for the
        committed attempt."""
        total = len(self.rejected) + self.skipped + self.redirected
        if not total:
            return
        if self.rejected:
            metrics.count(f"exec.errors.{self.stage}.rejected", len(self.rejected))
        if self.skipped:
            metrics.count(f"exec.errors.{self.stage}.skipped", self.skipped)
        if self.redirected:
            metrics.count(
                f"exec.errors.{self.stage}.redirected", self.redirected
            )
        metrics.count("exec.errors.total", total)
        if span is not None:
            span.set(
                rejected=len(self.rejected),
                skipped=self.skipped,
                redirected=self.redirected,
            )


__all__ = [
    "FAIL_FAST",
    "SKIP",
    "REJECT",
    "POLICIES",
    "check_policy",
    "REJECT_COLUMNS",
    "reject_relation",
    "rejects_dataset",
    "format_row",
    "RejectedRow",
    "ErrorContext",
]

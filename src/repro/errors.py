"""Shared exception hierarchy for the Orchid reproduction.

Every error raised by this library derives from :class:`OrchidError`, so
callers can catch a single base class. Subclasses are grouped by subsystem;
each carries a human-readable message and, where useful, the offending
object so programmatic callers can inspect it.
"""

from __future__ import annotations


class OrchidError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(OrchidError):
    """A schema is malformed, or two schemas are incompatible."""


class TypeCheckError(SchemaError):
    """An expression does not type-check against a schema."""


class ExpressionError(OrchidError):
    """An expression cannot be parsed or evaluated."""


class ParseError(ExpressionError):
    """Syntax error while parsing an expression.

    :ivar text: the full text being parsed.
    :ivar position: character offset at which the error occurred.
    """

    def __init__(self, message: str, text: str = "", position: int = -1):
        super().__init__(message)
        self.text = text
        self.position = position


class EvaluationError(ExpressionError):
    """Runtime error while evaluating an expression against a row."""


class GraphError(OrchidError):
    """An OHM or ETL dataflow graph is structurally invalid.

    Carries structured location fields so graph-shaped failures render
    identically whether they come from a runtime ``validate()`` hook or
    from the static analyzer (:mod:`repro.analysis`). All fields are
    optional; when present they are appended to the message (the
    original message stays a prefix, so ``pytest.raises(..., match=...)``
    against it keeps working).

    :ivar stage: name of the ETL stage at fault, if any.
    :ivar operator: name of the OHM operator at fault, if any.
    :ivar link: name of the link/edge at fault, if any.
    :ivar expression: source text of the offending expression, if any.
    """

    def __init__(
        self,
        message: str,
        stage: "str | None" = None,
        operator: "str | None" = None,
        link: "str | None" = None,
        expression: "str | None" = None,
    ):
        super().__init__(
            _with_location(message, stage, operator, link, expression)
        )
        self.stage = stage
        self.operator = operator
        self.link = link
        self.expression = expression

    def location(self) -> dict:
        """The structured location as a dict (None entries omitted)."""
        fields = {
            "stage": self.stage,
            "operator": self.operator,
            "link": self.link,
            "expression": self.expression,
        }
        return {k: v for k, v in fields.items() if v is not None}


def _with_location(message, stage, operator, link, expression) -> str:
    parts = []
    if stage is not None:
        parts.append(f"stage={stage!r}")
    if operator is not None:
        parts.append(f"operator={operator!r}")
    if link is not None:
        parts.append(f"link={link!r}")
    if expression is not None:
        parts.append(f"expression={expression!r}")
    if not parts:
        return message
    return f"{message} [{', '.join(parts)}]"


class ValidationError(GraphError):
    """A graph, operator, or stage fails semantic validation."""


class CompilationError(OrchidError):
    """An ETL stage cannot be compiled into OHM operators."""


class MappingError(OrchidError):
    """A mapping is malformed or an OHM graph cannot be mapped."""


class CompositionError(MappingError):
    """Two mappings cannot be composed (e.g. across grouping)."""


class DeploymentError(OrchidError):
    """An OHM graph cannot be deployed to the requested platform(s)."""


class ExecutionError(OrchidError):
    """A runtime engine failed while executing a job, graph, or mapping.

    Carries structured context so a failure is debuggable without a
    rerun: the stage/operator that raised, the link being produced, the
    row index within that stage's input, and a repr of the offending
    row. All context fields are optional; when present they are
    appended to the message (the original message stays a prefix, so
    ``pytest.raises(..., match=...)`` against it keeps working).

    :ivar stage: name of the ETL stage or OHM operator that failed.
    :ivar link: name of the link/edge being produced, if known.
    :ivar row_index: 0-based index of the offending row in the stage's
        input, if the failure is row-level.
    :ivar row: the offending row (a dict), if the failure is row-level.
    """

    def __init__(
        self,
        message: str,
        stage: "str | None" = None,
        link: "str | None" = None,
        row_index: "int | None" = None,
        row: "dict | None" = None,
    ):
        super().__init__(_with_context(message, stage, link, row_index, row))
        self.stage = stage
        self.link = link
        self.row_index = row_index
        self.row = row

    def context(self) -> dict:
        """The structured context as a dict (None entries omitted)."""
        fields = {
            "stage": self.stage,
            "link": self.link,
            "row_index": self.row_index,
            "row": self.row,
        }
        return {k: v for k, v in fields.items() if v is not None}


def _with_context(message, stage, link, row_index, row) -> str:
    parts = []
    if stage is not None:
        parts.append(f"stage={stage!r}")
    if link is not None:
        parts.append(f"link={link!r}")
    if row_index is not None:
        parts.append(f"row_index={row_index}")
    if row is not None:
        parts.append(f"row={row!r}")
    if not parts:
        return message
    return f"{message} [{', '.join(parts)}]"


class TransientError(ExecutionError):
    """A failure that may succeed on retry (flaky endpoint, busy DB).

    Sources, targets, and the SQL runner raise (or translate to) this
    class for conditions worth retrying; :class:`repro.resilience.
    RetryPolicy` retries exactly this type by default."""


class FaultInjected(ExecutionError):
    """An artificial failure raised by the ``repro.faults`` harness."""


#: failure types that row-level error policies must never absorb as data
#: errors: they signal broken infrastructure, not a bad row, and have
#: their own recovery paths (retry for transient endpoints, a columnar
#: body's rerun on its row body for kernel faults).
INFRASTRUCTURE_ERRORS = (TransientError, FaultInjected)


#: deterministic semantic failures: a malformed plan, schema, mapping,
#: or expression — never a bad row and never a flaky endpoint. Row-level
#: error policies must not absorb them as data errors, and a failing
#: columnar body is not rerun on its row body for one: they fail
#: identically on both bodies, and :mod:`repro.analysis` detects them
#: before row one. (:class:`EvaluationError` is deliberately absent —
#: evaluating an expression against a concrete row *is* data-dependent.)
STATIC_ERRORS = (
    SchemaError,
    GraphError,
    ParseError,
    MappingError,
    CompilationError,
)


class RunCancelled(OrchidError):
    """A supervised run was cancelled before completing.

    Raised cooperatively by :class:`repro.supervision.RunSupervisor`
    at stage/operator boundaries when the run's deadline elapses (or
    :meth:`cancel` was called). Carries enough context to resume:

    :ivar reason: ``"deadline"`` | ``"cancelled"``.
    :ivar frontier: names of the stages/operators whose outputs were
        committed (checkpointed when a :class:`CheckpointStore` is
        configured) before cancellation — the resume point.
    :ivar elapsed: seconds the run had been executing when cancelled.
    """

    def __init__(
        self,
        message: str,
        reason: str = "cancelled",
        frontier: "tuple | None" = None,
        elapsed: "float | None" = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.frontier = tuple(frontier or ())
        self.elapsed = elapsed


class BreakerOpen(ExecutionError):
    """A circuit breaker refused a call because its endpoint is open.

    Deliberately *not* a :class:`TransientError`: retry policies must
    not absorb it — the whole point of the breaker is to fail fast
    instead of burning the backoff budget against a dead endpoint.

    :ivar key: the breaker's endpoint key.
    :ivar retry_after: seconds until the breaker will half-open.
    """

    def __init__(
        self,
        message: str,
        key: "str | None" = None,
        retry_after: "float | None" = None,
    ):
        super().__init__(message)
        self.key = key
        self.retry_after = retry_after


class InjectedCrash(BaseException):
    """A simulated process kill from the ``repro.faults`` crash tier.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) on
    purpose: no retry policy, row-error policy, or columnar-body fallback
    may absorb it, so the process state it leaves behind is exactly
    what a real ``kill -9`` would leave — which is what the
    exactly-once tests assert recovery from."""


class SerializationError(OrchidError):
    """An external-format document cannot be read or written."""

"""The diagnostic model of the static analyzer.

Every finding the analyzer reports is a :class:`Diagnostic`: a stable
``ORC``-prefixed code, a severity, a human-readable message, a source
location (stage/operator/link/mapping/expression — the same fields
:class:`repro.errors.GraphError` carries, so static and runtime
failures render identically), and an optional suggested fix.
Diagnostics are collected into an :class:`AnalysisReport`, which the
``orchid lint`` subcommand renders as text or JSON and every engine
run consults before executing a plan.

The code catalogue is documented in ``docs/analysis.md``; CI guards
that every code listed there is exercised by at least one test.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: severities in decreasing order of, well, severity.
SEVERITIES = (ERROR, WARNING, INFO)

#: the stable diagnostic codes: code → (default severity, title).
CODES: Dict[str, Tuple[str, str]] = {
    "ORC001": (ERROR, "expression cannot be parsed"),
    "ORC002": (ERROR, "expression does not type-check"),
    "ORC003": (ERROR, "predicate is not boolean"),
    "ORC004": (WARNING, "nullable value flows into a NOT NULL column"),
    "ORC010": (ERROR, "graph contains a cycle"),
    "ORC011": (ERROR, "dangling or miswired port"),
    "ORC012": (ERROR, "duplicate link name"),
    "ORC013": (WARNING, "stage is unreachable"),
    "ORC014": (WARNING, "reject link can never receive rows"),
    "ORC015": (ERROR, "link schema incompatible with its consumer"),
    "ORC020": (WARNING, "column computed but never read"),
    "ORC021": (INFO, "expression ends a pushable region"),
    "ORC022": (INFO, "stage breaks an otherwise-fusable chain"),
    "ORC030": (ERROR, "mapping is malformed"),
}


class Location:
    """Where a diagnostic points: any combination of an ETL stage, an
    OHM operator, a link/edge, a mapping, and an expression's source
    text. Mirrors the structured fields of
    :class:`repro.errors.GraphError`."""

    __slots__ = ("stage", "operator", "link", "mapping", "expression")

    def __init__(
        self,
        stage: Optional[str] = None,
        operator: Optional[str] = None,
        link: Optional[str] = None,
        mapping: Optional[str] = None,
        expression: Optional[str] = None,
    ):
        self.stage = stage
        self.operator = operator
        self.link = link
        self.mapping = mapping
        self.expression = expression

    def to_dict(self) -> Dict[str, str]:
        fields = {
            "stage": self.stage,
            "operator": self.operator,
            "link": self.link,
            "mapping": self.mapping,
            "expression": self.expression,
        }
        return {k: v for k, v in fields.items() if v is not None}

    def __bool__(self) -> bool:
        return bool(self.to_dict())

    def __str__(self) -> str:
        return ", ".join(
            f"{field} {value!r}" for field, value in self.to_dict().items()
        )

    def __repr__(self) -> str:
        return f"Location({self})"


class Diagnostic:
    """One analyzer finding.

    :ivar code: stable ``ORCnnn`` code (a key of :data:`CODES`).
    :ivar severity: ``error`` | ``warning`` | ``info``; defaults to the
        code's catalogue severity.
    :ivar message: one human-readable sentence.
    :ivar location: a :class:`Location`.
    :ivar hint: a suggested fix, or None.
    """

    __slots__ = ("code", "severity", "message", "location", "hint")

    def __init__(
        self,
        code: str,
        message: str,
        location: Optional[Location] = None,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
    ):
        if code not in CODES:
            raise ValueError(f"unknown diagnostic code {code!r}")
        if severity is not None and severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.code = code
        self.severity = severity or CODES[code][0]
        self.message = message
        self.location = location or Location()
        self.hint = hint

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "location": self.location.to_dict(),
        }
        if self.hint is not None:
            doc["fix"] = self.hint
        return doc

    def render(self) -> str:
        where = f" at {self.location}" if self.location else ""
        line = f"{self.code} {self.severity}{where}: {self.message}"
        if self.hint is not None:
            line += f" (fix: {self.hint})"
        return line

    def __repr__(self) -> str:
        return f"Diagnostic({self.render()!r})"


class AnalysisReport:
    """An ordered collection of diagnostics for one analyzed subject."""

    def __init__(self, subject: str = ""):
        self.subject = subject
        self.diagnostics: List[Diagnostic] = []

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def emit(
        self,
        code: str,
        message: str,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
        **location: Optional[str],
    ) -> Diagnostic:
        """Build and add a diagnostic; ``location`` kwargs are
        :class:`Location` fields (stage/operator/link/mapping/
        expression)."""
        return self.add(
            Diagnostic(
                code,
                message,
                location=Location(**location),
                hint=hint,
                severity=severity,
            )
        )

    def extend(self, other: "AnalysisReport") -> "AnalysisReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- queries -------------------------------------------------------------

    def _of(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self._of(ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self._of(WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self._of(INFO)

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (warnings and infos allowed)."""
        return not self.errors

    def codes(self) -> List[str]:
        """The distinct codes present, in first-report order."""
        seen: Dict[str, bool] = {}
        for d in self.diagnostics:
            seen[d.code] = True
        return list(seen)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def exit_code(self, strict: bool = False) -> int:
        """The ``orchid lint`` exit status: 1 on errors (or, with
        ``strict``, on warnings too), else 0."""
        if self.errors or (strict and self.warnings):
            return 1
        return 0

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        summary = (
            f"{self.subject or 'plan'}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "subject": self.subject,
                "ok": self.ok,
                "counts": {
                    "error": len(self.errors),
                    "warning": len(self.warnings),
                    "info": len(self.infos),
                },
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
        )

    def __repr__(self) -> str:
        return (
            f"AnalysisReport({self.subject!r}, {len(self.errors)}E/"
            f"{len(self.warnings)}W/{len(self.infos)}I)"
        )


__all__ = [
    "AnalysisReport",
    "CODES",
    "Diagnostic",
    "ERROR",
    "INFO",
    "Location",
    "SEVERITIES",
    "WARNING",
]

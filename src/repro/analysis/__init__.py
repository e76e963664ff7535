"""repro.analysis — static analysis of plans before any row moves.

The analyzer lints OHM graphs, ETL jobs, and mapping sets *without
executing them*: expression type inference and three-valued NULL-ness
over :mod:`repro.schema.types`, structural dataflow lints (cycles,
dangling ports, unreachable stages, dead columns), and placement lints
for the pushdown and fusion planners. Findings carry stable ``ORCnnn``
codes and stage/operator/link/expression locations; ``docs/analysis.md``
is the catalogue.

Entry points:

* :func:`analyze` / :func:`analyze_job` / :func:`analyze_graph` /
  :func:`analyze_mappings` — collect every finding into an
  :class:`AnalysisReport`;
* :func:`check_plan` — the engines' ``check=True`` pre-run hook:
  raise :class:`repro.errors.ValidationError` on the first
  error-severity finding, before a single row is processed;
* the ``orchid lint`` CLI subcommand renders reports as text or JSON.

Whether engines run the pre-run check is the ``check`` option of
:mod:`repro.config` (off unless set).
"""

from repro.analysis.analyzer import (
    analyze,
    analyze_expression,
    analyze_graph,
    analyze_job,
    analyze_mappings,
    check_plan,
)
from repro.analysis.diagnostics import (
    CODES,
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    AnalysisReport,
    Diagnostic,
    Location,
)
from repro.analysis.nullness import (
    AttributeResolver,
    infer_nullable,
    relation_resolver,
)


__all__ = [
    "AnalysisReport",
    "AttributeResolver",
    "CODES",
    "Diagnostic",
    "ERROR",
    "INFO",
    "Location",
    "SEVERITIES",
    "WARNING",
    "analyze",
    "analyze_expression",
    "analyze_graph",
    "analyze_job",
    "analyze_mappings",
    "check_plan",
    "infer_nullable",
    "relation_resolver",
]

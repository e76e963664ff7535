"""Rendering cost plans for humans: the ``--explain`` report.

:func:`explain_graph` prints one line per operator of an OHM instance —
estimated rows in/out, the actual observed rows when a run's feedback
is available, and the modelled ETL cost — plus totals. The CLI's
``--explain`` flag and ``examples/quickstart.py --explain`` both render
through here, so the format is pinned in one place (and in
``tests/cost/test_explain.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cost.estimate import CardinalityEstimator, GraphEstimate
from repro.cost.model import DEFAULT_MODEL, CostModel, output_width
from repro.ohm.graph import OhmGraph


def actuals_from_metrics(metrics) -> Dict[str, float]:
    """Per-operator actual row counts out of a metrics registry (or a
    snapshot ``counters`` dict): ``ohm.operator.<uid>.rows_out``."""
    counters = metrics if isinstance(metrics, dict) else (
        metrics.snapshot().get("counters", {})
    )
    actuals: Dict[str, float] = {}
    for key, value in counters.items():
        if key.startswith("ohm.operator.") and key.endswith(".rows_out"):
            actuals[key[len("ohm.operator."):-len(".rows_out")]] = float(value)
    return actuals


def _fmt_rows(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return str(int(round(value)))


def explain_graph(
    graph: OhmGraph,
    estimate: Optional[GraphEstimate] = None,
    model: Optional[CostModel] = None,
    actuals: Optional[Dict[str, float]] = None,
    estimator: Optional[CardinalityEstimator] = None,
) -> str:
    """A per-operator table of estimated vs actual cardinalities and
    modelled ETL costs for ``graph``.

    ``actuals`` maps operator uids and/or edge names to observed row
    counts (see :func:`actuals_from_metrics`, or a run's
    :attr:`~repro.exec.run.RunResult.rows`); operators without one show
    ``-``.
    """
    model = model or DEFAULT_MODEL
    if estimate is None:
        estimate = (estimator or CardinalityEstimator()).estimate_graph(graph)
    actuals = actuals or {}
    rows = []
    total_cost = 0.0
    for op in graph.topological_order():
        op_estimate = estimate.operators.get(op.uid)
        if op_estimate is None:
            continue
        actual = actuals.get(op.uid)
        if actual is None:
            for edge in graph.out_edges(op.uid):
                actual = actuals.get(edge.name)
                if actual is not None:
                    break
        cost = model.etl_operator_cost(
            op.KIND, op_estimate.rows_in, op_estimate.rows_out,
            output_width(graph, op),
        )
        total_cost += cost
        rows.append((
            op.label,
            op.KIND,
            _fmt_rows(op_estimate.rows_in),
            _fmt_rows(op_estimate.rows_out),
            _fmt_rows(actual),
            f"{cost:.0f}",
            op_estimate.source,
        ))
    header = ("operator", "kind", "est in", "est out", "actual", "cost",
              "source")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [f"cost plan for {graph.name!r}:"]
    out.append("  " + line(header))
    for r in rows:
        out.append("  " + line(r))
    out.append(f"  total estimated cost: {total_cost:.0f} row-units")
    return "\n".join(out)


__all__ = ["actuals_from_metrics", "explain_graph"]

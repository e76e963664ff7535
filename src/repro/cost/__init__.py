"""repro.cost — the cost-based planning layer.

The data-size decision the system makes — push an OHM region into the
DBMS or keep it in the ETL engine (:mod:`repro.deploy.pushdown`) —
consults three pieces:

* :mod:`repro.cost.catalog` — a :class:`StatisticsCatalog` of
  per-relation row counts, distinct-value/null-fraction sketches
  (seedable sampling), and observed per-edge actuals fed back from runs;
* :mod:`repro.cost.estimate` — a :class:`CardinalityEstimator` walking
  the OHM graph propagating selectivities;
* :mod:`repro.cost.model` — a :class:`CostModel` pricing each operator
  on each platform (sqlite vs the ETL engine) at rates measured per
  operator kind by ``benchmarks/calibrate_cost.py``, in microseconds on
  the box that ran it, plus sqlite's load and transfer per cell.

``--explain`` renders all of it per operator
(:func:`repro.cost.explain.explain_graph`); ``docs/planning.md`` is the
handbook.

Planning without a catalog keeps the paper's pushability-only maximal
pushdown.
"""

from __future__ import annotations

from repro.cost.catalog import (
    ColumnStats,
    StatisticsCatalog,
    TableStats,
    catalog_for,
)
from repro.cost.estimate import (
    CardinalityEstimator,
    GraphEstimate,
    OperatorEstimate,
)
from repro.cost.explain import actuals_from_metrics, explain_graph
from repro.cost.model import DEFAULT_MODEL, CostModel


__all__ = [
    "CardinalityEstimator",
    "ColumnStats",
    "CostModel",
    "DEFAULT_MODEL",
    "GraphEstimate",
    "OperatorEstimate",
    "StatisticsCatalog",
    "TableStats",
    "actuals_from_metrics",
    "catalog_for",
    "explain_graph",
]

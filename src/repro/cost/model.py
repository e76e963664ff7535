"""Per-platform operator cost functions (the "how much" half of planning).

Costs are in abstract *row-units*, and a placement weighs two platforms.
The ETL engine touches each row of an operator at one rate, ``ROW_COST``
(the unit): it runs one compiled tier, and the rate awaits calibration
against it (ROADMAP 6(b)). sqlite evaluates an operator in C at ~0.2x,
but *moving* rows costs: loading a row ~0.5 units, fetching a result row
back ~0.3 (docs/planning.md has the measurements) — which is why a
reducing filter + group and even a pass-through projection are worth
pushing, while a join that expands rows is not: every expanded row pays
the transfer. The model does not pick the engine's tier (that is one
default, stated in :mod:`repro.config`).

This module is deliberately a leaf: no imports from the engines, so
:mod:`repro.deploy.pushdown` and ``--explain`` import it without cycles.
"""

from __future__ import annotations

from typing import Dict

#: per-row cost of one operator in the ETL engine (the unit).
ROW_COST = 1.0
#: per-row cost of one operator evaluated inside sqlite.
SQL_ROW_COST = 0.2
#: per-row cost of loading a base row into the DBMS.
SQL_LOAD_COST = 0.5
#: per-row cost of fetching a query-result row back into Python columns.
SQL_TRANSFER_COST = 0.3
#: per-row cost of reading a base row in the ETL engine (source scan).
SCAN_COST = 0.1
#: per-row cost of delivering a row to a target.
WRITE_COST = 0.1

#: relative operator weight by OHM operator kind — a JOIN touches two
#: inputs and hashes, a GROUP hashes and folds, a SPLIT merely aliases.
OPERATOR_FACTORS: Dict[str, float] = {
    "SOURCE": 0.0,
    "TARGET": 0.0,
    "FILTER": 1.0,
    "PROJECT": 1.2,
    "BASIC PROJECT": 1.0,
    "KEYGEN": 1.0,
    "COLUMN SPLIT": 1.2,
    "COLUMN MERGE": 1.2,
    "JOIN": 2.5,
    "GROUP": 2.0,
    "UNION": 0.6,
    "SPLIT": 0.3,
    "NEST": 2.0,
    "UNNEST": 1.5,
    "UNKNOWN": 1.0,
}
DEFAULT_OPERATOR_FACTOR = 1.0


def operator_factor(kind: str) -> float:
    return OPERATOR_FACTORS.get(kind, DEFAULT_OPERATOR_FACTOR)


class CostModel:
    """Costs operators on each platform from cardinality estimates.

    All methods return abstract row-units; only *comparisons* between
    them are meaningful. Instantiating with keyword overrides rescales
    individual constants (the benchmarks do this to stress decisions).
    """

    def __init__(
        self,
        row_cost: float = ROW_COST,
        sql_row_cost: float = SQL_ROW_COST,
        sql_load_cost: float = SQL_LOAD_COST,
        sql_transfer_cost: float = SQL_TRANSFER_COST,
    ):
        self.row_cost = row_cost
        self.sql_row_cost = sql_row_cost
        self.sql_load_cost = sql_load_cost
        self.sql_transfer_cost = sql_transfer_cost

    # -- per-operator costs --------------------------------------------------

    def etl_operator_cost(
        self, kind: str, rows_in: float, rows_out: float
    ) -> float:
        """One operator executed by the ETL engine."""
        if kind == "SOURCE":
            return SCAN_COST * rows_out
        if kind == "TARGET":
            return WRITE_COST * rows_in
        return operator_factor(kind) * self.row_cost * max(rows_in, 0.0)

    def sql_operator_cost(
        self, kind: str, rows_in: float, rows_out: float
    ) -> float:
        """One operator evaluated inside the DBMS (no data movement —
        that is costed at the region boundary)."""
        if kind in ("SOURCE", "TARGET"):
            return 0.0
        return operator_factor(kind) * self.sql_row_cost * max(rows_in, 0.0)

    # -- region costs --------------------------------------------------------

    def sql_load(self, base_rows: float) -> float:
        """Loading ``base_rows`` source rows into the DBMS."""
        return self.sql_load_cost * max(base_rows, 0.0)

    def sql_transfer(self, frontier_rows: float) -> float:
        """Materializing ``frontier_rows`` query-result rows back out."""
        return self.sql_transfer_cost * max(frontier_rows, 0.0)


#: the shared default model (all methods are pure, so sharing is safe).
DEFAULT_MODEL = CostModel()


__all__ = [
    "CostModel",
    "DEFAULT_MODEL",
    "DEFAULT_OPERATOR_FACTOR",
    "OPERATOR_FACTORS",
    "ROW_COST",
    "SCAN_COST",
    "SQL_LOAD_COST",
    "SQL_ROW_COST",
    "SQL_TRANSFER_COST",
    "WRITE_COST",
    "operator_factor",
]

"""Per-platform operator cost functions (the "how much" half of planning).

One row-unit is one microsecond on the box that ran the calibration:
every rate below is a measurement by ``benchmarks/calibrate_cost.py``
(one-operator OHM graphs at 2·10⁴ rows, the kinds a fused chain is made
of inside a chain of their own; docs/planning.md has the table,
EXPERIMENTS "PLACE" the run). On a new box, rerun it and paste the block
it prints. A placement weighs two platforms:

* the ETL engine (the compiled tier) pays each operator's kind's rate
  per input row — a source's scan and a target's write per cell of
  their output, a JOIN both per input row and per output cell;
* sqlite pays its own rate of each pushed operator's kind per input
  row, plus moving data: loading each base cell in and fetching each
  result cell back as a block (per cell: a table's width moves both).

So a pushed region pays off only when sqlite's evaluation saves more
than the load and the transfer cost, and a short region over data that
starts in memory stays in the engine. The model does not pick the
engine's tier (one default, :mod:`repro.config`). A leaf module: no
engine imports, so :mod:`repro.deploy.pushdown` and ``--explain`` use it.
"""

from __future__ import annotations

from typing import Dict

# -- measured by benchmarks/calibrate_cost.py at 20000 rows, best of 9 -------
ETL_ROW_COSTS: Dict[str, float] = {
    "FILTER": 0.164,
    "PROJECT": 0.385,
    "BASIC PROJECT": 0.005,
    "KEYGEN": 0.736,
    "COLUMN MERGE": 1.602,
    "COLUMN SPLIT": 2.694,
    "GROUP": 0.262,
    "UNION": 0.104,
    "SPLIT": 0.001,
    "NEST": 5.233,
    "JOIN": 0.044,
}
ETL_CELL_COSTS: Dict[str, float] = {
    "SOURCE": 0.026,
    "TARGET": 0.099,
    "JOIN": 0.070,
}
SQL_ROW_COSTS: Dict[str, float] = {
    "FILTER": 0.040,
    "PROJECT": 0.182,
    "BASIC PROJECT": 0.001,
    "COLUMN MERGE": 0.619,
    "GROUP": 0.707,
    "UNION": 0.371,
    "JOIN": 0.295,
}
SQL_LOAD_CELL_COST = 0.433
SQL_TRANSFER_CELL_COST = 0.267
# -----------------------------------------------------------------------------

#: the rate of a kind the calibration did not measure (UNKNOWN, a new
#: operator): the dearest measured rate of its platform.
DEFAULT_ETL_ROW_COST = max(ETL_ROW_COSTS.values())
DEFAULT_SQL_ROW_COST = max(SQL_ROW_COSTS.values())


def output_width(graph, op) -> int:
    """The columns ``op`` outputs: its relation's (a SOURCE's or a
    TARGET's), else its first out edge's schema's."""
    relation = getattr(op, "relation", None)
    if relation is None:
        edges = graph.out_edges(op.uid)
        relation = edges[0].schema if edges else None
    return len(relation.attribute_names) if relation is not None else 1


class CostModel:
    """Costs operators on each platform from cardinality estimates, in
    row-units; pure, so one instance serves every plan. ``width`` is the
    column count of an operator's output or of a relation that is moved.
    """

    def etl_operator_cost(
        self, kind: str, rows_in: float, rows_out: float, width: int
    ) -> float:
        """One operator executed by the ETL engine."""
        per_row = ETL_ROW_COSTS.get(
            kind, 0.0 if kind in ETL_CELL_COSTS else DEFAULT_ETL_ROW_COST
        )
        return per_row * max(rows_in, 0.0) + (
            ETL_CELL_COSTS.get(kind, 0.0) * max(rows_out, 0.0) * width
        )

    def sql_operator_cost(
        self, kind: str, rows_in: float, rows_out: float
    ) -> float:
        """One operator evaluated inside the DBMS (no data movement —
        that is costed at the region boundary)."""
        if kind in ("SOURCE", "TARGET"):
            return 0.0
        return SQL_ROW_COSTS.get(kind, DEFAULT_SQL_ROW_COST) * max(rows_in, 0.0)

    def sql_load(self, base_rows: float, width: int) -> float:
        """Loading ``base_rows`` source rows into the DBMS."""
        return SQL_LOAD_CELL_COST * max(base_rows, 0.0) * width

    def sql_transfer(self, frontier_rows: float, width: int) -> float:
        """Fetching ``frontier_rows`` query-result rows back out."""
        return SQL_TRANSFER_CELL_COST * max(frontier_rows, 0.0) * width


#: the shared default model.
DEFAULT_MODEL = CostModel()


__all__ = [
    "CostModel", "DEFAULT_ETL_ROW_COST", "DEFAULT_MODEL",
    "DEFAULT_SQL_ROW_COST", "ETL_CELL_COSTS", "ETL_ROW_COSTS",
    "SQL_LOAD_CELL_COST", "SQL_ROW_COSTS", "SQL_TRANSFER_CELL_COST",
    "output_width",
]

"""Per-platform operator cost functions (the "how much" half of planning).

Costs are in abstract *row-units*: 1.0 is one row touched once by a
row kernel at the ``rows`` tier. Every other platform is expressed
relative to that, calibrated against the repository's own benchmarks:

* the interpreting oracle is ~5x slower per row than the rows tier
  (``BENCH_engines``: 1.6-2.3x end to end with materialization amortized;
  measured while the rows tier still compiled its row closures — both
  now run the evaluator and differ only in materialization, so this
  rate awaits recalibration);
* block kernels are ~0.35x per row, with a per-operator batch-build
  overhead modelled separately (``BLOCK_SETUP_ROWS``);
* sqlite evaluates an operator in C at ~0.2x, but *moving* rows costs.
  Both boundaries are columnar (``repro.data.columns``), timed at
  20 000 rows against ``BENCH_PUSHDOWN``'s pass-through case (scan +
  PROJECT + write = 1.4 units a row, 2.2 us a unit): loading a row
  (``executemany``) takes 1.0-1.5 us, ~0.5 units, fetching a result row
  back as a column block 0.6-0.95 us, ~0.3 units (docs/planning.md has
  the table) — which is why a reducing filter + group and even a
  pass-through projection are worth pushing, while a join that expands
  rows is not: every expanded row pays the transfer.

The model places operators (SQL or ETL); it does not pick the ETL
engine's tier — that is one default, stated in :mod:`repro.config`
(docs/execution-model.md has the measured reason).

This module is deliberately a leaf: no imports from the engines, so
:mod:`repro.deploy.pushdown` and ``--explain`` import it without cycles.
"""

from __future__ import annotations

from typing import Dict

#: per-row cost of one operator on the interpreting oracle.
ORACLE_ROW_COST = 5.0
#: per-row cost of one operator as a row kernel at the rows tier (the unit).
ROW_COST = 1.0
#: per-row cost of one operator as a vectorized block kernel.
BLOCK_ROW_COST = 0.35
#: per-row cost of one operator inside a fused selection-vector chain —
#: cheaper than the block kernel because intermediate blocks are never
#: gathered (``BENCH_FUSION``: fused chains beat unfused blocks ~1.3x+
#: on filter→project→aggregate, with the batch setup paid once per
#: chain rather than once per operator).
FUSED_ROW_COST = 0.22
#: fixed per-operator overhead of the block path (column builds,
#: block compilation), in row-units.
BLOCK_SETUP_ROWS = 256.0
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
        oracle_row_cost: float = ORACLE_ROW_COST,
        row_cost: float = ROW_COST,
        block_row_cost: float = BLOCK_ROW_COST,
        fused_row_cost: float = FUSED_ROW_COST,
        block_setup_rows: float = BLOCK_SETUP_ROWS,
        sql_row_cost: float = SQL_ROW_COST,
        sql_load_cost: float = SQL_LOAD_COST,
        sql_transfer_cost: float = SQL_TRANSFER_COST,
    ):
        self.oracle_row_cost = oracle_row_cost
        self.row_cost = row_cost
        self.block_row_cost = block_row_cost
        self.fused_row_cost = fused_row_cost
        self.block_setup_rows = block_setup_rows
        self.sql_row_cost = sql_row_cost
        self.sql_load_cost = sql_load_cost
        self.sql_transfer_cost = sql_transfer_cost

    # -- per-operator costs --------------------------------------------------

    def etl_operator_cost(
        self,
        kind: str,
        rows_in: float,
        rows_out: float,
        tier: str = "rows",
    ) -> float:
        """One operator executed by the ETL engine at ``tier``."""
        if kind == "SOURCE":
            return SCAN_COST * rows_out
        if kind == "TARGET":
            return WRITE_COST * rows_in
        per_row = {
            "rows": self.row_cost,
            "block": self.block_row_cost,
            "fused": self.fused_row_cost,
            "oracle": self.oracle_row_cost,
        }.get(tier, self.row_cost)
        cost = operator_factor(kind) * per_row * max(rows_in, 0.0)
        if tier == "block":
            cost += self.block_setup_rows
        return cost

    def fused_chain_cost(self, rows_in: float, operators: int) -> float:
        """A maximal fused chain of ``operators`` fusable operators over
        ``rows_in`` input rows: each operator costs the fused per-row
        rate on the rows surviving so far (approximated by the input
        cardinality), and the batch-build overhead is paid once per
        chain — at the single materialization point — rather than once
        per operator as on the unfused block path."""
        return (
            self.fused_row_cost * max(rows_in, 0.0) * max(operators, 0)
            + self.block_setup_rows
        )

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
    "BLOCK_ROW_COST",
    "BLOCK_SETUP_ROWS",
    "CostModel",
    "DEFAULT_MODEL",
    "DEFAULT_OPERATOR_FACTOR",
    "FUSED_ROW_COST",
    "OPERATOR_FACTORS",
    "ORACLE_ROW_COST",
    "ROW_COST",
    "SCAN_COST",
    "SQL_LOAD_COST",
    "SQL_ROW_COST",
    "SQL_TRANSFER_COST",
    "WRITE_COST",
    "operator_factor",
]

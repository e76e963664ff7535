"""CostModel: properties of the measured rates, not their values.

The rates are measurements (``benchmarks/calibrate_cost.py``), so these
tests pin what any calibration must keep true, plus the two decisions
EXPERIMENTS "PLACE" times; which plan wins for each sweep family is
pinned in ``test_placement_matches_measurement.py``.
"""

import math

from repro.cost import DEFAULT_MODEL
from repro.cost import model

_RATES = [
    *model.ETL_ROW_COSTS.values(),
    *model.ETL_CELL_COSTS.values(),
    *model.SQL_ROW_COSTS.values(),
    model.SQL_LOAD_CELL_COST,
    model.SQL_TRANSFER_CELL_COST,
    model.DEFAULT_ETL_ROW_COST,
    model.DEFAULT_SQL_ROW_COST,
]
_KINDS = sorted({
    *model.ETL_ROW_COSTS, *model.ETL_CELL_COSTS, *model.SQL_ROW_COSTS,
    "UNKNOWN",
})


class TestOperatorCosts:
    def test_every_rate_is_finite_and_positive(self):
        assert all(math.isfinite(rate) and rate > 0 for rate in _RATES)

    def test_an_unknown_kind_falls_back_to_the_default(self):
        n = 1000.0
        etl = DEFAULT_MODEL.etl_operator_cost("NEVER_HEARD_OF_IT", n, n, 4)
        assert etl == model.DEFAULT_ETL_ROW_COST * n
        assert DEFAULT_MODEL.sql_operator_cost("NEVER_HEARD_OF_IT", n, n) == (
            model.DEFAULT_SQL_ROW_COST * n
        )

    def test_costs_monotone_in_rows(self):
        sizes = (0.0, 10.0, 1000.0, 100000.0)
        for kind in _KINDS:
            etl = [DEFAULT_MODEL.etl_operator_cost(kind, n, n, 4) for n in sizes]
            sql = [DEFAULT_MODEL.sql_operator_cost(kind, n, n) for n in sizes]
            assert etl == sorted(etl) and etl[-1] > 0, kind
            assert sql == sorted(sql), kind

    def test_moving_data_is_monotone_in_rows_and_width(self):
        for move in (DEFAULT_MODEL.sql_load, DEFAULT_MODEL.sql_transfer):
            by_rows = [move(n, 4) for n in (0.0, 10.0, 1000.0)]
            by_width = [move(1000.0, w) for w in (1, 2, 8)]
            assert by_rows == sorted(by_rows) and by_width == sorted(by_width)
            assert by_rows[0] == 0.0 < by_rows[-1]

    def test_source_and_target_cost_scan_and_write(self):
        assert DEFAULT_MODEL.etl_operator_cost("SOURCE", 0, 100, 4) > 0
        assert DEFAULT_MODEL.etl_operator_cost("TARGET", 100, 100, 4) > 0
        assert DEFAULT_MODEL.sql_operator_cost("SOURCE", 100, 100) == 0.0
        assert DEFAULT_MODEL.sql_operator_cost("TARGET", 100, 100) == 0.0

    def test_a_join_pays_for_every_input_row(self):
        # a selective join still builds and probes all of its input
        small, large = (
            DEFAULT_MODEL.etl_operator_cost("JOIN", n, 10.0, 5)
            for n in (1000.0, 100000.0)
        )
        assert large >= model.ETL_ROW_COSTS["JOIN"] * 100000.0
        assert large > small > 0

    def test_sql_transfer_dominates_an_expanding_join(self):
        # a join fanning 800 rows of 6 columns out to 20 000 rows of 12
        # pays transfer on every expanded cell
        n, out = 800.0, 20000.0
        pushed = (
            DEFAULT_MODEL.sql_load(n, 6)
            + DEFAULT_MODEL.sql_operator_cost("JOIN", n, out)
            + DEFAULT_MODEL.sql_transfer(out, 12)
        )
        etl = DEFAULT_MODEL.etl_operator_cost("JOIN", n, out, 12)
        assert pushed > etl

    def test_pass_through_is_not_worth_pushing(self):
        # data that starts in memory: loading and fetching a row costs
        # more than the engine's projection of it (EXPERIMENTS "PLACE":
        # 0.011 s never-push against 0.055 s always-push at 20 000 rows)
        n = 20000.0
        pushed = (
            DEFAULT_MODEL.sql_load(n, 2)
            + DEFAULT_MODEL.sql_operator_cost("PROJECT", n, n)
            + DEFAULT_MODEL.sql_transfer(n, 2)
        )
        etl = DEFAULT_MODEL.etl_operator_cost("PROJECT", n, n, 2) + (
            DEFAULT_MODEL.etl_operator_cost("SOURCE", 0, n, 2)
        )
        assert pushed > etl

    def test_loading_outweighs_a_short_reducing_region(self):
        # a filter + group collapsing 10 000 rows to 100 still loads all
        # 10 000 first: two operators save less than the load costs (the
        # example job at 10³–7·10⁴ rows, EXPERIMENTS "PLACE")
        n, out = 10000.0, 100.0
        pushed = (
            DEFAULT_MODEL.sql_load(n, 4)
            + DEFAULT_MODEL.sql_operator_cost("FILTER", n, n / 3)
            + DEFAULT_MODEL.sql_operator_cost("GROUP", n / 3, out)
            + DEFAULT_MODEL.sql_transfer(out, 2)
        )
        etl = (
            DEFAULT_MODEL.etl_operator_cost("SOURCE", 0, n, 4)
            + DEFAULT_MODEL.etl_operator_cost("FILTER", n, n / 3, 4)
            + DEFAULT_MODEL.etl_operator_cost("GROUP", n / 3, out, 2)
        )
        assert pushed > etl

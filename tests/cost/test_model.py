"""CostModel: per-platform cost orderings."""

from repro.cost import DEFAULT_MODEL
from repro.cost.model import operator_factor


class TestOperatorCosts:
    def test_operator_factors_order_join_above_filter(self):
        assert operator_factor("JOIN") > operator_factor("GROUP")
        assert operator_factor("GROUP") > operator_factor("FILTER")
        assert operator_factor("SPLIT") < operator_factor("FILTER")
        assert operator_factor("NEVER_HEARD_OF_IT") == 1.0

    def test_costs_monotone_in_rows(self):
        costs = [
            DEFAULT_MODEL.etl_operator_cost("JOIN", n, n)
            for n in (0, 10, 1000, 100000)
        ]
        assert costs == sorted(costs)

    def test_sql_transfer_dominates_an_expanding_join(self):
        # evaluating in sqlite is cheap, but a join that fans 800 rows
        # out to 20000 pays transfer on every expanded row: pushing it
        # must cost more than the ETL engine's row kernel
        n, out = 800.0, 20000.0
        pushed = (
            DEFAULT_MODEL.sql_load(n)
            + DEFAULT_MODEL.sql_operator_cost("JOIN", n, out)
            + DEFAULT_MODEL.sql_transfer(out)
        )
        etl = DEFAULT_MODEL.etl_operator_cost("JOIN", n, out)
        assert pushed > etl

    def test_pass_through_is_worth_pushing(self):
        # since results come back as columns, load + transfer of a row
        # cost less than one PROJECT row kernel touching it
        n = 10000.0
        pushed = (
            DEFAULT_MODEL.sql_load(n)
            + DEFAULT_MODEL.sql_operator_cost("PROJECT", n, n)
            + DEFAULT_MODEL.sql_transfer(n)
        )
        etl = DEFAULT_MODEL.etl_operator_cost("PROJECT", n, n)
        assert pushed < etl

    def test_sql_wins_when_it_reduces(self):
        # a filter+group region collapsing 10000 rows to 100 pays the
        # transfer only on the 100 survivors
        n, out = 10000.0, 100.0
        pushed = (
            DEFAULT_MODEL.sql_load(n)
            + DEFAULT_MODEL.sql_operator_cost("FILTER", n, n / 3)
            + DEFAULT_MODEL.sql_operator_cost("GROUP", n / 3, out)
            + DEFAULT_MODEL.sql_transfer(out)
        )
        etl = (
            DEFAULT_MODEL.etl_operator_cost("FILTER", n, n / 3)
            + DEFAULT_MODEL.etl_operator_cost("GROUP", n / 3, out)
        )
        assert pushed < etl

    def test_source_and_target_cost_scan_and_write(self):
        assert DEFAULT_MODEL.etl_operator_cost("SOURCE", 0, 100) > 0
        assert DEFAULT_MODEL.etl_operator_cost("TARGET", 100, 100) > 0
        assert DEFAULT_MODEL.sql_operator_cost("SOURCE", 100, 100) == 0.0

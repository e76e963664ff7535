"""CostModel: tier crossovers and per-platform cost orderings."""

from repro.cost import (
    CostModel,
    DEFAULT_MODEL,
    choose_tier,
    derived_block_min_rows,
)
from repro.cost.model import (
    BLOCK_ROW_COST,
    BLOCK_SETUP_ROWS,
    ROW_COST,
    operator_factor,
)


class TestDerivedCrossovers:
    def test_block_threshold_is_the_setup_crossover(self):
        n = derived_block_min_rows()
        # at the crossover the per-row saving just covers the setup
        assert (n - 1) * (ROW_COST - BLOCK_ROW_COST) <= BLOCK_SETUP_ROWS
        assert n * (ROW_COST - BLOCK_ROW_COST) > BLOCK_SETUP_ROWS


class TestChooseTier:
    def test_small_inputs_stay_on_row_kernels(self):
        assert choose_tier(0) == "rows"
        assert choose_tier(derived_block_min_rows() - 1) == "rows"

    def test_medium_inputs_use_block_kernels(self):
        assert choose_tier(derived_block_min_rows()) == "block"
        assert choose_tier(5000) == "block"
        assert choose_tier(10**6) == "block"

    def test_model_instance_overrides_shift_the_crossover(self):
        cheap_blocks = CostModel(block_setup_rows=0.0)
        assert cheap_blocks.block_min_rows() == 1
        assert cheap_blocks.choose_tier(2) == "block"
        assert DEFAULT_MODEL.choose_tier(2) == "rows"


class TestOperatorCosts:
    def test_tier_ordering_above_the_setup_cost(self):
        n = 100000
        oracle = DEFAULT_MODEL.etl_operator_cost("FILTER", n, n, "oracle")
        rows = DEFAULT_MODEL.etl_operator_cost("FILTER", n, n, "rows")
        block = DEFAULT_MODEL.etl_operator_cost("FILTER", n, n, "block")
        assert oracle > rows > block

    def test_block_setup_makes_small_inputs_cheaper_on_rows(self):
        n = 50
        rows = DEFAULT_MODEL.etl_operator_cost("FILTER", n, n, "rows")
        block = DEFAULT_MODEL.etl_operator_cost("FILTER", n, n, "block")
        assert rows < block

    def test_operator_factors_order_join_above_filter(self):
        assert operator_factor("JOIN") > operator_factor("GROUP")
        assert operator_factor("GROUP") > operator_factor("FILTER")
        assert operator_factor("SPLIT") < operator_factor("FILTER")
        assert operator_factor("NEVER_HEARD_OF_IT") == 1.0

    def test_costs_monotone_in_rows(self):
        for tier in ("rows", "block", "oracle"):
            costs = [
                DEFAULT_MODEL.etl_operator_cost("JOIN", n, n, tier)
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
        etl = DEFAULT_MODEL.etl_operator_cost("JOIN", n, out, "rows")
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
        etl = DEFAULT_MODEL.etl_operator_cost("PROJECT", n, n, "rows")
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
            DEFAULT_MODEL.etl_operator_cost("FILTER", n, n / 3, "rows")
            + DEFAULT_MODEL.etl_operator_cost("GROUP", n / 3, out, "rows")
        )
        assert pushed < etl

    def test_source_and_target_cost_scan_and_write(self):
        assert DEFAULT_MODEL.etl_operator_cost("SOURCE", 0, 100) > 0
        assert DEFAULT_MODEL.etl_operator_cost("TARGET", 100, 100) > 0
        assert DEFAULT_MODEL.sql_operator_cost("SOURCE", 100, 100) == 0.0

"""SQL platform tests: dialect rendering, SELECT generation, and sqlite
execution agreement with the mapping executor."""

import datetime

import pytest

from repro.compile import compile_job
from repro.deploy.sql import (
    DEFAULT_DIALECT,
    SqliteRunner,
    mapping_to_select,
    mappings_to_select,
    run_mapping_as_sql,
)
from repro.data.dataset import Dataset, Instance
from repro.errors import DeploymentError
from repro.expr.parser import parse
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    ohm_to_mappings,
)
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


class TestDialectRendering:
    def render(self, text):
        return DEFAULT_DIALECT.render(parse(text))

    def test_identifiers_quoted(self):
        assert self.render("Accounts.type") == '"Accounts"."type"'

    def test_string_escaping(self):
        assert self.render("'it''s'") == "'it''s'"

    def test_date_literal_is_iso_string(self):
        assert self.render("DATE '2008-01-01'") == "'2008-01-01'"

    def test_booleans_become_ints(self):
        assert self.render("TRUE") == "1"
        assert self.render("FALSE") == "0"

    def test_case_when(self):
        sql = self.render("CASE WHEN a < 1 THEN 'x' ELSE 'y' END")
        assert sql.startswith("(CASE WHEN")

    def test_concat_becomes_pipes(self):
        assert self.render("CONCAT(a, b)") == '("a" || "b")'

    def test_add_days_becomes_date_function(self):
        assert "date(" in self.render("ADD_DAYS(d, 10)")

    def test_years_between_uses_julianday(self):
        assert "julianday" in self.render("YEARS_BETWEEN(a, b)")

    def test_casts(self):
        assert self.render("TO_INTEGER(x)") == 'CAST("x" AS INTEGER)'
        assert self.render("TO_STRING(x)") == 'CAST("x" AS TEXT)'

    def test_unsupported_function_refused(self):
        assert not DEFAULT_DIALECT.supports_expression(
            parse("NEXT_SURROGATE_KEY('s')")
        )
        with pytest.raises(DeploymentError):
            self.render("NEXT_SURROGATE_KEY('s')")

    def test_first_aggregate_unsupported(self):
        from repro.expr.ast import AggregateCall, ColumnRef

        assert not DEFAULT_DIALECT.supports_expression(
            AggregateCall("FIRST", ColumnRef("x"))
        )


class TestSelectGeneration:
    @pytest.fixture
    def accounts(self):
        return relation(
            "Accounts", ("customerID", "int", False),
            ("balance", "float", False), ("type", "varchar"),
        )

    def test_single_block_shape(self, accounts):
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            relation("T", ("customerID", "int"), ("total", "float")),
            [("customerID", "a.customerID"), ("total", "SUM(a.balance)")],
            where="a.type <> 'L'",
            group_by=["a.customerID"],
        )
        sql = mapping_to_select(mapping)
        assert sql.startswith("SELECT ")
        assert 'FROM "Accounts" AS "a"' in sql
        assert "WHERE" in sql and "GROUP BY" in sql
        assert 'SUM("a"."balance")' in sql

    def test_union_all_for_shared_target(self, accounts):
        target = relation("T", ("customerID", "int"))
        a = Mapping([SourceBinding("a", accounts)], target,
                    [("customerID", "a.customerID")], where="a.balance > 10")
        b = Mapping([SourceBinding("a", accounts)], target,
                    [("customerID", "a.customerID")], where="a.balance <= 10")
        sql = mappings_to_select([a, b])
        assert sql.count("SELECT") == 2
        assert "UNION ALL" in sql

    def test_opaque_mapping_refused(self, accounts):
        opaque = Mapping(
            [SourceBinding("a", accounts)],
            relation("T", ("customerID", "int")), [], reference="box",
        )
        with pytest.raises(DeploymentError):
            mapping_to_select(opaque)


class TestSqliteExecution:
    @pytest.fixture
    def accounts(self):
        return relation(
            "Accounts", ("customerID", "int", False),
            ("balance", "float", False), ("type", "varchar"),
            ("opened", "date"),
        )

    @pytest.fixture
    def instance(self, accounts):
        return Instance([
            Dataset(accounts, [
                {"customerID": 1, "balance": 10.0, "type": "S",
                 "opened": datetime.date(2001, 5, 1)},
                {"customerID": 1, "balance": 20.0, "type": "L",
                 "opened": datetime.date(2002, 6, 1)},
                {"customerID": 2, "balance": 30.0, "type": "S",
                 "opened": None},
            ]),
        ])

    def test_sql_result_matches_mapping_executor(self, accounts, instance):
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            relation("T", ("customerID", "int"), ("total", "float")),
            [("customerID", "a.customerID"), ("total", "SUM(a.balance)")],
            where="a.type <> 'L'",
            group_by=["a.customerID"],
        )
        via_sql = run_mapping_as_sql(mapping, instance)
        direct = MappingExecutor().execute(
            MappingSet([mapping]), instance
        ).dataset(mapping.target.name)
        assert via_sql.same_bag(direct)

    def test_dates_round_trip_through_sqlite(self, accounts, instance):
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            relation("T", ("customerID", "int"), ("opened", "date")),
            [("customerID", "a.customerID"), ("opened", "a.opened")],
            where="a.opened IS NOT NULL",
        )
        via_sql = run_mapping_as_sql(mapping, instance)
        assert all(
            isinstance(r["opened"], datetime.date) for r in via_sql
        )

    def test_date_functions_agree(self, accounts, instance):
        mapping = Mapping(
            [SourceBinding("a", accounts)],
            relation("T", ("customerID", "int"), ("until", "date"),
                     ("yrs", "int")),
            [
                ("customerID", "a.customerID"),
                ("until", "ADD_DAYS(a.opened, 100)"),
                ("yrs", "YEARS_BETWEEN(DATE '2008-01-01', a.opened)"),
            ],
            where="a.opened IS NOT NULL",
        )
        via_sql = run_mapping_as_sql(mapping, instance)
        direct = MappingExecutor().execute(
            MappingSet([mapping]), instance
        ).dataset(mapping.target.name)
        assert via_sql.same_bag(direct)

    def test_bad_sql_raises_execution_error(self, instance, accounts):
        from repro.errors import ExecutionError

        runner = SqliteRunner(instance)
        try:
            with pytest.raises(ExecutionError):
                runner.query("SELECT nonsense FROM nowhere", accounts)
        finally:
            runner.close()

    def test_example_m1_runs_on_sqlite(self):
        # the paper's M1 as a single SQL block, executed on the DBMS
        graph = compile_job(build_example_job())
        mappings = ohm_to_mappings(graph)
        m1 = mappings.by_name("M1")
        instance = generate_instance(40)
        via_sql = run_mapping_as_sql(m1, instance)
        direct = MappingExecutor().execute(
            MappingSet([m1]), instance
        ).dataset(m1.target.name)
        assert via_sql.same_bag(direct)

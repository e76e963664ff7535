"""Unit tests for the expression compiler and the planner plumbing."""

import os

import pytest

from repro import config
from repro.errors import EvaluationError
from repro.exec import ExpressionPlanner
from repro.exec.compile_expr import compile_expr, compile_predicate, is_foldable
from repro.expr.ast import AggregateCall, ColumnRef, Literal
from repro.expr.evaluator import Environment
from repro.expr.parser import parse


def test_is_foldable():
    assert is_foldable(parse("1 + 2 * 3"))
    assert is_foldable(parse("'a' || 'b'"))
    assert not is_foldable(parse("a + 1"))
    assert not is_foldable(parse("UPPER('x')"))  # functions may be impure
    assert not is_foldable(AggregateCall("SUM", ColumnRef("v")))


def test_constant_folding_produces_constant_closure():
    compiled = compile_expr(parse("1 + 2 * 3"))
    assert compiled({}) == 7
    # folding off still computes the same value
    assert compile_expr(parse("1 + 2 * 3"), fold_constants=False)({}) == 7


def test_foldable_error_is_deferred_to_call_time():
    compiled = compile_expr(parse("1 / 0"))
    with pytest.raises(EvaluationError):
        compiled({})


def test_accepts_bare_mapping_and_environment():
    compiled = compile_expr(parse("x * 2"))
    assert compiled({"x": 21}) == 42
    assert compiled(Environment({"x": 21})) == 42


def test_literal_like_precompiles_pattern():
    compiled = compile_expr(parse("s LIKE 'ab%'"))
    assert compiled({"s": "abc"}) is True
    assert compiled({"s": "xbc"}) is False
    assert compiled({"s": None}) is None


def test_compile_predicate_reduces_unknown_to_false():
    predicate = compile_predicate(parse("x > 0"))
    assert predicate({"x": 1}) is True
    assert predicate({"x": None}) is False


def test_aggregate_per_row_raises():
    with pytest.raises(EvaluationError):
        compile_expr(AggregateCall("SUM", ColumnRef("v")))({})


def test_compiled_closure_keeps_expr_for_introspection():
    expr = parse("a + 1")
    assert compile_expr(expr).expr is expr


def test_planner_caches_per_expression():
    planner = ExpressionPlanner()
    one = planner.scalar(parse("a + 1"))
    two = planner.scalar(parse("a + 1"))
    assert one is two
    assert planner.predicate(parse("a > 1")) is planner.predicate(
        parse("a > 1")
    )


def test_default_compiled_env_var(monkeypatch):
    monkeypatch.delenv("REPRO_COMPILED", raising=False)
    assert config.resolve("compiled") is True
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert config.resolve("compiled") is False
    assert config.resolve("compiled", None) is False
    assert config.resolve("compiled", True) is True
    monkeypatch.setenv("REPRO_COMPILED", "1")
    assert config.resolve("compiled") is True


def test_set_default_compiled_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    with config.overriding(compiled=True):
        assert config.resolve("compiled") is True
    assert config.resolve("compiled") is False


def test_interpreted_planner_reports_mode():
    assert ExpressionPlanner(compiled=False).compiled is False
    assert ExpressionPlanner(compiled=True).compiled is True

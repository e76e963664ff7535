"""Regression tests for the narrowed exception paths: static plan
defects (``STATIC_ERRORS``) and harness bugs must surface immediately —
never absorbed by row policies, never rerun on an operator's row body
after its columnar body raised one."""

import pytest

from repro.data.dataset import Instance
from repro.errors import (
    EvaluationError,
    FaultInjected,
    SchemaError,
    TypeCheckError,
)
from repro.etl import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import (
    FilterOutput,
    FilterStage,
    TableSource,
    TableTarget,
)
from repro.exec import block, kernels
from repro.mapping.executor import MappingExecutor
from repro.mapping.model import Mapping, MappingSet, SourceBinding
from repro.ohm import Filter, OhmGraph, Source, Target
from repro.obs import Observability
from repro.ohm.engine import OhmExecutor
from repro.resilience import ErrorContext
from repro.schema import relation
from repro.workloads import synthesize_instance

REL = relation(
    "R", ("id", "int", False), ("name", "string", False),
    ("amt", "float", False),
)


def make_job():
    job = Job("ladder")
    s = job.add(TableSource(REL))
    f = job.add(FilterStage([FilterOutput(where="id > 0")]))
    t = job.add(TableTarget(REL))
    job.chain(s, f, t, names=["a", "b"])
    return job


def make_graph():
    g = OhmGraph("ladder")
    s = g.add(Source(REL))
    f = g.add(Filter("id > 0"))
    t = g.add(Target(REL))
    g.chain(s, f, t, names=["a", "b"])
    return g


def make_mappings():
    m = Mapping(
        [SourceBinding("r", REL)],
        relation("T", ("id", "int", False)),
        [("id", "r.id")],
        name="M1",
    )
    return MappingSet([m])


class TestRowPoliciesNeverAbsorbStaticErrors:
    def test_skip_absorbs_data_errors(self):
        ctx = ErrorContext("s", "skip")
        ctx.record(0, {"id": 1}, ValueError("bad cell"))
        assert ctx.skipped == 1

    @pytest.mark.parametrize("policy", ["skip", "reject"])
    def test_static_error_raises_through_policy(self, policy):
        ctx = ErrorContext("s", policy)
        with pytest.raises(SchemaError):
            ctx.record(0, {"id": 1}, SchemaError("planted plan defect"))
        assert ctx.skipped == 0
        assert ctx.rejected == []

    def test_type_check_error_raises_through_policy(self):
        ctx = ErrorContext("s", "reject")
        with pytest.raises(TypeCheckError):
            ctx.record(0, {"id": 1}, TypeCheckError("planted"))
        assert ctx.rejected == []


def spy_on_bodies(monkeypatch, columnar_error):
    """The Filter's column kernel raises ``columnar_error``; returns the
    list each body appends its name to when it runs."""
    calls = []
    route_rows = kernels.route_rows

    def columnar(*args, **kwargs):
        calls.append("columnar")
        raise columnar_error

    def rows(*args, **kwargs):
        calls.append("rows")
        return route_rows(*args, **kwargs)

    monkeypatch.setattr(block, "route_block", columnar)
    monkeypatch.setattr(kernels, "route_rows", rows)
    return calls


class TestLaddersNeverRetryStaticErrors:
    """A plan defect fails identically on both bodies of an operator,
    so a columnar body's plan defect is raised at once, never rerun on
    the row body. (The engines patched at ``_run_operator`` show no
    runtime retries one either.)"""

    def test_etl_ladder(self, monkeypatch):
        calls = spy_on_bodies(monkeypatch, SchemaError("planted plan defect"))
        with pytest.raises(SchemaError, match="planted"):
            EtlEngine(compiled=True).run(
                make_job(), synthesize_instance([REL], 5)
            )
        assert calls == ["columnar"]

    def test_etl_ladder_still_degrades_runtime_errors(self, monkeypatch):
        calls = spy_on_bodies(monkeypatch, ValueError("kernel breakage"))
        instance = synthesize_instance([REL], 5)
        obs = Observability(stats=True)
        targets, _ = EtlEngine(obs=obs, compiled=True).run(make_job(), instance)
        assert calls == ["columnar", "rows"]
        oracle, _ = EtlEngine(compiled=False).run(make_job(), instance)
        assert targets.same_bags(oracle)
        assert obs.metrics.counter("exec.degrade.columnar_to_rows") == 1

    def test_ohm_ladder(self, monkeypatch):
        calls = []

        def boom(self, op, inputs, out_relations, instance, **kwargs):
            calls.append(1)
            raise SchemaError("planted plan defect")

        monkeypatch.setattr(OhmExecutor, "_run_operator", boom)
        with pytest.raises(SchemaError, match="planted"):
            OhmExecutor(compiled=True).run(
                make_graph(), synthesize_instance([REL], 5)
            )
        assert len(calls) == 1

    def test_mapping_ladder(self, monkeypatch):
        calls = []

        def boom(self, op, inputs, out_relations, instance, **kwargs):
            calls.append(1)
            raise TypeCheckError("planted plan defect")

        # a mapping run is a run of the lowered graph
        monkeypatch.setattr(OhmExecutor, "_run_operator", boom)
        with pytest.raises(TypeCheckError, match="planted"):
            MappingExecutor(compiled=True).execute(
                make_mappings(), synthesize_instance([REL], 5)
            )
        assert len(calls) == 1


class TestTypecheckNarrowing:
    """``common_type`` failures are converted to located
    :class:`TypeCheckError`\\ s only for genuine :class:`SchemaError`;
    anything else is a harness bug and must propagate unmasked."""

    def test_schema_error_becomes_type_check_error(self):
        from repro.expr.parser import parse
        from repro.expr.typecheck import TypeContext, infer_type

        ctx = TypeContext(REL)
        with pytest.raises(TypeCheckError, match="cannot compare"):
            infer_type(parse("name > 3"), ctx)

    def test_harness_bug_propagates(self, monkeypatch):
        import repro.expr.typecheck as tc
        from repro.expr.parser import parse

        def broken(left, right):
            raise TypeError("harness bug, not a type mismatch")

        monkeypatch.setattr(tc, "common_type", broken)
        ctx = tc.TypeContext(REL)
        with pytest.raises(TypeError, match="harness bug"):
            tc.infer_type(parse("id > 1"), ctx)


class TestScalarFunctionNarrowing:
    """Injected faults drive retry machinery by identity; they must
    never be wrapped into :class:`EvaluationError`."""

    def test_data_error_is_wrapped(self):
        from repro.expr.functions import ScalarFunction
        from repro.schema.types import INTEGER

        fn = ScalarFunction("BOOM", lambda x: 1 / 0, INTEGER, arity=1)
        with pytest.raises(EvaluationError, match="BOOM"):
            fn(1)

    def test_injected_fault_passes_unwrapped(self):
        from repro.expr.functions import ScalarFunction
        from repro.schema.types import INTEGER

        def impl(x):
            raise FaultInjected("planted")

        fn = ScalarFunction("BOOM", impl, INTEGER, arity=1)
        with pytest.raises(FaultInjected):
            fn(1)

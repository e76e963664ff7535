"""Row-level error policies: the option, ErrorContext, and the reject
channel across the ETL engine (run-level, per-stage, and in-job reject
links)."""

import pytest

from repro import config
from repro.data.dataset import Dataset, Instance
from repro.errors import EvaluationError, ExecutionError, ValidationError
from repro.etl import EtlEngine
from repro.compile import compile_job
from repro.etl.model import Job
from repro.etl.stages import (
    FilterOutput,
    FilterStage,
    JoinStage,
    TableSource,
    TableTarget,
)
from repro.etl.xmlio import job_from_xml, job_to_xml
from repro.exec import ExpressionPlanner
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.resilience import (
    FAIL_FAST,
    POLICIES,
    REJECT,
    SKIP,
    ErrorContext,
    check_policy,
    format_row,
    reject_relation,
    rejects_dataset,
)
from repro.schema.model import relation
from repro.workloads import build_faulty_job, generate_faulty_instance


class TestPolicyTriad:
    def test_check_policy_accepts_the_three_policies(self):
        for policy in POLICIES:
            assert check_policy(policy) == policy

    def test_check_policy_rejects_unknown(self):
        with pytest.raises(ValidationError, match="unknown error policy"):
            check_policy("explode")

    def test_default_is_fail_fast(self):
        assert config.resolve("on_error") == FAIL_FAST
        assert config.resolve("on_error", None) == FAIL_FAST

    def test_explicit_argument_wins(self):
        assert config.resolve("on_error", "reject") == REJECT

    def test_set_default_override_and_restore(self):
        with config.overriding(on_error="skip"):
            assert config.resolve("on_error") == SKIP
        assert config.resolve("on_error") == FAIL_FAST

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "reject")
        assert config.resolve("on_error") == REJECT

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "bogus")
        with pytest.raises(ValidationError, match="REPRO_ON_ERROR"):
            config.resolve("on_error")

    def test_engine_picks_up_process_default(self):
        with config.overriding(on_error="skip"):
            assert EtlEngine().on_error == SKIP


class TestErrorContext:
    def test_fail_fast_has_no_handler(self):
        ctx = ErrorContext("S", FAIL_FAST)
        assert not ctx.handling
        assert ctx.kernel_handler() is None

    def test_skip_counts_without_capturing(self):
        ctx = ErrorContext("S", SKIP)
        handle = ctx.kernel_handler()
        handle(3, {"a": 1}, ValueError("boom"))
        assert ctx.skipped == 1
        assert ctx.rejected == []

    def test_reject_captures_structured_records(self):
        ctx = ErrorContext("S", REJECT)
        handle = ctx.kernel_handler(link="out0")
        handle(7, {"a": 1}, EvaluationError("division by zero"))
        (record,) = ctx.rejected
        assert record.stage == "S"
        assert record.link == "out0"
        assert record.row_index == 7
        assert record.row == {"a": 1}
        assert record.error_code == "EvaluationError"
        assert "division by zero" in record.message

    def test_row_of_maps_kernel_items_back_to_rows(self):
        ctx = ErrorContext("S", REJECT)
        handle = ctx.kernel_handler(row_of=lambda item: item["env"])
        handle(0, {"env": {"k": 2}}, ValueError("x"))
        assert ctx.rejected[0].row == {"k": 2}

    def test_recorded_counts_every_taken_row(self):
        ctx = ErrorContext("S", REJECT)
        assert ctx.recorded == 0
        ctx.record(0, {"a": 1}, ValueError("x"))
        ctx.redirected = 2
        assert ctx.recorded == 3
        skipping = ErrorContext("S", "skip")
        skipping.record(0, {"a": 1}, ValueError("x"))
        assert skipping.recorded == 1

    def test_publish_emits_counters(self):
        obs = Observability(stats=True)
        ctx = ErrorContext("S", REJECT)
        ctx.record(0, {"a": 1}, ValueError("x"))
        ctx.redirected = 3
        ctx.publish(obs.metrics)
        assert obs.metrics.counter("exec.errors.S.rejected") == 1
        assert obs.metrics.counter("exec.errors.S.redirected") == 3
        assert obs.metrics.counter("exec.errors.total") == 4

    def test_publish_is_silent_when_clean(self):
        obs = Observability(stats=True)
        ErrorContext("S", REJECT).publish(obs.metrics)
        assert obs.metrics.counter("exec.errors.total") == 0


class TestRejectChannelPlumbing:
    def test_format_row_is_key_order_independent(self):
        assert format_row({"b": 2, "a": "x"}) == format_row({"a": "x", "b": 2})
        assert format_row({"a": "x", "b": 2}) == "{a: 'x', b: 2}"

    def test_rejects_dataset_uses_the_standard_relation(self):
        ctx = ErrorContext("S", REJECT)
        ctx.record(5, {"a": 1}, ValueError("boom"), link="L")
        data = rejects_dataset(ctx.rejected, "Rejects")
        assert data.relation.name == "Rejects"
        assert [a.name for a in data.relation] == [
            a.name for a in reject_relation("Rejects")
        ]
        (row,) = data.rows
        assert row["stage"] == "S" and row["link"] == "L"
        assert row["row"] == format_row({"a": 1})


class TestEnginePolicies:
    def test_fail_fast_aborts_on_the_first_poisoned_row(self):
        instance, _ = generate_faulty_instance(n=30, seed=3, poison=2)
        with pytest.raises(EvaluationError, match="division"):
            EtlEngine().run(build_faulty_job(), instance)

    def test_execution_error_carries_structured_context(self):
        error = ExecutionError(
            "output mismatch",
            stage="ComputeUnit",
            link="units",
            row_index=7,
            row={"qty": 0},
        )
        assert error.context() == {
            "stage": "ComputeUnit",
            "link": "units",
            "row_index": 7,
            "row": {"qty": 0},
        }
        # the original message stays a prefix so match= keeps working
        assert str(error).startswith("output mismatch")
        assert "stage='ComputeUnit'" in str(error)

    def test_skip_drops_poisoned_rows(self):
        instance, plan = generate_faulty_instance(n=40, seed=5, poison=4)
        engine = EtlEngine(on_error="skip")
        targets = engine.execute(build_faulty_job(), instance)
        run = engine.last_run
        assert run.skip_counts.get("ComputeUnit") == 4
        assert run.rejected == []
        # the survivors still flow: delivered = filtered non-poisoned rows
        clean_engine = EtlEngine()
        clean_instance, _ = generate_faulty_instance(n=40, seed=5, poison=0)
        clean = clean_engine.execute(build_faulty_job(), clean_instance)
        poisoned_ids = {
            clean_instance.dataset("Orders").rows[i]["orderID"]
            for i in plan.poisoned["Orders"]
        }
        expected = [
            r for r in clean.dataset("Premium").rows
            if r["orderID"] not in poisoned_ids
        ]
        assert sorted(
            r["orderID"] for r in targets.dataset("Premium").rows
        ) == sorted(r["orderID"] for r in expected)

    def test_reject_collects_the_poisoned_rows(self):
        instance, plan = generate_faulty_instance(n=40, seed=6, poison=5)
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, on_error="reject")
        engine.run(build_faulty_job(), instance)
        run = engine.last_run
        assert run.total_rejected == 5
        assert run.reject_counts.get("ComputeUnit") == 5
        source_rows = instance.dataset("Orders").rows
        expected = {
            format_row(source_rows[i]) for i in plan.poisoned["Orders"]
        }
        assert {format_row(r.row) for r in run.rejected} == expected
        for record in run.rejected:
            assert record.stage == "ComputeUnit"
            assert record.error_code == "EvaluationError"
        assert obs.metrics.counter("exec.errors.ComputeUnit.rejected") == 5
        assert obs.metrics.counter("exec.errors.total") == 5

    def test_per_stage_override_beats_run_level_policy(self):
        instance, _ = generate_faulty_instance(n=30, seed=7, poison=3)
        job = build_faulty_job()
        stage = next(s for s in job.stages if s.name == "ComputeUnit")
        stage.on_error = "skip"
        engine = EtlEngine()  # run level stays fail_fast
        engine.run(job, instance)
        assert engine.last_run.skip_counts.get("ComputeUnit") == 3

    def test_results_match_across_policies_on_survivors(self):
        instance, _ = generate_faulty_instance(n=50, seed=8, poison=6)
        skip_engine = EtlEngine(on_error="skip")
        skipped = skip_engine.execute(build_faulty_job(), instance)
        reject_engine = EtlEngine(on_error="reject")
        rejected = reject_engine.execute(build_faulty_job(), instance)
        assert sorted(map(format_row, skipped.dataset("Premium").rows)) == \
            sorted(map(format_row, rejected.dataset("Premium").rows))


class TestRejectLink:
    def test_reject_link_delivers_rows_in_band(self):
        instance, plan = generate_faulty_instance(n=40, seed=9, poison=4)
        engine = EtlEngine()  # fail_fast run level; the link carries policy
        targets, _rejected, links, _edges = engine.run(
            build_faulty_job(with_reject_link=True), instance
        )
        # rows land on the dedicated link/target, not the run-level list
        assert engine.last_run.rejected == []
        assert engine.last_run.total_rejected == 4
        rejects = targets.dataset("Rejects")
        assert len(rejects) == 4
        source_rows = instance.dataset("Orders").rows
        assert {r["row"] for r in rejects.rows} == {
            format_row(source_rows[i]) for i in plan.poisoned["Orders"]
        }
        assert {r["stage"] for r in rejects.rows} == {"ComputeUnit"}
        assert "Rejects" in links

    def test_reject_link_is_out_of_band_for_port_counts(self):
        # the job validates: the Transformer still has exactly one data
        # output even though a second (reject) link hangs off it
        job = build_faulty_job(with_reject_link=True)
        instance, _ = generate_faulty_instance(n=10, seed=1, poison=0)
        targets = EtlEngine().execute(job, instance)
        assert len(targets.dataset("Rejects")) == 0


class TestFilterStageInBandReject:
    """Regression: a FilterStage that already has a reject output keeps
    *erroring* rows in-band under policy=reject — they land on the same
    reject link as unroutable rows instead of the generic channel."""

    @staticmethod
    def _stage_and_data():
        rel = relation("R", ("id", "int", False), ("v", "int", False))
        stage = FilterStage(
            [FilterOutput("10 / v > 3"), FilterOutput(reject=True)],
            name="F",
        )
        rows = [
            {"id": 1, "v": 1},   # 10/1 > 3 → out0
            {"id": 2, "v": 0},   # errors → reject output (redirected)
            {"id": 3, "v": 9},   # 10/9 < 3 → reject output (no match)
        ]
        data = Dataset(rel, rows)
        stage.validate([rel])
        out_relations = stage.output_relations([rel], ["hi", "rej"])
        return stage, data, out_relations

    def test_error_rows_land_on_the_reject_output(self):
        stage, data, out_relations = self._stage_and_data()
        ctx = ErrorContext("F", REJECT)
        hi, rej = stage.execute(
            [data], out_relations, ExpressionPlanner(), errors=ctx
        )
        assert [r["id"] for r in hi.rows] == [1]
        assert sorted(r["id"] for r in rej.rows) == [2, 3]
        assert ctx.redirected == 1
        assert ctx.rejected == []  # in-band, not on the generic channel

    def test_skip_policy_still_drops_error_rows(self):
        stage, data, out_relations = self._stage_and_data()
        ctx = ErrorContext("F", SKIP)
        hi, rej = stage.execute(
            [data], out_relations, ExpressionPlanner(), errors=ctx
        )
        assert [r["id"] for r in hi.rows] == [1]
        assert [r["id"] for r in rej.rows] == [3]
        assert ctx.skipped == 1


class TestXmlRoundTrip:
    def test_on_error_and_reject_link_survive_xml(self):
        job = build_faulty_job(with_reject_link=True)
        parsed = job_from_xml(job_to_xml(job))
        stage = next(s for s in parsed.stages if s.name == "ComputeUnit")
        assert stage.on_error == "reject"
        (reject_edge,) = [e for e in parsed.links if e.is_reject]
        assert reject_edge.name == "Rejects"
        assert reject_edge.kind == "reject"

    def test_round_tripped_job_executes_identically(self):
        job = build_faulty_job(with_reject_link=True)
        parsed = job_from_xml(job_to_xml(job))
        instance, _ = generate_faulty_instance(n=30, seed=4, poison=3)
        original = EtlEngine().execute(job, instance)
        reparsed = EtlEngine().execute(parsed, instance)
        for name in ("Premium", "Rejects"):
            assert sorted(map(format_row, original.dataset(name).rows)) == \
                sorted(map(format_row, reparsed.dataset(name).rows))

    def test_invalid_on_error_attribute_is_rejected(self):
        text = job_to_xml(build_faulty_job(with_reject_link=True))
        with pytest.raises(ValidationError):
            job_from_xml(text.replace('onError="reject"', 'onError="nope"'))


class TestJoinStageHonoursPolicies:
    """Regression: the ETL Join stage ignored row policies — a join key
    that raised aborted the run under ``reject`` while the same job's
    OHM JOIN rejected the row. One stage protocol hands every stage the
    run's ``errors``, so both runtimes take the same rows."""

    A = relation("A", ("id", "int", False), ("p", "int", False))
    B = relation("B", ("y", "float", False), ("tag", "varchar", False))

    def job(self):
        job = Job("join_policy")
        left = job.add(TableSource(self.A))
        right = job.add(TableSource(self.B))
        join = job.add(JoinStage(condition="10 / A.p = B.y", name="J"))
        out = relation(
            "Out", ("id", "int", False), ("p", "int", False),
            ("y", "float", False), ("tag", "varchar", False),
        )
        target = job.add(TableTarget(out))
        job.link(left, join, name="A")
        job.link(right, join, name="B", dst_port=1)
        job.link(join, target, name="joined")
        return job

    def instance(self):
        return Instance([
            Dataset(self.A, [{"id": i, "p": p} for i, p in enumerate([1, 2, 5, 0, 10])]),
            Dataset(self.B, [
                {"y": y, "tag": t}
                for y, t in [(10.0, "ten"), (5.0, "five"), (2.0, "two"), (1.0, "one")]
            ]),
        ])

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "oracle"])
    @pytest.mark.parametrize("policy", ["skip", "reject"])
    def test_etl_and_ohm_take_the_same_rows(self, policy, compiled):
        engine = EtlEngine(on_error=policy, compiled=compiled)
        etl = engine.execute(self.job(), self.instance())
        etl_rejects = sorted(format_row(r.row) for r in engine.last_run.rejected)
        ohm, rejects, _rows, _edges = OhmExecutor(
            on_error=policy, compiled=compiled
        ).run(compile_job(self.job()), self.instance())
        assert etl.same_bags(ohm)
        assert len(etl.dataset("Out")) == 4
        assert etl_rejects == sorted(r["row"] for r in rejects.rows)
        expected = [format_row({"id": 3, "p": 0})] if policy == "reject" else []
        assert etl_rejects == expected


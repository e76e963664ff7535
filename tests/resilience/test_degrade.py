"""Graceful kernel degradation: fused chains → batched → row kernels →
interpreted oracle. A kernel fault at a tier never changes results — it
only shows up in the ``exec.degrade.*`` counters.

A block-tier fault plan also fires inside the fused tier (fused chains
run the block kernels' lowered functions), so a batched+fused engine
degrades fused → block on the first block fault; the block tier then
succeeds once the fault budget is spent."""

from contextlib import contextmanager

import pytest

from repro import config
from repro.compile import compile_job
from repro.errors import FaultInjected, RunCancelled, SchemaError
from repro.etl import EtlEngine
from repro.exec import set_kernel_fault_hook
from repro.exec.parallel import set_default_executor
from repro.faults import FaultPlan
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.resilience import format_row
from repro.workloads import (
    build_example_job,
    build_faulty_job,
    generate_faulty_instance,
    generate_instance,
)


def _premium_rows(targets):
    return sorted(map(format_row, targets.dataset("Premium").rows))


@pytest.fixture
def instance():
    instance, _plan = generate_faulty_instance(n=40, seed=13)
    return instance


@pytest.fixture
def baseline(instance):
    targets, _ = EtlEngine().run(build_faulty_job(), instance)
    return _premium_rows(targets)


# -- the three runtimes behind one call ----------------------------------------
#
# ``run(job, instance, **options)`` builds the runtime from engine
# keywords, runs ``job`` (translated to the runtime's own representation)
# and returns ``(targets, rejected rows)``, the latter in the shared
# :func:`format_row` form.


def run_etl(job, instance, **options):
    engine = EtlEngine(**options)
    targets, _ = engine.run(job, instance)
    return targets, sorted(format_row(r.row) for r in engine.last_run.rejected)


def run_ohm(job, instance, **options):
    targets, _edges, rejects = OhmExecutor(**options).run_with_rejects(
        compile_job(job), instance
    )
    return targets, sorted(r["row"] for r in rejects.rows)


def run_mapping(job, instance, **options):
    targets, _inter, rejects = MappingExecutor(**options).run_with_rejects(
        ohm_to_mappings(compile_job(job)), instance
    )
    return targets, sorted(r["row"] for r in rejects.rows)


@contextmanager
def kernels_raising(make_error, calls):
    """Every planner-lowered closure raises ``make_error()``; ``calls``
    collects the tier of each invocation."""

    def hook(tier, kind, fn):
        def raising(*args, **kwargs):
            calls.append(tier)
            raise make_error()

        return raising

    set_kernel_fault_hook(hook)
    try:
        yield
    finally:
        set_kernel_fault_hook(None)


class RuntimeContract:
    """What the run harness (``repro.exec.run``) promises under every
    runtime: one ladder, one scheduler — so one suite, bound to a
    runtime by each subclass."""

    run = None  # staticmethod: run_etl / run_ohm / run_mapping

    def premium(self, instance, **options):
        """The faulty workload's accepted and rejected rows."""
        targets, rejects = self.run(build_faulty_job(), instance, **options)
        return _premium_rows(targets), rejects

    def test_block_fault_degrades_to_row_kernels(self, instance, baseline):
        plan = FaultPlan(seed=1).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            rows, _ = self.premium(instance, obs=obs, compiled=True, batched=True)
        assert rows == baseline
        assert obs.metrics.counter("exec.degrade.fused_to_block") >= 1
        assert plan.kernel_faults_fired.get("block", 0) >= 1

    def test_compiled_fault_degrades_to_oracle(self, instance, baseline):
        plan = FaultPlan(seed=2).fault_kernels(tier="compiled", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            rows, _ = self.premium(instance, obs=obs, compiled=True, batched=False)
        assert rows == baseline
        assert obs.metrics.counter("exec.degrade.rows_to_oracle") >= 1

    def test_batched_engine_falls_all_the_way_to_oracle(
        self, instance, baseline
    ):
        plan = (
            FaultPlan(seed=3)
            .fault_kernels(tier="block", first=100)
            .fault_kernels(tier="compiled", first=100)
        )
        obs = Observability(stats=True)
        with plan.injected():
            rows, _ = self.premium(instance, obs=obs, compiled=True, batched=True)
        assert rows == baseline
        assert obs.metrics.counter("exec.degrade.block_to_rows") >= 1
        assert obs.metrics.counter("exec.degrade.rows_to_oracle") >= 1

    def test_all_tiers_faulted_surfaces_the_error(self, instance):
        plan = (
            FaultPlan(seed=4)
            .fault_kernels(tier="block", first=100)
            .fault_kernels(tier="compiled", first=100)
            .fault_kernels(tier="oracle", first=100)
        )
        with plan.injected():
            with pytest.raises(FaultInjected):
                self.premium(instance, compiled=True, batched=True)

    def test_degrade_disabled_surfaces_the_first_fault(self, instance):
        plan = FaultPlan(seed=5).fault_kernels(tier="block", first=1)
        with plan.injected():
            with pytest.raises(FaultInjected):
                self.premium(
                    instance, compiled=True, batched=True, degrade=False
                )

    def test_degraded_run_with_rejects_keeps_parity(self, instance):
        poisoned, _ = generate_faulty_instance(n=40, seed=13, poison=4)
        clean_rows, clean_rejects = self.premium(poisoned, on_error="reject")
        assert len(clean_rejects) == 4
        plan = FaultPlan(seed=6).fault_kernels(tier="block", first=1)
        with plan.injected():
            rows, rejects = self.premium(
                poisoned, compiled=True, batched=True, on_error="reject"
            )
        assert rows == clean_rows
        assert rejects == clean_rejects

    def test_rungs_pin_their_tier_under_a_process_default_mode(
        self, instance, baseline
    ):
        """Regression: rungs built with ``mode=None`` re-read the process
        default, so under ``overriding(mode="block")`` the "rows" rung
        came back batched and a block fault only survived via the oracle
        — faulted here too, so the compiled row kernels must carry it."""
        def faulted(**options):
            plan = (
                FaultPlan(seed=7)
                .fault_kernels(tier="block", first=10**6)
                .fault_kernels(tier="oracle", first=10**6)
            )
            obs = Observability(stats=True)
            with plan.injected():
                rows, _ = self.premium(instance, obs=obs, fused=False, **options)
            assert rows == baseline
            assert obs.metrics.counter("exec.degrade.rows_to_oracle") == 0
            return obs.metrics.counter("exec.degrade.block_to_rows")

        expected = faulted(batched=True)
        assert expected >= 1
        with config.overriding(mode="block"):
            assert faulted() == expected  # once per faulted node, not twice

    @pytest.mark.parametrize(
        "make_error",
        [
            lambda: SchemaError("planted plan defect"),
            lambda: RunCancelled("planted cancel", reason="cancelled"),
        ],
        ids=["static-error", "run-cancelled"],
    )
    def test_plan_defects_and_cancellation_never_degrade(
        self, instance, make_error
    ):
        calls = []
        obs = Observability(stats=True)
        with kernels_raising(make_error, calls):
            with pytest.raises(type(make_error()), match="planted"):
                self.premium(instance, obs=obs, compiled=True, batched=True)
        assert len(calls) == 1  # the first tier's first kernel, nothing after
        counters = obs.metrics.snapshot().get("counters", {})
        assert not [k for k in counters if k.startswith("exec.degrade.")]

    def test_unavailable_workers_recompute_inline(self):
        class _Broken:
            def submit(self, fn):
                raise RuntimeError("pool shut down")

        # two sources, two targets: every runtime has a wave to fan out
        job = build_example_job()
        wide = generate_instance(n_customers=120, seed=3)
        serial, _ = self.run(job, wide, compiled=True, batched=True)
        obs = Observability(stats=True)
        set_default_executor(_Broken())
        try:
            targets, _ = self.run(
                job, wide, obs=obs, compiled=True, batched=True,
                parallel=True, workers=4,
            )
        finally:
            set_default_executor(None)
        assert targets.same_bags(serial)
        waves = obs.metrics.counter("exec.parallel.waves")
        assert waves >= 1
        assert obs.metrics.counter("exec.degrade.parallel_to_serial") >= waves


class TestEtlDegrade(RuntimeContract):
    run = staticmethod(run_etl)


class TestOhmDegrade(RuntimeContract):
    run = staticmethod(run_ohm)


class TestMappingDegrade(RuntimeContract):
    run = staticmethod(run_mapping)


class TestInfrastructureErrorsAreNotAbsorbed:
    """Regression: an injected kernel fault under policy=reject must
    degrade the whole stage, not masquerade as per-row data errors on
    the reject channel."""

    def test_kernel_faults_do_not_leak_onto_the_reject_channel(self):
        poisoned, plan = generate_faulty_instance(n=40, seed=15, poison=4)
        clean_engine = EtlEngine(compiled=False, on_error="reject")
        clean, _ = clean_engine.run(build_faulty_job(), poisoned)
        clean_rejects = sorted(
            format_row(r.row) for r in clean_engine.last_run.rejected
        )
        fault_plan = FaultPlan(seed=15).fault_kernels(
            tier="compiled", rate=0.5
        )
        engine = EtlEngine(compiled=True, batched=False, on_error="reject")
        with fault_plan.injected():
            targets, _ = engine.run(build_faulty_job(), poisoned)
        assert _premium_rows(targets) == _premium_rows(clean)
        rejects = engine.last_run.rejected
        assert sorted(format_row(r.row) for r in rejects) == clean_rejects
        assert all(r.error_code != "FaultInjected" for r in rejects)


class TestOhmAndMappingDegrade:
    def test_ohm_block_fault_degrades(self, instance, baseline):
        graph = compile_job(build_faulty_job())
        plan = FaultPlan(seed=7).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        executor = OhmExecutor(obs=obs, compiled=True, batched=True)
        with plan.injected():
            targets, _ = executor.run(graph, instance)
        assert _premium_rows(targets) == baseline
        assert obs.metrics.counter("exec.degrade.fused_to_block") >= 1

    def test_ohm_degrade_disabled_surfaces_the_fault(self, instance):
        graph = compile_job(build_faulty_job())
        plan = FaultPlan(seed=8).fault_kernels(tier="block", first=1)
        executor = OhmExecutor(compiled=True, batched=True, degrade=False)
        with plan.injected():
            with pytest.raises(FaultInjected):
                executor.run(graph, instance)

    def test_mapping_compiled_fault_degrades(self, instance, baseline):
        mappings = ohm_to_mappings(compile_job(build_faulty_job()))
        plan = FaultPlan(seed=9).fault_kernels(tier="compiled", first=1)
        obs = Observability(stats=True)
        executor = MappingExecutor(obs=obs, compiled=True, batched=False)
        with plan.injected():
            targets, _ = executor.run(mappings, instance)
        assert _premium_rows(targets) == baseline
        assert obs.metrics.counter("exec.degrade.rows_to_oracle") >= 1

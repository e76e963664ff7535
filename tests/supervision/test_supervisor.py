"""Run supervision: budgets, cooperative cancellation, and the
deadline triad — in isolation with a fake clock, then threaded through
all three runtimes."""

import pytest

from repro import config
from repro.errors import RunCancelled, ValidationError
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.supervision import (
    Budget,
    RunSupervisor,
    resolve_supervisor,
)
from repro.workloads import (
    build_example_job,
    build_faulty_job,
    generate_faulty_instance,
    generate_instance,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBudget:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValidationError):
            Budget(deadline=0)
        with pytest.raises(ValidationError):
            Budget(soft_timeout=-1)

    def test_soft_timeout_must_not_exceed_deadline(self):
        with pytest.raises(ValidationError):
            Budget(deadline=1.0, soft_timeout=2.0)
        Budget(deadline=2.0, soft_timeout=1.0)  # fine


class TestRunSupervisor:
    def test_unbounded_supervisor_never_cancels(self):
        clock = FakeClock()
        sup = RunSupervisor(clock=clock).start()
        clock.advance(1e9)
        sup.check("stage")  # no deadline, no cancel: passes

    def test_deadline_cancels_at_the_next_check(self):
        clock = FakeClock()
        sup = RunSupervisor(Budget(deadline=1.0), clock=clock).start()
        sup.check("early")
        clock.advance(1.5)
        with pytest.raises(RunCancelled) as exc:
            sup.check("late")
        assert exc.value.reason == "deadline"
        assert exc.value.elapsed == pytest.approx(1.5)

    def test_cancel_carries_the_committed_frontier(self):
        sup = RunSupervisor().start()
        sup.committed("src_A")
        sup.committed("xform_B")
        sup.cancel("operator request")
        with pytest.raises(RunCancelled) as exc:
            sup.check("stage")
        assert exc.value.reason == "operator request"
        assert exc.value.frontier == ("src_A", "xform_B")

    def test_pre_run_cancel_cancels_the_run_at_its_first_check(self):
        sup = RunSupervisor()
        sup.cancel("abort before start")
        sup.start()
        with pytest.raises(RunCancelled):
            sup.check("first")

    def test_soft_timeout_warns_once_and_the_run_continues(self):
        clock = FakeClock()
        obs = Observability(stats=True)
        sup = RunSupervisor(
            Budget(deadline=10.0, soft_timeout=1.0), clock=clock, obs=obs
        ).start()
        clock.advance(2.0)
        sup.check("a")
        sup.check("b")
        assert obs.metrics.counter("exec.supervise.soft_timeout") == 1
        assert obs.metrics.counter("exec.supervise.checks") == 2

    def test_checks_are_counted(self):
        obs = Observability(stats=True)
        sup = RunSupervisor(obs=obs).start()
        sup.check("a")
        sup.check("b")
        assert obs.metrics.counter("exec.supervise.checks") == 2

    def test_remaining_budget(self):
        clock = FakeClock()
        sup = RunSupervisor(Budget(deadline=5.0), clock=clock).start()
        clock.advance(2.0)
        assert sup.remaining() == pytest.approx(3.0)
        assert RunSupervisor().remaining() is None


class TestResolveTriad:
    def test_explicit_supervisor_wins(self):
        sup = RunSupervisor()
        assert resolve_supervisor(sup, deadline=123.0) is sup

    def test_deadline_kwarg_builds_a_supervisor(self):
        sup = resolve_supervisor(None, deadline=2.5)
        assert sup.budget.deadline == 2.5

    def test_none_everywhere_means_unsupervised(self):
        assert resolve_supervisor(None, None) is None

    def test_setter_and_env(self, monkeypatch):
        with config.overriding(deadline=7.0):
            assert config.resolve("deadline") == 7.0
            assert resolve_supervisor(None, None).budget.deadline == 7.0
        monkeypatch.setenv("REPRO_DEADLINE", "3.5")
        assert resolve_supervisor(None, None).budget.deadline == 3.5

    def test_invalid_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "-1")
        with pytest.raises(ValidationError):
            resolve_supervisor(None, None)


class TestEngineCancellation:
    """A pre-cancelled (or instantly-expiring) supervisor cancels all
    three runtimes cleanly."""

    def _cancelled_supervisor(self):
        sup = RunSupervisor()
        sup.cancel("test")
        return sup

    def test_etl_engine_serial(self):
        instance, _ = generate_faulty_instance(n=10, seed=2)
        engine = EtlEngine(supervisor=self._cancelled_supervisor())
        with pytest.raises(RunCancelled):
            engine.run(build_faulty_job(), instance)

    def test_etl_engine_deadline_reports_frontier(self):
        clock = FakeClock()
        sup = RunSupervisor(Budget(deadline=1.0), clock=clock)
        instance = generate_instance(n_customers=20)
        engine = EtlEngine(supervisor=sup)

        # expire the budget after the second committed stage
        original = sup.committed

        def committed(name):
            original(name)
            if len(sup.frontier) == 2:
                clock.advance(5.0)

        sup.committed = committed
        with pytest.raises(RunCancelled) as exc:
            engine.run(build_example_job(), instance)
        assert len(exc.value.frontier) == 2

    def test_ohm_executor(self):
        from repro import Orchid

        graph = Orchid().import_etl(build_example_job())
        instance = generate_instance(n_customers=20)
        executor = OhmExecutor(supervisor=self._cancelled_supervisor())
        with pytest.raises(RunCancelled):
            executor.run(graph, instance)

    def test_mapping_executor(self):
        from repro import Orchid

        orchid = Orchid()
        graph = orchid.import_etl(build_example_job())
        mappings = orchid.to_mappings(graph)
        instance = generate_instance(n_customers=20)
        executor = MappingExecutor(supervisor=self._cancelled_supervisor())
        with pytest.raises(RunCancelled):
            executor.execute(mappings, instance)

    def test_degradation_ladder_does_not_absorb_cancellation(self):
        """RunCancelled must propagate through the tier ladder, not be
        swallowed as one more tier failure."""
        instance = generate_instance(n_customers=20)
        engine = EtlEngine(supervisor=self._cancelled_supervisor())
        with pytest.raises(RunCancelled):
            engine.run(build_example_job(), instance)

    def test_cancelled_metric_is_emitted(self):
        obs = Observability(stats=True)
        instance, _ = generate_faulty_instance(n=10, seed=2)
        engine = EtlEngine(
            obs=obs, supervisor=self._cancelled_supervisor()
        )
        with pytest.raises(RunCancelled):
            engine.run(build_faulty_job(), instance)
        assert obs.metrics.counter("exec.supervise.cancelled") >= 1

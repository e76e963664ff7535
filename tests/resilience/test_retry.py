"""Retry with exponential backoff: the policy in isolation (fake clock
and sleep), through the ETL engine's endpoints, and in the SQL runner."""

import pytest

from repro import config
from repro.errors import ExecutionError, TransientError, ValidationError
from repro.etl import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import TableSource, TableTarget
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.resilience import RetryPolicy, resolve_retry
from repro.workloads import generate_faulty_instance, orders_schema


class FakeClock:
    """A clock that only moves when told to (or when sleep is called)."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def flaky(failures, result="ok", exc=TransientError):
    state = {"left": failures, "calls": 0}

    def fn():
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            raise exc("injected")
        return result

    fn.state = state
    return fn


class TestRetryPolicy:
    def test_delays_schedule(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=0.05, multiplier=2.0, max_delay=0.3
        )
        assert policy.delays() == (0.05, 0.1, 0.2, 0.3)

    def test_recovers_after_transient_failures(self):
        clock = FakeClock()
        obs = Observability(stats=True)
        policy = RetryPolicy(max_retries=3, clock=clock, sleep=clock.sleep)
        fn = flaky(2)
        assert policy.call(fn, name="src", obs=obs) == "ok"
        assert fn.state["calls"] == 3
        assert clock.sleeps == [0.05, 0.1]
        assert obs.metrics.counter("exec.retry.src.attempts") == 2
        assert obs.metrics.counter("exec.retry.src.recovered") == 1
        assert obs.metrics.counter("exec.retry.src.exhausted") == 0

    def test_exhausts_the_attempt_budget(self):
        clock = FakeClock()
        obs = Observability(stats=True)
        policy = RetryPolicy(max_retries=2, clock=clock, sleep=clock.sleep)
        with pytest.raises(TransientError):
            policy.call(flaky(10), name="src", obs=obs)
        assert clock.sleeps == [0.05, 0.1]  # two retries, then give up
        assert obs.metrics.counter("exec.retry.src.exhausted") == 1
        assert obs.metrics.counter("exec.retry.src.recovered") == 0

    def test_deadline_stops_retrying_early(self):
        clock = FakeClock()
        obs = Observability(stats=True)
        policy = RetryPolicy(
            max_retries=10,
            base_delay=0.5,
            deadline=0.4,
            clock=clock,
            sleep=clock.sleep,
        )
        with pytest.raises(TransientError):
            policy.call(flaky(10), name="src", obs=obs)
        # the very first 0.5s pause would cross the 0.4s deadline
        assert clock.sleeps == []
        assert obs.metrics.counter("exec.retry.src.exhausted") == 1

    def test_permanent_errors_are_not_retried(self):
        clock = FakeClock()
        policy = RetryPolicy(max_retries=5, clock=clock, sleep=clock.sleep)
        fn = flaky(10, exc=ExecutionError)
        with pytest.raises(ExecutionError):
            policy.call(fn, name="src")
        assert fn.state["calls"] == 1
        assert clock.sleeps == []

    def test_extra_retry_on_types(self):
        clock = FakeClock()
        policy = RetryPolicy(max_retries=2, clock=clock, sleep=clock.sleep)
        fn = flaky(1, exc=OSError)
        assert policy.call(fn, retry_on=(OSError,)) == "ok"

    def test_backoff_is_capped_at_max_delay(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_retries=4, base_delay=0.1, max_delay=0.25,
            clock=clock, sleep=clock.sleep,
        )
        with pytest.raises(TransientError):
            policy.call(flaky(10))
        assert clock.sleeps == [0.1, 0.2, 0.25, 0.25]

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(multiplier=0.5)


class TestResolveRetry:
    def test_zero_budget_means_no_wrapper(self):
        assert resolve_retry(None) is None
        assert resolve_retry(0) is None

    def test_int_shorthand(self):
        policy = resolve_retry(2)
        assert isinstance(policy, RetryPolicy)
        assert policy.max_retries == 2

    def test_policy_used_as_is(self):
        policy = RetryPolicy(max_retries=1)
        assert resolve_retry(policy) is policy

    def test_process_default_budget(self):
        with config.overriding(max_retries=3):
            assert resolve_retry(None).max_retries == 3
        assert resolve_retry(None) is None

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "2")
        assert resolve_retry(None).max_retries == 2
        monkeypatch.setenv("REPRO_MAX_RETRIES", "nope")
        with pytest.raises(ValidationError):
            resolve_retry(None)


def _passthrough_job(source):
    job = Job("passthrough")
    job.add(source)
    target = job.add(TableTarget(orders_schema().renamed("Copied")))
    job.link(source, target, name="rows")
    return job


class TestEngineRetry:
    def test_flaky_source_recovers(self):
        plan = FaultPlan(seed=1)
        source = plan.flaky_source(TableSource(orders_schema()), failures=2)
        clock = FakeClock()
        obs = Observability(stats=True)
        engine = EtlEngine(
            obs=obs,
            retry=RetryPolicy(max_retries=3, clock=clock, sleep=clock.sleep),
        )
        instance, _ = generate_faulty_instance(n=20, seed=1)
        targets = engine.execute(_passthrough_job(source), instance)
        assert len(targets.dataset("Copied")) == 20
        assert clock.sleeps == [0.05, 0.1]
        assert obs.metrics.counter("exec.retry.src_Orders.recovered") == 1

    def test_without_retry_the_transient_error_surfaces(self):
        plan = FaultPlan(seed=1)
        source = plan.flaky_source(TableSource(orders_schema()), failures=1)
        instance, _ = generate_faulty_instance(n=5, seed=1)
        with pytest.raises(TransientError):
            EtlEngine().run(_passthrough_job(source), instance)

    def test_permanent_source_failure_is_not_absorbed(self):
        plan = FaultPlan(seed=1)
        source = plan.flaky_source(
            TableSource(orders_schema()), permanent=True
        )
        clock = FakeClock()
        engine = EtlEngine(
            retry=RetryPolicy(max_retries=5, clock=clock, sleep=clock.sleep)
        )
        instance, _ = generate_faulty_instance(n=5, seed=1)
        with pytest.raises(ExecutionError):
            engine.run(_passthrough_job(source), instance)
        assert clock.sleeps == []

    def test_flaky_target_recovers(self):
        plan = FaultPlan(seed=2)
        target = plan.flaky_target(
            TableTarget(orders_schema().renamed("Copied")), failures=1
        )
        job = Job("passthrough")
        source = job.add(TableSource(orders_schema()))
        job.add(target)
        job.link(source, target, name="rows")
        clock = FakeClock()
        obs = Observability(stats=True)
        engine = EtlEngine(
            obs=obs,
            retry=RetryPolicy(max_retries=2, clock=clock, sleep=clock.sleep),
        )
        instance, _ = generate_faulty_instance(n=8, seed=2)
        targets = engine.execute(job, instance)
        assert len(targets.dataset("Copied")) == 8
        assert obs.metrics.counter("exec.retry.tgt_Copied.recovered") == 1


class TestSqlRunnerRetry:
    @staticmethod
    def _runner(retry):
        from repro.deploy.sql import SqliteRunner

        instance, _ = generate_faulty_instance(n=10, seed=3)
        return SqliteRunner(instance, retry=retry)

    class _FlakyConnection:
        def __init__(self, inner, failures):
            self._inner = inner
            self.failures_remaining = failures

        def execute(self, sql):
            if self.failures_remaining > 0:
                self.failures_remaining -= 1
                raise TransientError("injected busy database")
            return self._inner.execute(sql)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def test_query_retries_transient_failures(self):
        clock = FakeClock()
        runner = self._runner(
            RetryPolicy(max_retries=2, clock=clock, sleep=clock.sleep)
        )
        runner.connection = self._FlakyConnection(runner.connection, 1)
        result = runner.query('SELECT * FROM "Orders"', orders_schema())
        assert len(result) == 10
        assert clock.sleeps == [0.05]

    def test_query_without_retry_wraps_into_execution_error(self):
        runner = self._runner(None)
        with pytest.raises(ExecutionError):
            runner.query("SELECT * FROM missing_table", orders_schema())


class TestFullJitter:
    """Opt-in full jitter: each pause is drawn uniformly from
    [0, scheduled_pause] by an injectable RNG, so seeded runs are
    deterministic and unjittered schedules are unchanged."""

    def test_jitter_defaults_off_and_schedule_is_exact(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_retries=2, base_delay=0.05, clock=clock, sleep=clock.sleep
        )
        assert policy.call(flaky(2)) == "ok"
        assert clock.sleeps == [0.05, 0.1]

    def test_jittered_pauses_are_bounded_by_the_schedule(self):
        import random

        clock = FakeClock()
        policy = RetryPolicy(
            max_retries=4,
            base_delay=0.05,
            clock=clock,
            sleep=clock.sleep,
            jitter=True,
            rng=random.Random(7),
        )
        assert policy.call(flaky(4)) == "ok"
        assert len(clock.sleeps) == 4
        for pause, scheduled in zip(clock.sleeps, policy.delays()):
            assert 0.0 <= pause <= scheduled

    def test_seeded_jitter_is_deterministic(self):
        import random

        def run():
            clock = FakeClock()
            policy = RetryPolicy(
                max_retries=3,
                base_delay=0.05,
                clock=clock,
                sleep=clock.sleep,
                jitter=True,
                rng=random.Random(42),
            )
            policy.call(flaky(3))
            return clock.sleeps

        assert run() == run()

    def test_two_seeds_decorrelate(self):
        import random

        sleeps = []
        for seed in (1, 2):
            clock = FakeClock()
            policy = RetryPolicy(
                max_retries=3,
                base_delay=0.05,
                clock=clock,
                sleep=clock.sleep,
                jitter=True,
                rng=random.Random(seed),
            )
            policy.call(flaky(3))
            sleeps.append(clock.sleeps)
        assert sleeps[0] != sleeps[1]

    def test_delays_reports_the_unjittered_schedule(self):
        import random

        policy = RetryPolicy(
            max_retries=3, base_delay=0.05, jitter=True, rng=random.Random(0)
        )
        assert policy.delays() == (0.05, 0.1, 0.2)

"""Circuit breakers: the state machine in isolation (fake clock), the
retry interaction (breaker outside retry, BreakerOpen never retried),
the SQL runner endpoint, and the pushdown→local degradation ladder."""

import pytest

from repro import config
from repro.data.dataset import Instance
from repro.errors import (
    BreakerOpen,
    ExecutionError,
    TransientError,
    ValidationError,
)
from repro.etl import EtlEngine
from repro.faults import FaultPlan, FlakySource
from repro.obs import Observability
from repro.resilience import RetryPolicy
from repro.supervision import CircuitBreaker, resolve_breaker
from repro.supervision.breaker import CLOSED, HALF_OPEN, OPEN
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


def boom():
    raise ExecutionError("endpoint died")


class TestStateMachine:
    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValidationError):
            CircuitBreaker(reset_timeout=0)

    def test_failures_below_threshold_stay_closed(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            with pytest.raises(ExecutionError):
                breaker.call("db", boom)
        assert breaker.state("db") == CLOSED
        assert breaker.call("db", lambda: "ok") == "ok"

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        with pytest.raises(ExecutionError):
            breaker.call("db", boom)
        breaker.call("db", lambda: "ok")
        with pytest.raises(ExecutionError):
            breaker.call("db", boom)
        assert breaker.state("db") == CLOSED  # count restarted after success

    def test_threshold_trips_open_and_fails_fast(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=30.0, clock=clock
        )
        for _ in range(2):
            with pytest.raises(ExecutionError):
                breaker.call("db", boom)
        assert breaker.state("db") == OPEN
        calls = []
        with pytest.raises(BreakerOpen) as exc:
            breaker.call("db", lambda: calls.append(1))
        assert calls == []  # no endpoint I/O while open
        assert exc.value.key == "db"
        assert 0 < exc.value.retry_after <= 30.0

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        with pytest.raises(ExecutionError):
            breaker.call("db", boom)
        clock.advance(10.0)
        assert breaker.state("db") == HALF_OPEN
        assert breaker.call("db", lambda: "ok") == "ok"
        assert breaker.state("db") == CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=clock
        )
        for _ in range(3):
            with pytest.raises(ExecutionError):
                breaker.call("db", boom)
        clock.advance(10.0)
        with pytest.raises(ExecutionError):
            breaker.call("db", boom)  # the probe dies
        assert breaker.state("db") == OPEN  # single failure re-opens
        with pytest.raises(BreakerOpen):
            breaker.call("db", lambda: "ok")

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        with pytest.raises(ExecutionError):
            breaker.call("flaky", boom)
        assert breaker.state("flaky") == OPEN
        assert breaker.call("healthy", lambda: "ok") == "ok"
        assert breaker.state("healthy") == CLOSED

    def test_transitions_are_observable(self):
        clock = FakeClock()
        obs = Observability(stats=True)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        with pytest.raises(ExecutionError):
            breaker.call("db", boom, obs=obs)
        with pytest.raises(BreakerOpen):
            breaker.call("db", lambda: "ok", obs=obs)
        clock.advance(5.0)
        breaker.call("db", lambda: "ok", obs=obs)
        counters = {
            name: obs.metrics.counter(f"exec.breaker.db.{name}")
            for name in ("opened", "fast_fail", "half_open", "closed")
        }
        assert counters == {
            "opened": 1, "fast_fail": 1, "half_open": 1, "closed": 1,
        }


class TestRetryInteraction:
    def test_breaker_open_is_not_transient(self):
        assert not issubclass(BreakerOpen, TransientError)

    def test_retry_never_absorbs_breaker_open(self):
        sleeps = []
        policy = RetryPolicy(max_retries=3, sleep=sleeps.append)

        def open_breaker():
            raise BreakerOpen("open", key="db")

        with pytest.raises(BreakerOpen):
            policy.call(open_breaker)
        assert sleeps == []  # failed fast, no backoff burned

    def test_exhausted_retry_budget_is_one_breaker_failure(self):
        """Breaker outside retry: each fully-retried-and-failed call
        counts once, so the threshold means 'N exhausted budgets', not
        'N raw attempts'."""
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        policy = RetryPolicy(max_retries=2, sleep=lambda s: None)
        attempts = []

        def transient():
            attempts.append(1)
            raise TransientError("flaky")

        for _ in range(1):
            with pytest.raises(TransientError):
                breaker.call("db", lambda: policy.call(transient))
        assert len(attempts) == 3  # 1 + 2 retries inside one breaker failure
        assert breaker.state("db") == CLOSED  # one failure, threshold 2


class TestResolveTriad:
    def test_instance_wins(self):
        breaker = CircuitBreaker()
        assert resolve_breaker(breaker) is breaker

    def test_int_is_a_threshold_shorthand(self):
        assert resolve_breaker(5).failure_threshold == 5

    def test_none_everywhere_disables(self):
        assert resolve_breaker(None) is None

    def test_setter_and_env(self, monkeypatch):
        with config.overriding(breaker=4):
            assert resolve_breaker(None).failure_threshold == 4
        monkeypatch.setenv("REPRO_BREAKER", "2")
        assert resolve_breaker(None).failure_threshold == 2
        monkeypatch.setenv("REPRO_BREAKER", "0")
        assert resolve_breaker(None) is None


class TestSqlRunnerEndpoint:
    def _runner(self, breaker, retry=None):
        from repro.deploy.sql import SqliteRunner

        instance = generate_instance(n_customers=5)
        return SqliteRunner(instance, retry=retry, breaker=breaker)

    def test_poisoned_writes_trip_the_breaker(self):
        from repro.schema.model import relation
        from repro.data.dataset import Dataset

        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        runner = self._runner(breaker)
        FaultPlan(seed=3).flaky_writes(runner, permanent=True)
        rel = relation("T", ("id", "int", False))
        data = Dataset(rel, [{"id": 1}])
        with pytest.raises(ExecutionError):
            runner.load_table(data)
        with pytest.raises(BreakerOpen):
            runner.load_table(data)  # fails fast now
        runner.close()

    def test_transient_writes_recover_under_retry(self):
        from repro.schema.model import relation
        from repro.data.dataset import Dataset

        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        retry = RetryPolicy(max_retries=2, sleep=lambda s: None)
        runner = self._runner(breaker, retry=retry)
        FaultPlan(seed=3).flaky_writes(runner, failures=2)
        rel = relation("T", ("id", "int", False))
        runner.load_table(Dataset(rel, [{"id": 1}]))  # retries absorb both
        got = runner.query(
            'SELECT "id" FROM "T"', rel
        )
        assert [r["id"] for r in got.rows] == [1]
        runner.close()


class TestEtlEndpointBreaker:
    @staticmethod
    def _passthrough_job(source):
        from repro.etl.model import Job
        from repro.etl.stages import TableTarget
        from repro.workloads import orders_schema

        job = Job("passthrough")
        job.add(source)
        target = job.add(TableTarget(orders_schema().renamed("Copied")))
        job.link(source, target, name="rows")
        return job

    def test_engine_fails_fast_on_the_second_run(self):
        from repro.etl.stages import TableSource
        from repro.workloads import orders_schema

        instance, _ = generate_faulty_instance(n=10, seed=2)
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        source = FlakySource(TableSource(orders_schema()), permanent=True)
        job = self._passthrough_job(source)
        engine = EtlEngine(breaker=breaker)
        with pytest.raises(ExecutionError):
            engine.run(job, instance)
        with pytest.raises(BreakerOpen):
            engine.run(job, instance)

    def test_healthy_endpoints_are_untouched_by_a_tripped_one(self):
        from repro.etl.stages import TableSource
        from repro.workloads import orders_schema

        instance, _ = generate_faulty_instance(n=10, seed=2)
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        source = FlakySource(TableSource(orders_schema()), permanent=True)
        engine = EtlEngine(breaker=breaker)
        with pytest.raises(ExecutionError):
            engine.run(self._passthrough_job(source), instance)
        # the same breaker instance, a different (healthy) endpoint key
        healthy = self._passthrough_job(
            TableSource(orders_schema(), name="src_Orders_healthy")
        )
        targets = EtlEngine(breaker=breaker).execute(healthy, instance)
        assert len(targets.dataset("Copied")) == 10


class TestPushdownDegradation:
    def test_open_breaker_falls_back_to_local_etl(self):
        from repro import Orchid
        from repro.deploy.pushdown import plan_pushdown

        orchid = Orchid()
        graph = orchid.import_etl(build_example_job())
        plan = plan_pushdown(graph)
        assert plan.statements  # something actually pushed
        instance = generate_instance(n_customers=50)
        baseline = plan.execute(instance)

        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        with pytest.raises(ExecutionError):
            breaker.call("deploy.sql", boom)  # quarantine the DBMS
        obs = Observability(stats=True)
        degraded = plan.execute(instance, breaker=breaker, obs=obs)
        assert degraded.same_bags(baseline)
        assert obs.metrics.counter("deploy.degrade.pushdown_to_local") == 1

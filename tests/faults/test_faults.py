"""The deterministic fault-injection harness: same seed, same faults."""

import pytest

from repro.errors import ExecutionError, FaultInjected, TransientError
from repro.etl.stages import TableSource, TableTarget
from repro.exec import ExpressionPlanner, Tier, set_kernel_fault_hook
from repro.exec.block import relation_resolver
from repro.expr.parser import parse
from repro.faults import TIERS, FaultPlan
from repro.workloads import generate_faulty_instance, orders_schema


class TestPoison:
    def test_same_seed_poisons_the_same_rows(self):
        a_instance, a_plan = generate_faulty_instance(n=50, seed=4, poison=6)
        b_instance, b_plan = generate_faulty_instance(n=50, seed=4, poison=6)
        assert a_plan.poisoned["Orders"] == b_plan.poisoned["Orders"]
        assert a_instance.dataset("Orders").rows == \
            b_instance.dataset("Orders").rows

    def test_different_seeds_differ(self):
        _, a = generate_faulty_instance(n=200, seed=1, poison=10)
        _, b = generate_faulty_instance(n=200, seed=2, poison=10)
        assert a.poisoned["Orders"] != b.poisoned["Orders"]

    def test_poison_replaces_only_the_chosen_cells(self):
        instance, plan = generate_faulty_instance(n=30, seed=5, poison=3)
        chosen = set(plan.poisoned["Orders"])
        assert len(chosen) == 3
        for i, row in enumerate(instance.dataset("Orders").rows):
            if i in chosen:
                assert row["qty"] == 0
            else:
                assert row["qty"] != 0

    def test_poison_does_not_mutate_the_original_instance(self):
        clean, _ = generate_faulty_instance(n=10, seed=6)
        plan = FaultPlan(seed=6)
        plan.poison(clean, "Orders", "qty", count=4, value=0)
        assert all(r["qty"] != 0 for r in clean.dataset("Orders").rows)

    def test_count_is_clamped_to_the_dataset(self):
        instance, plan = generate_faulty_instance(n=5, seed=7, poison=50)
        assert len(plan.poisoned["Orders"]) == 5
        assert all(r["qty"] == 0 for r in instance.dataset("Orders").rows)

    def test_rate_selection_is_seeded(self):
        clean, _ = generate_faulty_instance(n=100, seed=8)
        first = FaultPlan(seed=8)
        second = FaultPlan(seed=8)
        first.poison(clean, "Orders", "qty", rate=0.2, value=0)
        second.poison(clean, "Orders", "qty", rate=0.2, value=0)
        assert first.poisoned["Orders"] == second.poisoned["Orders"]
        assert 0 < len(first.poisoned["Orders"]) < 100

    def test_exactly_one_of_count_or_rate(self):
        clean, _ = generate_faulty_instance(n=10, seed=9)
        plan = FaultPlan(seed=9)
        with pytest.raises(ValueError, match="exactly one"):
            plan.poison(clean, "Orders", "qty", count=2, rate=0.5)
        with pytest.raises(ValueError, match="exactly one"):
            plan.poison(clean, "Orders", "qty")


class TestKernelFaults:
    def test_unknown_tier_is_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            FaultPlan().fault_kernels(tier="gpu", first=1)

    def test_exactly_one_of_first_or_rate(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan().fault_kernels(tier="block", first=1, rate=0.5)
        with pytest.raises(ValueError, match="exactly one"):
            FaultPlan().fault_kernels(tier="block")

    def test_unconfigured_tier_passes_kernels_through(self):
        plan = FaultPlan(seed=1).fault_kernels(tier="block", first=5)
        fn = lambda: "ran"  # noqa: E731
        assert plan.hook("compiled", "scalar", fn) is fn

    def test_first_n_budget_fires_then_clears(self):
        plan = FaultPlan(seed=1).fault_kernels(tier="block", first=2)
        wrapped = plan.hook("block", "scalar", lambda: "ran")
        for _ in range(2):
            with pytest.raises(FaultInjected, match="seed=1"):
                wrapped()
        assert wrapped() == "ran"
        assert plan.kernel_faults_fired["block"] == 2

    def test_rate_schedule_is_reproducible(self):
        def schedule(seed):
            plan = FaultPlan(seed=seed).fault_kernels(tier="compiled", rate=0.5)
            wrapped = plan.hook("compiled", "scalar", lambda: "ran")
            fired = []
            for _ in range(32):
                try:
                    wrapped()
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        assert schedule(7) == schedule(7)
        assert any(schedule(7)) and not all(schedule(7))

    def test_tier_names_match_the_planner(self):
        """The labels are exactly those some planner hands the hook: a
        column function is "block" fused or gathered, a row closure is
        "compiled" or "oracle" after its planner."""
        assert TIERS == ("block", "compiled", "oracle")
        labels = set()

        def spy(tier, kind, fn):
            labels.add(tier)
            return fn

        expr = parse("a + 1")
        resolve = relation_resolver(None, ["a"])
        set_kernel_fault_hook(spy)
        try:
            for compiled, batched, fused in [
                (True, True, True), (True, True, False),
                (True, False, False), (False, False, False),
            ]:
                planner = ExpressionPlanner.at(
                    None, Tier(compiled, batched, fused, False, 1, None)
                )
                planner.scalar(expr)
                planner.block_scalar(expr, resolve)
        finally:
            set_kernel_fault_hook(None)
        assert labels == set(TIERS)


class TestFlakyEndpoints:
    def test_flaky_source_fails_then_delegates(self):
        instance, plan = generate_faulty_instance(n=6, seed=2)
        source = plan.flaky_source(TableSource(orders_schema()), failures=2)
        for _ in range(2):
            with pytest.raises(TransientError):
                source.extract(instance)
        assert len(source.extract(instance)) == 6
        assert source.name == "src_Orders"

    def test_permanent_source_raises_execution_error(self):
        instance, plan = generate_faulty_instance(n=3, seed=2)
        source = plan.flaky_source(
            TableSource(orders_schema()), permanent=True
        )
        with pytest.raises(ExecutionError) as info:
            source.extract(instance)
        assert not isinstance(info.value, TransientError)

    def test_flaky_target_fails_then_delegates(self):
        instance, plan = generate_faulty_instance(n=4, seed=3)
        target = plan.flaky_target(TableTarget(orders_schema()), failures=1)
        data = instance.dataset("Orders")
        with pytest.raises(TransientError):
            target.load(data)
        assert len(target.load(data)) == 4

    def test_flaky_callable(self):
        plan = FaultPlan(seed=4)
        fn = plan.flaky_callable(lambda: "ok", failures=1)
        with pytest.raises(TransientError):
            fn()
        assert fn() == "ok"
        always = plan.flaky_callable(lambda: "ok", permanent=True)
        with pytest.raises(ExecutionError):
            always()


class TestWriteSeam:
    """flaky_writes poisons the SQL runner's batched-write seam (the
    executemany path) without touching queries."""

    @staticmethod
    def _runner():
        from repro.deploy.sql import SqliteRunner

        instance, _ = generate_faulty_instance(n=5, seed=9)
        return SqliteRunner(instance)

    def test_transient_write_failures_then_recovery(self):
        from repro.data.dataset import Dataset
        from repro.schema.model import relation

        runner = self._runner()
        FaultPlan(seed=9).flaky_writes(runner, failures=1)
        rel = relation("T", ("id", "int", False))
        with pytest.raises(TransientError):
            runner.load_table(Dataset(rel, [{"id": 1}]))
        runner.load_table(Dataset(rel, [{"id": 1}]))  # fault spent
        got = runner.query('SELECT "id" FROM "T"', rel)
        assert [r["id"] for r in got.rows] == [1]
        runner.close()

    def test_permanent_write_failures_are_not_transient(self):
        from repro.data.dataset import Dataset
        from repro.schema.model import relation

        runner = self._runner()
        FaultPlan(seed=9).flaky_writes(runner, permanent=True)
        rel = relation("T", ("id", "int", False))
        with pytest.raises(ExecutionError) as info:
            runner.load_table(Dataset(rel, [{"id": 1}]))
        assert not isinstance(info.value, TransientError)
        runner.close()

    def test_queries_are_untouched_by_the_write_fault(self):
        runner = self._runner()
        FaultPlan(seed=9).flaky_writes(runner, permanent=True)
        got = runner.query('SELECT "orderID" FROM "Orders"', orders_schema())
        assert len(got) == 5
        runner.close()


class TestCrashTier:
    """CrashingStore / CrashingTarget: one-shot kill -9 simulators."""

    def test_crashing_store_kills_the_chosen_boundary(self, tmp_path):
        from repro.data.dataset import Dataset
        from repro.errors import InjectedCrash
        from repro.resilience import CheckpointStore
        from repro.schema.model import relation
        from repro.workloads import build_faulty_job

        job = build_faulty_job()
        first, second, third = (s.uid for s in list(job.stages)[:3])
        rel = relation("R", ("id", "int", False))
        data = Dataset(rel, [{"id": 1}])
        plan = FaultPlan(seed=1)
        store = plan.crashing_store(
            CheckpointStore(str(tmp_path)), after_saves=1
        )
        store.save_stage(job, first, [("x", data)])  # boundary 0 passes
        with pytest.raises(InjectedCrash):
            store.save_stage(job, second, [("y", data)])
        # the crash landed before persisting boundary 1
        assert set(store.load_frontier(job)) == {first}
        # crash spent: subsequent saves pass straight through
        store.save_stage(job, third, [("z", data)])
        assert set(store.load_frontier(job)) == {first, third}

    def test_crashing_store_persist_first_lands_the_snapshot(self, tmp_path):
        from repro.data.dataset import Dataset
        from repro.errors import InjectedCrash
        from repro.resilience import CheckpointStore
        from repro.schema.model import relation
        from repro.workloads import build_faulty_job

        job = build_faulty_job()
        first = next(iter(job.stages)).uid
        data = Dataset(relation("R", ("id", "int", False)), [{"id": 1}])
        plan = FaultPlan(seed=1)
        store = plan.crashing_store(
            CheckpointStore(str(tmp_path)), after_saves=0, persist_first=True
        )
        with pytest.raises(InjectedCrash):
            store.save_stage(job, first, [("x", data)])
        assert set(store.load_frontier(job)) == {first}

    def test_crashing_target_modes(self, tmp_path):
        from repro.errors import InjectedCrash
        from repro.etl.stages import SequentialFileTarget

        plan = FaultPlan(seed=1)
        with pytest.raises(ValueError):
            plan.crashing_target(TableTarget(orders_schema()), mode="nope")

        instance, _ = generate_faulty_instance(n=4, seed=1)
        data = instance.dataset("Orders")

        before = plan.crashing_target(
            SequentialFileTarget(orders_schema(), str(tmp_path / "b.csv")),
            mode="before",
        )
        with pytest.raises(InjectedCrash):
            before.load(data)
        assert not (tmp_path / "b.csv").exists()
        assert len(before.load(data)) == 4  # crash spent, write lands

        torn = plan.crashing_target(
            SequentialFileTarget(orders_schema(), str(tmp_path / "t.csv")),
            mode="torn",
        )
        with pytest.raises(InjectedCrash):
            torn.load(data)
        half = (tmp_path / "t.csv").read_bytes()
        torn.load(data)
        assert len((tmp_path / "t.csv").read_bytes()) > len(half)

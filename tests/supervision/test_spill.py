"""Memory-budgeted spill: budget accounting, governed installation, and
serial-exact parity of the external sort / grace aggregate / grace join
against the in-memory kernels at budgets forcing 0, 1, and many runs."""

import random

import pytest

from repro import config
from repro.errors import ValidationError
from repro.etl import EtlEngine
from repro.exec import ExpressionPlanner, block, kernels
from repro.exec.block import RowBlock
from repro.expr.parser import parse
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, STRING
from repro.supervision import (
    MemoryBudget,
    active_memory_budget,
    governed,
    resolve_memory_budget,
)
from repro.workloads import build_example_job, generate_instance


def _rows(n, seed=0):
    rng = random.Random(seed)
    values = [None, True, False, 1, 1.0, -3, 2.5, "a", "B", "", 7]
    return [
        {
            "id": i,
            "g": rng.choice(["x", "y", "z", None]),
            "v": rng.choice(values),
        }
        for i in range(n)
    ]


class TestMemoryBudget:
    def test_validates(self):
        with pytest.raises(ValidationError):
            MemoryBudget(0)

    def test_exceeded_and_runs(self):
        budget = MemoryBudget(10)
        assert not budget.exceeded(10)
        assert budget.exceeded(11)
        assert budget.runs_for(10) == 1
        assert budget.runs_for(11) == 2
        assert budget.runs_for(100) == 10

    def test_governed_installs_and_restores(self):
        outer, inner = MemoryBudget(5), MemoryBudget(3)
        assert active_memory_budget() is None
        with governed(outer):
            assert active_memory_budget() is outer
            with governed(inner):
                assert active_memory_budget() is inner
            assert active_memory_budget() is outer
        assert active_memory_budget() is None

    def test_governed_none_is_a_no_op(self):
        with governed(None):
            assert active_memory_budget() is None

    def test_resolve_triad(self, monkeypatch):
        budget = MemoryBudget(9)
        assert resolve_memory_budget(budget) is budget
        assert resolve_memory_budget(4).max_rows == 4
        assert resolve_memory_budget(None) is None
        with config.overriding(memory_budget=7):
            assert resolve_memory_budget(None).max_rows == 7
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "3")
        assert resolve_memory_budget(None).max_rows == 3


#: budgets forcing zero spill (fits), one extra run, and many runs
BUDGETS = [(1000, 0), (150, 2), (16, 13)]


class TestRowKernelParity:
    @pytest.mark.parametrize("max_rows,min_runs", BUDGETS)
    def test_sort_parity(self, max_rows, min_runs):
        rows = _rows(200)
        keys = [("v", "desc"), ("g", "asc"), ("id", "asc")]
        expected = kernels.sort_rows(rows, keys)
        obs = Observability(stats=True)
        with governed(MemoryBudget(max_rows)):
            got = kernels.sort_rows(rows, keys, obs=obs)
        assert got == expected
        assert obs.metrics.counter("exec.spill.runs") >= min_runs

    @pytest.mark.parametrize("max_rows,min_runs", BUDGETS)
    def test_group_aggregate_parity(self, max_rows, min_runs):
        rows = _rows(200)
        aggregates = [
            ("cnt", lambda members: len(members)),
            ("ids", lambda members: sum(m["id"] for m in members)),
        ]
        expected = kernels.group_aggregate_rows(rows, ["g"], aggregates)
        obs = Observability(stats=True)
        with governed(MemoryBudget(max_rows)):
            got = kernels.group_aggregate_rows(
                rows, ["g"], aggregates, obs=obs
            )
        assert got == expected
        assert obs.metrics.counter("exec.spill.runs") >= min_runs

    @pytest.mark.parametrize("kind", ["inner", "left", "full"])
    @pytest.mark.parametrize("max_rows", [1000, 150, 16])
    def test_hash_join_parity(self, kind, max_rows):
        left_rel = Relation(
            "L", [Attribute("k", INTEGER), Attribute("s", STRING)]
        )
        right_rel = Relation(
            "R", [Attribute("k", INTEGER), Attribute("t", STRING)]
        )
        rng = random.Random(4)
        left = [
            {"k": rng.choice([1, 2, 3, 4.0, None, 9]), "s": f"l{i}"}
            for i in range(180)
        ]
        right = [
            {"k": rng.choice([1, 2.0, 3, 5, None]), "t": f"r{i}"}
            for i in range(200)
        ]
        condition = parse("L.k = R.k")

        def merge(lr, rr):
            return {
                "s": None if lr is None else lr["s"],
                "t": None if rr is None else rr["t"],
            }

        def run(budget, obs=None):
            out = []
            with governed(budget):
                kernels.hash_join(
                    left, right, left_rel, right_rel, condition, kind,
                    merge, out.append, ExpressionPlanner(), obs=obs,
                )
            return out

        expected = run(None)
        obs = Observability(stats=True)
        got = run(MemoryBudget(max_rows), obs=obs)
        assert got == expected
        if max_rows < len(right):
            assert obs.metrics.counter("exec.spill.join") == 1

    def test_residual_condition_joins_stay_in_memory(self):
        """Grace partitioning only handles pure equi-joins; a residual
        predicate keeps the build resident (correct but unspilled)."""
        left_rel = Relation(
            "L", [Attribute("k", INTEGER), Attribute("a", INTEGER)]
        )
        right_rel = Relation(
            "R", [Attribute("k", INTEGER), Attribute("b", INTEGER)]
        )
        left = [{"k": i % 5, "a": i} for i in range(50)]
        right = [{"k": i % 5, "b": i} for i in range(50)]
        condition = parse("L.k = R.k AND L.a < R.b")
        out = []
        obs = Observability(stats=True)
        with governed(MemoryBudget(8)):
            kernels.hash_join(
                left, right, left_rel, right_rel, condition, "inner",
                lambda lr, rr: {"a": lr["a"], "b": rr["b"]},
                out.append, ExpressionPlanner(), obs=obs,
            )
        assert out  # joined fine
        assert obs.metrics.counter("exec.spill.join") == 0


class TestBlockKernelParity:
    @pytest.mark.parametrize("max_rows", [1000, 150, 16])
    def test_sort_block_parity(self, max_rows):
        rows = _rows(200)
        blk = RowBlock.from_rows(["id", "g", "v"], rows)
        keys = [("v", "desc"), ("g", "asc"), ("id", "asc")]
        expected = block.sort_permutation(blk, keys)
        with governed(MemoryBudget(max_rows)):
            got = block.sort_permutation(blk, keys)
        assert got == expected

    @pytest.mark.parametrize("max_rows", [1000, 150, 16])
    def test_group_aggregate_block_parity(self, max_rows):
        rows = _rows(200)
        blk = RowBlock.from_rows(["id", "g", "v"], rows)
        aggregates = [
            ("cnt", None, None),
            ("total", lambda b: b.columns["id"], sum),
        ]
        expected = block.group_aggregate_block(blk, ["g"], aggregates)
        with governed(MemoryBudget(max_rows)):
            got = block.group_aggregate_block(blk, ["g"], aggregates)
        assert got.columns == expected.columns

    def test_hash_join_block_declines_over_budget(self):
        """The block join declines (None) above budget so its caller
        falls back to the row path, whose join grace-partitions."""
        left_rel = Relation("L", [Attribute("k", INTEGER)])
        right_rel = Relation("R", [Attribute("k", INTEGER)])
        left = RowBlock.from_rows(["k"], [{"k": i % 3} for i in range(30)])
        right = RowBlock.from_rows(["k"], [{"k": i % 3} for i in range(30)])
        condition = parse("L.k = R.k")
        planner = ExpressionPlanner(compiled=True)
        plan = [("k", "left", "k")]
        in_memory = block.hash_join_block(
            left, right, left_rel, right_rel, condition, "inner",
            plan, planner,
        )
        assert in_memory is not None
        with governed(MemoryBudget(8)):
            over_budget = block.hash_join_block(
                left, right, left_rel, right_rel, condition, "inner",
                plan, planner,
            )
        assert over_budget is None


class TestEngineParity:
    """The full workload under a tight budget: identical results,
    nonzero spill metrics, across all three runtimes and tiers."""

    @pytest.fixture(scope="class")
    def baseline(self):
        instance = generate_instance(n_customers=200)
        return instance, EtlEngine().execute(build_example_job(), instance)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("tier", ["serial", "parallel", "fused", "oracle"])
    def test_etl_engine(self, baseline, tier):
        instance, expected = baseline
        # "parallel" is the retired wavefront's keyword set, dropped
        # onto the compiled tier ("serial", "fused")
        flags = {
            "serial": {},
            "parallel": {"workers": 3},
            "fused": {"compiled": True},
            "oracle": {"compiled": False},
        }[tier]
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, memory_budget=16, **flags)
        got = engine.execute(build_example_job(), instance)
        assert got.same_bags(expected)
        assert obs.metrics.counter("exec.spill.runs") > 0

    def test_ohm_executor(self, baseline):
        from repro import Orchid

        instance, expected = baseline
        graph = Orchid().import_etl(build_example_job())
        obs = Observability(stats=True)
        got = OhmExecutor(obs=obs, memory_budget=16).execute(graph, instance)
        assert got.same_bags(expected)
        assert obs.metrics.counter("exec.spill.runs") > 0

    def test_mapping_executor(self, baseline):
        from repro import Orchid

        instance, expected = baseline
        orchid = Orchid()
        mappings = orchid.to_mappings(orchid.import_etl(build_example_job()))
        from repro.mapping import MappingExecutor

        obs = Observability(stats=True)
        executor = MappingExecutor(obs=obs, memory_budget=16)
        got = executor.execute(mappings, instance)
        assert got.same_bags(expected)
        assert obs.metrics.counter("exec.spill.runs") > 0


class TestSortStageUnderBudget:
    """A Sort larger than the budget spills on the compiled tier as on
    the oracle's row kernel, and keeps the same order."""

    # "block" is the retired gathered tier's keyword, dropped onto the
    # compiled tier
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize(
        "tier",
        [dict(compiled=True), dict(fused=False), dict(compiled=False)],
        ids=["fused", "block", "oracle"],
    )
    def test_sort_stage_spills_and_keeps_the_order(self, tier):
        from repro.data.dataset import Dataset, Instance
        from repro.etl.model import Job
        from repro.etl.stages import SortStage, TableSource, TableTarget

        events = Relation(
            "Events", [Attribute("id", INTEGER), Attribute("g", STRING)]
        )
        job = Job("sort-under-budget")
        source = job.add(TableSource(events, name="Events"))
        ordered = job.add(SortStage([("g", "desc"), ("id", "asc")], name="Sort"))
        target = job.add(TableTarget(events.renamed("Out"), name="Out"))
        job.link(source, ordered)
        job.link(ordered, target)
        instance = Instance(
            [Dataset(events, [{"id": r["id"], "g": r["g"]} for r in _rows(200)])]
        )

        def run(memory_budget):
            obs = Observability(stats=True)
            engine = EtlEngine(obs=obs, memory_budget=memory_budget, **tier)
            rows = engine.execute(job, instance).dataset("Out").rows
            return rows, obs.metrics.counter("exec.spill.sort")

        expected, unbudgeted_spills = run(None)
        assert unbudgeted_spills == 0
        got, spills = run(16)
        assert spills == 1
        assert got == expected


class TestAutoTierUnderBudget:
    def test_auto_mode_engine_respects_the_budget(self):
        instance = generate_instance(n_customers=200)
        expected = EtlEngine().execute(build_example_job(), instance)
        obs = Observability(stats=True)
        with pytest.warns(DeprecationWarning, match="'mode'"):
            engine = EtlEngine(obs=obs, mode="auto", memory_budget=16)
        got = engine.execute(build_example_job(), instance)
        assert got.same_bags(expected)

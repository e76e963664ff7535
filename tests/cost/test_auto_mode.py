"""mode="auto": per-run tier selection, bit-identical to the oracle."""

import functools

import pytest

from repro.compile import compile_job
from repro.cost import derived_block_min_rows
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)


def _auto_tier_metric(obs):
    counters = obs.metrics.snapshot().get("counters", {})
    tiers = [
        key[len("exec.auto.tier."):]
        for key in counters if key.startswith("exec.auto.tier.")
    ]
    assert len(tiers) >= 1
    return tiers[-1]


class TestTierSelection:
    def test_small_input_runs_on_row_kernels(self):
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto")
        engine.execute(build_example_job(), generate_instance(20))
        assert _auto_tier_metric(obs) == "rows"

    def test_medium_input_runs_on_block_kernels(self):
        n = derived_block_min_rows() * 3
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto")
        engine.execute(build_chain_job(4), generate_chain_instance(n))
        assert _auto_tier_metric(obs) == "block"

    def test_single_worker_never_partitions(self):
        n = 8500
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto", workers=1)
        engine.execute(build_chain_job(4), generate_chain_instance(n))
        assert _auto_tier_metric(obs) == "block"


@functools.lru_cache(maxsize=None)
def _star(n_facts):
    """The star join over ``n_facts`` facts with its ``compiled=False``
    targets — the ETL engine's for every runtime: the mapping reference
    reads this join as a cross product."""
    job = build_star_join_job(4)
    instance = generate_star_instance(4, n_facts=n_facts, seed=5)
    return job, instance, EtlEngine(compiled=False).execute(job, instance)


class TestAutoLeavesTheSchedulerAlone:
    """``auto`` picks the kernels; whether the wavefront runs is the
    ``parallel`` option's, at any input size — an explicit off is never
    overridden, an explicit on never dropped, and nobody who did not ask
    gets a pool."""

    @pytest.mark.parametrize("n_facts", [100, 20_000])
    @pytest.mark.parametrize(
        "scheduler,waves",
        [
            (dict(parallel=False, workers=4), False),
            (dict(parallel=True, workers=4), True),
            (dict(parallel=True, workers=1), False),
            (dict(), False),
        ],
        ids=["off", "on", "one-worker", "unset"],
    )
    @pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
    def test_waves_iff_parallel_and_two_workers(
        self, runtime, scheduler, waves, n_facts, no_ambient_environment
    ):
        job, instance, oracle = _star(n_facts)
        graph = compile_job(job)
        engine_cls, plan = {
            "etl": (EtlEngine, job),
            "ohm": (OhmExecutor, graph),
            "mapping": (MappingExecutor, ohm_to_mappings(graph)),
        }[runtime]
        obs = Observability(stats=True)
        result = engine_cls(obs=obs, mode="auto", **scheduler).execute(
            plan, instance
        )
        counters = obs.metrics.snapshot()["counters"]
        assert (counters.get("exec.parallel.waves", 0) >= 1) is waves
        assert _auto_tier_metric(obs) == ("rows" if n_facts == 100 else "block")
        assert result.same_bags(oracle)


class TestExplicitModes:
    def test_mode_rows_disables_batching_and_parallelism(self):
        engine = EtlEngine(mode="rows", batched=True, parallel=True)
        assert engine.batched is False
        assert engine.parallel is False

    def test_mode_block_enables_batching(self):
        engine = EtlEngine(mode="block")
        assert engine.batched is True
        assert engine.parallel is False

    def test_mode_parallel_enables_both(self):
        engine = EtlEngine(mode="parallel", workers=4)
        assert engine.batched is True
        assert engine.parallel is True

    def test_invalid_mode_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            EtlEngine(mode="turbo")


class TestNoRunScopedState:
    """``mode="auto"`` re-tiers every run on a planner of its own: the
    engine's public attributes keep their constructor-time meaning."""

    @pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
    def test_large_then_small_run_leaves_the_engine_unchanged(self, runtime):
        job = build_chain_job(4)
        graph = compile_job(job)
        engine_cls, plan = {
            "etl": (EtlEngine, job),
            "ohm": (OhmExecutor, graph),
            "mapping": (MappingExecutor, ohm_to_mappings(graph)),
        }[runtime]
        obs = Observability(stats=True)
        engine = engine_cls(obs=obs, mode="auto", workers=2)
        before = (engine.options, engine.batched, engine.fused, engine.parallel)
        for n, tier in ((derived_block_min_rows() * 3, "block"), (20, "rows")):
            instance = generate_chain_instance(n)
            oracle = engine_cls(compiled=False).execute(plan, instance)
            assert engine.execute(plan, instance).same_bags(oracle)
            assert _auto_tier_metric(obs) == tier
            assert before == (
                engine.options, engine.batched, engine.fused, engine.parallel
            )
        assert "_planner" not in vars(engine)


class TestAutoParity:
    """Whatever tier auto picks, results match the interpreting oracle."""

    @pytest.mark.parametrize("n", [50, 2000, 9000], ids=["rows", "block",
                                                         "parallel"])
    def test_etl_engine(self, n):
        job = build_chain_job(6)
        instance = generate_chain_instance(n)
        oracle = EtlEngine(compiled=False).execute(job, instance)
        auto = EtlEngine(mode="auto", workers=2).execute(job, instance)
        assert auto.same_bags(oracle)

    @pytest.mark.parametrize("n", [50, 2000, 9000], ids=["rows", "block",
                                                         "parallel"])
    def test_ohm_executor(self, n):
        graph = compile_job(build_chain_job(6))
        instance = generate_chain_instance(n)
        oracle = OhmExecutor(compiled=False).execute(graph, instance)
        auto = OhmExecutor(mode="auto", workers=2).execute(graph, instance)
        assert auto.same_bags(oracle)

    def test_mapping_executor(self):
        from repro.fasttrack import Orchid

        orchid = Orchid()
        job = build_example_job()
        mappings = orchid.to_mappings(orchid.import_etl(job))
        instance = generate_instance(150)
        oracle = MappingExecutor(compiled=False).execute(mappings, instance)
        auto = MappingExecutor(mode="auto", workers=2).execute(
            mappings, instance
        )
        assert auto.same_bags(oracle)

    def test_example_job_all_modes_agree(self):
        job = build_example_job()
        instance = generate_instance(120)
        oracle = EtlEngine(compiled=False).execute(job, instance)
        for mode in ("rows", "block", "parallel", "auto"):
            result = EtlEngine(mode=mode, workers=2).execute(job, instance)
            assert result.same_bags(oracle), mode

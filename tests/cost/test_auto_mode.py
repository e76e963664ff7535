"""mode="auto": a name for the default tier, bit-identical to the oracle."""

import functools

import pytest

from repro.compile import compile_job
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_kitchen_sink_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_kitchen_sink_instance,
    generate_star_instance,
)


#: job and instance-by-largest-input builders of the two workloads.
WORKLOADS = {
    "sink": (
        # no surrogate key: the mapping runtime enumerates rows in
        # another order, so keys would land on other rows
        lambda: build_kitchen_sink_job(with_surrogate_key=False),
        lambda n: generate_kitchen_sink_instance(n, max(8, n // 20)),
    ),
    # about 2.5 accounts a customer: the accounts are the largest input
    "example": (
        build_example_job,
        lambda n: generate_instance(max(8, n * 2 // 5)),
    ),
}


@functools.lru_cache(maxsize=None)
def _workload(name):
    job = WORKLOADS[name][0]()
    graph = compile_job(job)
    return {"etl": job, "ohm": graph, "mapping": ohm_to_mappings(graph)}


@functools.lru_cache(maxsize=None)
def _data(name, n_rows):
    """The instance and its ``compiled=False`` targets — the ETL
    engine's for every runtime (the mapping reference reads a join as a
    cross product)."""
    instance = WORKLOADS[name][1](n_rows)
    return instance, EtlEngine(compiled=False).execute(
        _workload(name)["etl"], instance
    )


def _engine(runtime, **options):
    engine_cls = {"etl": EtlEngine, "ohm": OhmExecutor, "mapping": MappingExecutor}
    return engine_cls[runtime](obs=Observability(stats=True), **options)


def _counters(obs):
    return obs.metrics.snapshot()["counters"]


def _run_counters(engine, plan, instance):
    """One run's result and the runtime counters it alone booked."""
    before = _counters(engine.obs)
    result = engine.execute(plan, instance)
    return result, {
        key: value - before.get(key, 0)
        for key, value in _counters(engine.obs).items()
        if key.startswith(("exec.", "etl.", "ohm.", "mapping."))
    }


@pytest.mark.usefixtures("no_ambient_environment")
class TestAutoIsTheDefaultTier:
    """An engine built with no tier keyword, ``mode="auto"`` and
    ``batched=True`` are one configuration at every input size: nothing
    re-decides the tier per run."""

    @pytest.mark.parametrize("workload", list(WORKLOADS))
    @pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
    def test_no_keyword_is_auto_is_batched(self, runtime, workload):
        plan = _workload(workload)[runtime]
        engines = [
            _engine(runtime, **tier)
            for tier in (dict(), dict(mode="auto"), dict(batched=True))
        ]
        tiers = [(e.compiled, e.batched, e.fused, e.parallel) for e in engines]
        assert tiers == [(True, True, True, False)] * 3
        constructed = [e.options for e in engines]
        for n_rows in (20, 20_000):
            instance, oracle = _data(workload, n_rows)
            counted = []
            for engine in engines:
                result, counters = _run_counters(engine, plan, instance)
                assert result.same_bags(oracle)
                counted.append(counters)
            assert counted[0] == counted[1] == counted[2]
            assert any(key.startswith("exec.block.") for key in counted[0])
            assert constructed == [e.options for e in engines]

    def test_auto_spills_as_the_block_tier_does(self):
        plan = _workload("sink")["etl"]
        instance, oracle = _data("sink", 20_000)
        booked = {}
        for mode in ("auto", "block"):
            engine = _engine("etl", mode=mode, memory_budget=500)
            result, booked[mode] = _run_counters(engine, plan, instance)
            assert result.same_bags(oracle)
        assert booked["auto"]["exec.spill.rows"] > 0
        assert booked["auto"]["exec.spill.runs"] > 0
        # every counter, so no row kernel ran where the block tier's did
        assert booked["auto"] == booked["block"]


class TestTierSelection:
    """``auto`` is the block kernels at any input size; the scheduler is
    not its business."""

    def test_medium_input_runs_on_block_kernels(self):
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto")
        engine.execute(build_chain_job(4), generate_chain_instance(1200))
        counters = _counters(obs)
        assert any(key.startswith("exec.block.") for key in counters)
        assert not any(key.startswith("exec.kernel.") for key in counters)

    def test_single_worker_never_partitions(self):
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto", workers=1)
        engine.execute(build_chain_job(4), generate_chain_instance(8500))
        counters = _counters(obs)
        assert any(key.startswith("exec.block.") for key in counters)
        assert "exec.parallel.waves" not in counters


@functools.lru_cache(maxsize=None)
def _star(n_facts):
    """The star join over ``n_facts`` facts with its ``compiled=False``
    targets — the ETL engine's for every runtime: the mapping reference
    reads this join as a cross product."""
    job = build_star_join_job(4)
    instance = generate_star_instance(4, n_facts=n_facts, seed=5)
    return job, instance, EtlEngine(compiled=False).execute(job, instance)


class TestAutoLeavesTheSchedulerAlone:
    """``auto`` names the kernels; whether the wavefront runs is the
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
        assert (_counters(obs).get("exec.parallel.waves", 0) >= 1) is waves
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
    """Every run builds a planner of its own: the engine's public
    attributes keep their constructor-time meaning."""

    @pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
    def test_large_then_small_run_leaves_the_engine_unchanged(self, runtime):
        job = build_chain_job(4)
        graph = compile_job(job)
        engine_cls, plan = {
            "etl": (EtlEngine, job),
            "ohm": (OhmExecutor, graph),
            "mapping": (MappingExecutor, ohm_to_mappings(graph)),
        }[runtime]
        engine = engine_cls(mode="auto", workers=2)
        before = (engine.options, engine.batched, engine.fused, engine.parallel)
        for n in (1200, 20):
            instance = generate_chain_instance(n)
            oracle = engine_cls(compiled=False).execute(plan, instance)
            assert engine.execute(plan, instance).same_bags(oracle)
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

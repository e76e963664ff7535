"""Determinism audit for the parallel tier: serial vs ``workers`` ∈
{2, 4, 8} must agree on the accepted AND the rejected row multisets
across all three runtimes (ETL engine, OHM executor, mapping executor),
and the merge order of every materialized link must be *exactly* the
serial order — not just bag-equal (see ``docs/execution-model.md``).
"""

from collections import Counter

import pytest

from repro.compile import compile_job
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor, reset_keygen_sequences
from repro.resilience import format_row
from repro.workloads import (
    build_example_job,
    build_faulty_job,
    build_kitchen_sink_job,
    build_star_join_job,
    generate_faulty_instance,
    generate_instance,
    generate_kitchen_sink_instance,
    generate_star_instance,
)

WORKER_COUNTS = [2, 4, 8]


def run_etl(instance, policy, workers):
    engine = EtlEngine(
        compiled=True, batched=True, on_error=policy,
        parallel=workers is not None, workers=workers or 1,
    )
    targets, _ = engine.run(build_faulty_job(), instance)
    accepted = Counter(format_row(r) for r in targets.dataset("Premium").rows)
    rejected = Counter(format_row(r.row) for r in engine.last_run.rejected)
    return accepted, rejected


def run_ohm(instance, policy, workers):
    graph = compile_job(build_faulty_job())
    executor = OhmExecutor(
        compiled=True, batched=True, on_error=policy,
        parallel=workers is not None, workers=workers or 1,
    )
    targets, _edges, rejects = executor.run_with_rejects(graph, instance)
    accepted = Counter(format_row(r) for r in targets.dataset("Premium").rows)
    rejected = Counter(r["row"] for r in rejects.rows)
    return accepted, rejected


def run_mapping(instance, policy, workers):
    mappings = ohm_to_mappings(compile_job(build_faulty_job()))
    executor = MappingExecutor(
        compiled=True, batched=True, on_error=policy,
        parallel=workers is not None, workers=workers or 1,
    )
    targets, _inter, rejects = executor.run_with_rejects(mappings, instance)
    accepted = Counter(format_row(r) for r in targets.dataset("Premium").rows)
    rejected = Counter(r["row"] for r in rejects.rows)
    return accepted, rejected


RUNTIMES = [("etl", run_etl), ("ohm", run_ohm), ("mapping", run_mapping)]


class TestWorkerCountParity:
    """Accepted and rejected multisets must be invariant under the
    worker count — the rejected channel included, because row-error
    policies run inside worker tasks."""

    @pytest.mark.parametrize("runtime", RUNTIMES, ids=lambda r: r[0])
    def test_rejected_multiset_matches_serial(self, runtime):
        _name, runner = runtime
        instance, plan = generate_faulty_instance(n=60, seed=11, poison=7)
        serial = runner(instance, "reject", None)
        assert sum(serial[1].values()) == 7
        for workers in WORKER_COUNTS:
            result = runner(instance, "reject", workers)
            assert result == serial, f"{_name} diverged at workers={workers}"

    @pytest.mark.parametrize("runtime", RUNTIMES, ids=lambda r: r[0])
    def test_skip_policy_matches_serial(self, runtime):
        _name, runner = runtime
        instance, _ = generate_faulty_instance(n=45, seed=12, poison=5)
        serial = runner(instance, "skip", None)
        for workers in WORKER_COUNTS:
            assert runner(instance, "skip", workers) == serial

    def test_three_runtimes_agree_under_parallelism(self):
        instance, _ = generate_faulty_instance(n=60, seed=19, poison=6)
        reference = run_etl(instance, "reject", None)
        for _name, runner in RUNTIMES:
            assert runner(instance, "reject", 4) == reference, _name


class TestExactOrder:
    """Stronger than bag equality: every materialized link/edge must
    carry its rows in the exact serial order, so order-sensitive
    downstream operators (dedup ``retain=first``, stable sorts) cannot
    tell the tiers apart."""

    def test_etl_links_byte_identical(self):
        job = build_example_job()
        instance = generate_instance(n_customers=250, seed=23)
        _t, serial_links = EtlEngine(compiled=True, batched=True).run(
            job, instance
        )
        for workers in WORKER_COUNTS:
            _t, links = EtlEngine(
                compiled=True, batched=True, parallel=True, workers=workers
            ).run(job, instance)
            assert set(links) == set(serial_links)
            for name in serial_links:
                assert links[name].rows == serial_links[name].rows, (
                    f"link {name} reordered at workers={workers}"
                )

    def test_ohm_edges_byte_identical(self):
        graph = compile_job(build_example_job())
        instance = generate_instance(n_customers=250, seed=23)
        _t, serial_edges = OhmExecutor(compiled=True, batched=True).run(
            graph, instance
        )
        for workers in WORKER_COUNTS:
            _t, edges = OhmExecutor(
                compiled=True, batched=True, parallel=True, workers=workers
            ).run(graph, instance)
            for name in serial_edges:
                assert edges[name].rows == serial_edges[name].rows, (
                    f"edge {name} reordered at workers={workers}"
                )

    def test_wide_graph_runs_real_waves(self):
        # the star join has genuinely independent sources: assert the
        # wavefront actually fans out AND the result is still exact
        job = build_star_join_job(4)
        instance = generate_star_instance(4, n_facts=300, seed=5)
        serial_t, serial_links = EtlEngine(compiled=True, batched=True).run(
            job, instance
        )
        obs = Observability(stats=True)
        engine = EtlEngine(
            compiled=True, batched=True, parallel=True, workers=4, obs=obs
        )
        _t, links = engine.run(job, instance)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("exec.parallel.waves", 0) >= 1
        assert counters.get("exec.parallel.tasks", 0) >= 4
        for name in serial_links:
            assert links[name].rows == serial_links[name].rows, name


class TestWorkerFailureDegradation:
    """A broken executor must degrade to serial execution without
    changing any result, counted in
    ``exec.degrade.parallel_to_serial``."""

    def test_broken_executor_degrades_every_wave(self):
        from repro.exec.parallel import set_default_executor

        class _Broken:
            def submit(self, fn):
                raise RuntimeError("pool shut down")

        job = build_example_job()
        instance = generate_instance(n_customers=120, seed=3)
        serial_t, serial_links = EtlEngine(compiled=True, batched=True).run(
            job, instance
        )
        obs = Observability(stats=True)
        set_default_executor(_Broken())
        try:
            _t, links = EtlEngine(
                compiled=True, batched=True, parallel=True, workers=4, obs=obs
            ).run(job, instance)
        finally:
            set_default_executor(None)
        for name in serial_links:
            assert links[name].rows == serial_links[name].rows, name
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("exec.degrade.parallel_to_serial", 0) >= 1


PROGRAMS = {
    "kitchen_sink": lambda: (
        build_kitchen_sink_job(),
        generate_kitchen_sink_instance(n_orders=400, n_customers=40),
    ),
    "paper": lambda: (
        build_example_job(), generate_instance(n_customers=250, seed=23)
    ),
    "star": lambda: (
        build_star_join_job(4), generate_star_instance(4, n_facts=300, seed=5)
    ),
}
SCHEDULER_COUNTERS = ("exec.parallel.waves", "exec.parallel.tasks")


class TestModeParallelIsBlockPlusWavefront:
    """``mode="parallel"`` is the batched tier on the wavefront and
    nothing else: every link in the same row order, and every counter
    the run books equal to ``batched=True``'s except the scheduler's
    own two."""

    @pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_links_and_counters_match_batched(self, program, runtime):
        job, instance = PROGRAMS[program]()
        graph = compile_job(job)  # once: edge names carry operator uids
        engine_cls, plan = {
            "etl": (EtlEngine, job),
            "ohm": (OhmExecutor, graph),
            "mapping": (MappingExecutor, ohm_to_mappings(graph)),
        }[runtime]

        def run(**tier):
            obs = Observability(stats=True)
            reset_keygen_sequences()
            _targets, links = engine_cls(obs=obs, **tier).run(plan, instance)
            counters = obs.metrics.snapshot()["counters"]
            return links, {
                name: n for name, n in counters.items()
                if name.startswith(("exec.", "etl.", "ohm."))
            }

        # every keyword stated: a CI scenario's REPRO_* pin must not
        # move either side
        links, counters = run(compiled=True, batched=True, parallel=False)
        wave_links, wave_counters = run(
            compiled=True, mode="parallel", workers=4
        )
        assert set(wave_links) == set(links)
        for name in links:
            assert wave_links[name].rows == links[name].rows, name
        for name in SCHEDULER_COUNTERS:
            assert wave_counters.pop(name) >= 1, name
        assert wave_counters == counters

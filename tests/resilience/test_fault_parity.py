"""The fault-injection parity matrix: 3 runtimes (ETL engine, OHM
executor, mapping executor) × 2 execution tiers (interpreted oracle,
compiled) must agree on the accepted AND the rejected row multisets
under injected faults. This is the paper's
semantic-equivalence claim extended to the error path."""

import os
from collections import Counter

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.etl import (
    EtlEngine,
    FilterOutput,
    FilterStage,
    Job,
    OutputLink,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.faults import FaultPlan
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.ohm import OhmExecutor
from repro.resilience import format_row
from repro.schema import relation
from repro.workloads import build_faulty_job, generate_faulty_instance

#: (tier name, compiled)
MODES = [("interpreted", False), ("compiled", True)]


def run_etl(instance, compiled, policy):
    engine = EtlEngine(compiled=compiled, on_error=policy)
    targets = engine.execute(build_faulty_job(), instance)
    accepted = Counter(
        format_row(r) for r in targets.dataset("Premium").rows
    )
    rejected = Counter(
        format_row(r.row) for r in engine.last_run.rejected
    )
    return accepted, rejected


def run_ohm(instance, compiled, policy):
    graph = compile_job(build_faulty_job())
    executor = OhmExecutor(compiled=compiled, on_error=policy)
    targets, rejects, _rows, _edges = executor.run(graph, instance)
    accepted = Counter(
        format_row(r) for r in targets.dataset("Premium").rows
    )
    rejected = Counter(r["row"] for r in rejects.rows)
    return accepted, rejected


def run_mapping(instance, compiled, policy):
    mappings = ohm_to_mappings(compile_job(build_faulty_job()))
    executor = MappingExecutor(compiled=compiled, on_error=policy)
    targets, rejects, _rows, _edges = executor.run(mappings, instance)
    accepted = Counter(
        format_row(r) for r in targets.dataset("Premium").rows
    )
    rejected = Counter(r["row"] for r in rejects.rows)
    return accepted, rejected


RUNTIMES = [("etl", run_etl), ("ohm", run_ohm), ("mapping", run_mapping)]


def matrix(instance, policy="reject"):
    """{(runtime, tier): (accepted Counter, rejected Counter)}."""
    results = {}
    for runtime_name, runner in RUNTIMES:
        for mode_name, compiled in MODES:
            results[(runtime_name, mode_name)] = runner(
                instance, compiled, policy
            )
    return results


class TestParityMatrix:
    def test_reject_parity_across_all_six_combinations(self):
        instance, plan = generate_faulty_instance(n=60, seed=11, poison=7)
        results = matrix(instance, policy="reject")
        reference_accepted, reference_rejected = results[("etl", "interpreted")]
        assert sum(reference_rejected.values()) == 7
        source_rows = instance.dataset("Orders").rows
        assert reference_rejected == Counter(
            format_row(source_rows[i]) for i in plan.poisoned["Orders"]
        )
        for key, (accepted, rejected) in results.items():
            assert accepted == reference_accepted, f"accepted mismatch at {key}"
            assert rejected == reference_rejected, f"rejected mismatch at {key}"

    def test_skip_parity_accepts_the_same_rows(self):
        instance, _ = generate_faulty_instance(n=45, seed=12, poison=5)
        skip_results = matrix(instance, policy="skip")
        reject_results = matrix(instance, policy="reject")
        reference, _ = reject_results[("etl", "interpreted")]
        for key, (accepted, rejected) in skip_results.items():
            assert accepted == reference, f"accepted mismatch at {key}"
            assert not rejected, f"skip must not reject at {key}"

    def test_clean_input_has_empty_reject_channel(self):
        instance, _ = generate_faulty_instance(n=25, seed=13, poison=0)
        for key, (accepted, rejected) in matrix(instance).items():
            assert sum(accepted.values()) > 0
            assert not rejected, f"spurious rejects at {key}"

    def test_parity_survives_kernel_degradation(self):
        instance, _ = generate_faulty_instance(n=40, seed=14, poison=4)
        clean = run_etl(instance, False, "reject")
        plan = FaultPlan(seed=14).fault_kernels(tier="block", first=2)
        with plan.injected():
            degraded = run_etl(instance, True, "reject")
        assert degraded == clean


def stage_variable_job():
    """A Transformer whose stage variable ``v = 10 % b`` feeds two
    constrained links, ``a > 0`` and ``a > 1``."""
    source_rel = relation("R", ("a", "int", False), ("b", "int", False))
    job = Job("stage_variable_rejects")
    source = job.add(TableSource(source_rel))
    links = [
        OutputLink([("a", "a"), ("w", "v")], constraint)
        for constraint in ("a > 0", "a > 1")
    ]
    xf = job.add(Transformer(links, stage_variables=[("v", "10 % b")], name="xf"))
    for port, name in enumerate(("O1", "O2")):
        out = job.add(TableTarget(relation(name, ("a", "int", False), ("w", "int"))))
        job.link(xf, out, src_port=port)
    job.link(source, xf)
    rows = [{"a": 1, "b": 1}, {"a": 2, "b": 0}, {"a": 3, "b": 1}, {"a": -1, "b": 0}]
    return job, Instance([Dataset(source_rel, rows)])


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3(ii): the compiler substitutes a stage variable "
    "into each constrained link, so the OHM graph rejects a row once per "
    "branch that computes it, where the job rejects it once per row",
)
def test_stage_variable_rejects_once_per_row_on_every_runtime(compiled):
    job, instance = stage_variable_job()
    etl = EtlEngine(compiled=compiled, on_error="reject").run(job, instance)
    ohm = OhmExecutor(compiled=compiled, on_error="reject").run(
        compile_job(job), instance
    )
    assert etl.targets.same_bags(ohm.targets)
    assert Counter(r["row"] for r in etl.rejected.rows) == Counter(
        {"{a: 2, b: 0}": 1, "{a: -1, b: 0}": 1}
    )
    assert Counter(r["row"] for r in ohm.rejected.rows) == Counter(
        r["row"] for r in etl.rejected.rows
    )


def _routing_job(name, make_stage):
    """``R(a, b)`` through one routing stage onto ``O1`` (rows where
    ``10 / b > 1``) and ``O2`` (every other row); ``b = 0`` makes the
    predicate fail on the second row."""
    source_rel = relation("R", ("a", "int", False), ("b", "int", False))
    job = Job(name)
    source = job.add(TableSource(source_rel))
    stage = job.add(make_stage())
    for port, target in enumerate(("O1", "O2")):
        out = job.add(TableTarget(source_rel.renamed(target)))
        job.link(stage, out, src_port=port)
    job.link(source, stage)
    rows = [{"a": 1, "b": 1}, {"a": 2, "b": 0}, {"a": 3, "b": 20}]
    return job, Instance([Dataset(source_rel, rows)])


def otherwise_job():
    """A Transformer with a ``10 / b > 1`` link and an otherwise link."""
    columns = [("a", "a"), ("b", "b")]
    return _routing_job("otherwise_rejects", lambda: Transformer(
        [OutputLink(columns, "10 / b > 1"),
         OutputLink(columns, otherwise=True)],
        name="xf",
    ))


def filter_reject_job():
    """A Filter with a ``10 / b > 1`` output and a reject output."""
    return _routing_job("filter_rejects", lambda: FilterStage(
        [FilterOutput("10 / b > 1"), FilterOutput(reject=True)],
        name="split",
    ))


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
@pytest.mark.parametrize(
    "build", [otherwise_job, filter_reject_job], ids=["otherwise", "filter-reject"]
)
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3(ii): the compiler gives each branch of a SPLIT "
    "its own FILTER over the constraint the branches share, so the OHM "
    "graph rejects a failing row once per branch, where the job routes "
    "or rejects it once",
)
def test_routing_stage_rejects_once_per_row_on_every_runtime(build, compiled):
    job, instance = build()
    etl = EtlEngine(compiled=compiled, on_error="reject").run(job, instance)
    ohm = OhmExecutor(compiled=compiled, on_error="reject").run(
        compile_job(job), instance
    )
    assert etl.targets.same_bags(ohm.targets)
    assert Counter(r["row"] for r in ohm.rejected.rows) == Counter(
        r["row"] for r in etl.rejected.rows
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULTS"),
    reason="extended fault sweep; set REPRO_FAULTS=1 to run",
)
class TestExtendedFaultSweep:
    """The long matrix: several seeds, and kernel faults layered on top
    of poisoned rows. Run in CI under REPRO_FAULTS=1."""

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_seed_parity(self, seed):
        instance, _ = generate_faulty_instance(n=80, seed=seed, poison=9)
        results = matrix(instance, policy="reject")
        reference = results[("etl", "interpreted")]
        assert sum(reference[1].values()) == 9
        for key, result in results.items():
            assert result == reference, f"mismatch at {key} (seed {seed})"

    @pytest.mark.parametrize("tier", ["block"])
    def test_parity_under_kernel_fault_rates(self, tier):
        instance, _ = generate_faulty_instance(n=80, seed=21, poison=6)
        reference = run_etl(instance, False, "reject")
        for runtime_name, runner in RUNTIMES:
            plan = FaultPlan(seed=21).fault_kernels(tier=tier, rate=0.5)
            with plan.injected():
                result = runner(instance, True, "reject")
            assert result == reference, f"mismatch at {runtime_name}/{tier}"

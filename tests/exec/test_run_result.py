"""One run result per runtime: ``run(plan, instance, *, keep=())``.

A run holds an edge's dataset only until the edge's one consumer has
run; a kept name survives into ``RunResult.edges``, and a name the plan
lacks is refused before row one."""

import gc
import weakref

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.etl import CustomStage, EtlEngine, FilterStage, Job, TableSource, TableTarget
from repro.exec.run import RunResult
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.ohm import Filter, OhmExecutor, OhmGraph, Source, Target, Unknown
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance

PEOPLE = relation("People", ("id", "int", False), ("salary", "float"))
ROWS = [{"id": i, "salary": float(i * 10)} for i in range(1, 9)]

TIERS = {"compiled": dict(compiled=True), "oracle": dict(compiled=False)}


class Probe:
    """Two black-box bodies: ``capture`` takes a weak reference to its
    input and copies the rows on; ``check``, run after ``capture`` has
    been booked, records whether that input is still alive."""

    def __init__(self):
        self.ref = None
        self.alive_downstream = None

    def capture(self, inputs):
        self.ref = weakref.ref(inputs[0])
        return [[dict(row) for row in inputs[0]]]

    def check(self, inputs):
        gc.collect()
        self.alive_downstream = self.ref() is not None
        return [[dict(row) for row in inputs[0]]]


def ohm_plan(probe):
    """People -> FILTER -> "filtered" -> capture -> check -> target."""
    graph = OhmGraph("probe")
    source = graph.add(Source(PEOPLE))
    keep = graph.add(Filter("salary > 20"))
    capture = graph.add(Unknown([PEOPLE.renamed("c")], "capture", executor=probe.capture))
    check = graph.add(Unknown([PEOPLE.renamed("k")], "check", executor=probe.check))
    target = graph.add(Target(PEOPLE.renamed("Out")))
    graph.chain(
        source, keep, capture, check, target,
        names=["people", "filtered", "captured", "checked"],
    )
    return graph


def etl_plan(probe):
    """The same shape as a job: Custom stages for the two bodies."""
    job = Job("probe")
    source = job.add(TableSource(PEOPLE))
    keep = job.add(FilterStage.single("salary > 20", name="keep"))
    capture = job.add(
        CustomStage([PEOPLE], implementation=probe.capture, name="capture")
    )
    check = job.add(CustomStage([PEOPLE], implementation=probe.check, name="check"))
    target = job.add(TableTarget(PEOPLE.renamed("Out")))
    job.chain(
        source, keep, capture, check, target,
        names=["people", "filtered", "captured", "checked"],
    )
    return job


RUNTIMES = {"ohm": (OhmExecutor, ohm_plan), "etl": (EtlEngine, etl_plan)}


def people():
    return Instance([Dataset(PEOPLE, ROWS)])


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("runtime", RUNTIMES)
class TestRelease:
    def test_consumed_edge_is_released(self, runtime, tier):
        engine, build = RUNTIMES[runtime]
        probe = Probe()
        result = engine(**TIERS[tier]).run(build(probe), people())
        assert probe.alive_downstream is False
        gc.collect()
        assert probe.ref() is None
        assert result.edges == {}
        assert result.rows == {
            "people": 8, "filtered": 6, "captured": 6, "checked": 6,
        }
        assert len(result.targets.dataset("Out")) == 6

    def test_kept_edge_survives_into_the_result(self, runtime, tier):
        engine, build = RUNTIMES[runtime]
        probe = Probe()
        result = engine(**TIERS[tier]).run(
            build(probe), people(), keep=["filtered"]
        )
        assert probe.alive_downstream is True
        assert list(result.edges) == ["filtered"]
        assert result.edges["filtered"] is probe.ref()
        assert len(result.edges["filtered"]) == 6

    def test_unknown_kept_name_raises_before_row_one(self, runtime, tier):
        engine, build = RUNTIMES[runtime]
        probe = Probe()
        with pytest.raises(KeyError, match="DSLink99"):
            engine(**TIERS[tier]).run(build(probe), people(), keep=["DSLink99"])
        assert probe.ref is None


@pytest.mark.parametrize("tier", TIERS)
def test_mapping_runtime_keeps_intermediate_relations(tier):
    mappings = ohm_to_mappings(compile_job(build_example_job()))
    instance = generate_instance(40)
    (name,) = mappings.intermediate_relation_names()
    executor = MappingExecutor(**TIERS[tier])
    result = executor.run(mappings, instance, keep=[name])
    assert isinstance(result, RunResult)
    assert list(result.edges) == [name]
    assert result.rows == {name: len(result.edges[name])}
    assert executor.run(mappings, instance).edges == {}
    with pytest.raises(KeyError):
        executor.run(mappings, instance, keep=["Customers"])


def test_the_three_runtimes_return_one_shape():
    job = build_example_job()
    graph = compile_job(job)
    instance = generate_instance(40)
    results = [
        EtlEngine().run(job, instance),
        OhmExecutor().run(graph, instance),
        MappingExecutor().run(ohm_to_mappings(graph), instance),
    ]
    for result in results:
        assert type(result) is RunResult
        assert result.targets.same_bags(results[0].targets)
        assert len(result.rejected) == 0
        assert result.rows["DSLink10"] == results[0].rows["DSLink10"]

"""Cross-runtime checks of the compiled/interpreted escape hatch and the
re-entrancy fix.

The three runtimes must produce identical results in both execution
modes (the interpreter is the semantic oracle), and executors must carry
no run-scoped state that a concurrent or recursive run could stomp.
"""

import pytest

from repro.cost import StatisticsCatalog
from repro.data.dataset import Dataset, Instance
from repro.etl.engine import EtlEngine
from repro.fasttrack.orchid import Orchid
from repro.mapping.executor import MappingExecutor
from repro.ohm.engine import OhmExecutor
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import Filter, Source, Target, Unknown
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER
from repro.supervision import RunSupervisor
from repro.workloads import (
    build_example_job,
    build_kitchen_sink_job,
    generate_instance,
    generate_kitchen_sink_instance,
)


def test_etl_engine_modes_agree_on_kitchen_sink():
    job = build_kitchen_sink_job()
    instance = generate_kitchen_sink_instance(n_orders=120)
    compiled = EtlEngine(compiled=True).execute(job, instance)
    interpreted = EtlEngine(compiled=False).execute(job, instance)
    assert compiled.same_bags(interpreted)


def test_all_three_runtimes_agree_in_both_modes():
    job = build_example_job()
    instance = generate_instance(n_customers=60)
    orchid = Orchid()
    graph = orchid.import_etl(job)
    mappings = orchid.to_mappings(graph)
    baseline = EtlEngine(compiled=False).execute(job, instance)
    for compiled in (True, False):
        assert OhmExecutor(compiled=compiled).execute(
            graph, instance
        ).same_bags(baseline)
        assert MappingExecutor(compiled=compiled).execute(
            mappings, instance
        ).same_bags(baseline)
    assert EtlEngine(compiled=True).execute(job, instance).same_bags(baseline)


def _passthrough_graph(source_name: str) -> OhmGraph:
    relation = Relation(source_name, [Attribute("x", INTEGER)])
    graph = OhmGraph(f"g_{source_name}")
    src = graph.add(Source(relation))
    flt = graph.add(Filter("x >= 0"))
    tgt = graph.add(Target(relation.renamed(f"{source_name}_out")))
    graph.connect(src, flt)
    graph.connect(flt, tgt)
    return graph


def test_ohm_executor_is_reentrant():
    # an UNKNOWN operator whose behaviour runs ANOTHER graph on the SAME
    # executor mid-run — with class-level run state this would stomp the
    # outer run's source instance
    executor = OhmExecutor()

    inner_graph = _passthrough_graph("Inner")
    inner_relation = Relation("Inner", [Attribute("x", INTEGER)])
    inner_instance = Instance()
    inner_data = Dataset(inner_relation)
    for value in (10, 20):
        inner_data.append({"x": value})
    inner_instance.put(inner_data)

    def nested_run(inputs):
        targets = executor.execute(inner_graph, inner_instance)
        assert sorted(r["x"] for r in targets.dataset("Inner_out")) == [10, 20]
        return [[dict(r) for r in inputs[0]]]

    outer_relation = Relation("Outer", [Attribute("x", INTEGER)])
    graph = OhmGraph("outer")
    src = graph.add(Source(outer_relation))
    unknown = graph.add(
        Unknown([outer_relation], "nested", executor=nested_run)
    )
    tgt = graph.add(Target(outer_relation.renamed("Outer_out")))
    graph.connect(src, unknown)
    graph.connect(unknown, tgt)

    outer_instance = Instance()
    outer_data = Dataset(outer_relation)
    for value in (1, 2, 3):
        outer_data.append({"x": value})
    outer_instance.put(outer_data)

    targets = executor.execute(graph, outer_instance)
    assert sorted(r["x"] for r in targets.dataset("Outer_out")) == [1, 2, 3]


def test_ohm_executor_keeps_no_run_state():
    assert not hasattr(OhmExecutor, "_source_instance")


def test_wrappers_forward_every_engine_option():
    """``run`` and ``execute`` on each of the three runtimes honour every
    option given at construction, and an unknown keyword is refused."""
    job = build_example_job()
    instance = generate_instance(n_customers=40)
    orchid = Orchid()
    graph = orchid.import_etl(job)
    mappings = orchid.to_mappings(graph)
    baseline = EtlEngine(compiled=False).execute(job, instance)
    for runtime, plan in (
        (EtlEngine, job),
        (OhmExecutor, graph),
        (MappingExecutor, mappings),
    ):
        for entry in ("run", "execute"):
            catalog = StatisticsCatalog()
            supervisor = RunSupervisor()
            engine = runtime(
                catalog=catalog, supervisor=supervisor,
                compiled=True, deadline=60,
                memory_budget=10**6,
            )
            out = getattr(engine, entry)(plan, instance)
            targets = out.targets if entry == "run" else out
            label = f"{runtime.__name__}.{entry}"
            assert targets.same_bags(baseline), label
            assert supervisor.frontier, label  # it supervised the run
            assert catalog.has_table("Customers"), label  # fed back
        with pytest.raises(TypeError, match="turbo"):
            runtime(turbo=True)


@pytest.mark.parametrize("executor", [OhmExecutor, MappingExecutor])
def test_endpoint_options_stay_etl_only(executor):
    for option in ("retry", "checkpoint", "breaker"):
        with pytest.raises(TypeError, match=option):
            executor(**{option: 1})

"""Lint agrees with propagation: the analyzer derives schemas through the
graph's own propagation, so on any generated plan, with or without one
seeded defect, ``check_plan`` refuses exactly what ``propagate_schemas``
refuses, and names the same node; on a clean plan it writes no edge
schema and leaves every node memo warm for the run's propagation."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_plan
from repro.compile import compile_job
from repro.dataflow import Edge
from repro.errors import GraphError, OrchidError, ValidationError
from repro.etl.model import Job
from repro.etl.stages import (
    FilterOutput,
    FilterStage,
    OutputLink,
    TableTarget,
    Transformer,
)
from repro.etl.xmlio import job_from_xml, job_to_xml
from repro.expr.parser import parse
from repro.ohm import jsonio
from repro.ohm.operators import Filter, Project, Target
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_kitchen_sink_job,
    build_star_join_job,
)

FAMILIES = {
    "chain": lambda size, seed: build_chain_job(size, seed=seed),
    "fanout": lambda size, seed: build_fanout_job(size, seed=seed),
    "star": lambda size, seed: build_star_join_job(size),
    "example": lambda size, seed: build_example_job(),
    "kitchen_sink": lambda size, seed: build_kitchen_sink_job(),
}


# -- the mutator: at most one seeded defect ------------------------------------


def _rewire(graph, edge, **ports):
    graph.remove_edge(edge)
    graph.add_edge_object(
        Edge(
            edge.src, ports.get("src_port", edge.src_port),
            edge.dst, ports.get("dst_port", edge.dst_port),
            edge.name, kind=edge.kind,
        )
    )


def bad_filter(graph, rng):
    """A predicate that is not boolean."""
    filters = [
        n for n in graph.nodes if isinstance(n, (FilterStage, Filter))
    ]
    if not filters:
        return False
    node = rng.choice(filters)
    if isinstance(node, Filter):
        node.condition = parse("1 + 1")
    else:
        node.outputs = [
            FilterOutput("1 + 1", o.columns) if i == 0 else o
            for i, o in enumerate(node.outputs)
        ]
    return True


def bad_derivation(graph, rng):
    """A Transformer (on OHM: PROJECT) derivation over no column."""
    nodes = [
        n for n in graph.nodes
        if isinstance(n, Transformer)
        or (isinstance(n, Project) and n.prunable)
    ]
    if not nodes:
        return False
    node = rng.choice(nodes)
    if isinstance(node, Project):
        (col, _expr), *rest = node.derivations
        node.derivations = [(col, parse("no_such_column + 1"))] + rest
    else:
        first = node.outputs[0]
        (col, _expr), *rest = first.derivations
        node.outputs = [
            OutputLink(
                [(col, "no_such_column + 1")] + rest,
                first.constraint, first.otherwise,
            )
        ] + node.outputs[1:]
    return True


def reject_ahead_of_data(graph, rng):
    """A reject link on port 0, the data links shifted after it."""
    if not isinstance(graph, Job):
        return False
    stages = [
        s for s in graph.stages
        if s.supports_reject_link and graph.out_edges(s.uid)
        and not any(e.is_reject for e in graph.out_edges(s.uid))
    ]
    if not stages:
        return False
    stage = rng.choice(stages)
    for edge in reversed(graph.out_edges(stage.uid)):
        _rewire(graph, edge, src_port=edge.src_port + 1)
    from repro.resilience import reject_relation

    rejects = graph.add(TableTarget(reject_relation(), name="seeded_rejects"))
    graph.link(stage, rejects, name="rejected", src_port=0, kind="reject")
    return True


def gap_in_ports(graph, rng):
    """An input link moved one port up, leaving a gap."""
    nodes = [n for n in graph.nodes if graph.in_edges(n.uid)]
    node = rng.choice(nodes)
    edge = graph.in_edges(node.uid)[-1]
    _rewire(graph, edge, dst_port=edge.dst_port + 1)
    return True


def missing_target_column(graph, rng):
    """A target wanting a column nobody delivers."""
    targets = [
        n for n in graph.nodes if isinstance(n, (TableTarget, Target))
    ]
    node = rng.choice(targets)
    rel = node.relation
    node.relation = Relation(
        rel.name, list(rel.attributes) + [Attribute("no_such_column", INTEGER)]
    )
    return True


DEFECTS = [
    bad_filter, bad_derivation, reject_ahead_of_data, gap_in_ports,
    missing_target_column,
]


# -- the plans ------------------------------------------------------------------


def serialize(graph) -> str:
    return job_to_xml(graph) if isinstance(graph, Job) else (
        jsonio.graph_to_json(graph)
    )


def rebuild(text: str, compiled: bool):
    return jsonio.graph_from_json(text) if compiled else job_from_xml(text)


plans = st.tuples(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(2, 5),
    st.integers(0, 9),
    st.booleans(),
    st.sampled_from([None] + DEFECTS),
    st.integers(0, 2**16),
)


def draw_plan(family, size, seed, compiled, defect, mutation_seed):
    """The serialized plan and whether a defect was seeded into it."""
    graph = FAMILIES[family](size, seed)
    if compiled:
        graph = compile_job(graph)
    seeded = defect is not None and defect(graph, random.Random(mutation_seed))
    return serialize(graph), seeded


def _recording(method, uid, raised):
    def wrapper(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except OrchidError:
            raised.append(uid)
            raise

    return wrapper


def propagation_failure(graph):
    """The uid of the node the raising propagation stops at, or None."""
    raised = []
    for node in graph.nodes:
        node.validate = _recording(node.validate, node.uid, raised)
        node.output_relations = _recording(
            node.output_relations, node.uid, raised
        )
    try:
        graph.propagate_schemas()
    except OrchidError as exc:
        located = isinstance(exc, GraphError) and (
            exc.stage or exc.operator
        )
        return located or raised[-1]
    return None


def check_failure(graph):
    """The uid ``check_plan`` names when it refuses the plan, or None."""
    try:
        check_plan(graph)
    except ValidationError as exc:
        return exc.stage or exc.operator
    return None


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plans)
def test_check_plan_refuses_exactly_what_propagation_refuses(plan):
    text, seeded = draw_plan(*plan)
    compiled = plan[3]
    refused = check_failure(rebuild(text, compiled))
    failed = propagation_failure(rebuild(text, compiled))
    assert refused == failed
    if not seeded:
        assert refused is None


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plans.filter(lambda plan: plan[4] is None))
def test_check_plan_writes_no_schema_and_warms_every_memo(plan):
    text, _seeded = draw_plan(*plan)
    graph = rebuild(text, plan[3])
    calls = []
    for node in graph.nodes:
        original = node.validate

        def counting(inputs, _original=original, _uid=node.uid):
            calls.append(_uid)
            return _original(inputs)

        node.validate = counting
    check_plan(graph)
    assert all(edge.schema is None for edge in graph.edges)
    assert calls  # the check did derive the schemas
    calls.clear()
    graph.propagate_schemas()
    assert calls == []
    assert all(edge.schema is not None for edge in graph.edges)

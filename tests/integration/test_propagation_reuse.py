"""Schema propagation that reuses nodes' last results gives the schemas
a cold propagation gives, at every step of the FastTrack round trip.

A *cold* propagation runs on a copy of the graph rebuilt from its
external form (``repro.ohm.jsonio`` for OHM graphs, the job XML for ETL
jobs): every node is fresh, so none carries a remembered result. The
schemas left on the edges by each step, and the schemas a second,
*warm* propagation of the same graph puts there, must both equal the
cold ones.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compile import compile_job
from repro.deploy import deploy_to_job, plan_pushdown
from repro.etl.xmlio import job_from_xml, job_to_xml
from repro.mapping import mappings_to_ohm, ohm_to_mappings
from repro.ohm.graph import OhmGraph
from repro.ohm.jsonio import graph_from_json, graph_to_json
from repro.rewrite import optimize
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_kitchen_sink_job,
    build_star_join_job,
)


def _schemas(graph):
    return {
        (e.src, e.src_port, e.dst, e.dst_port, e.name, e.kind): e.schema
        for e in graph.edges
    }


def _cold(graph):
    if isinstance(graph, OhmGraph):
        fresh = graph_from_json(graph_to_json(graph))
    else:
        fresh = job_from_xml(job_to_xml(graph))
    assert not set(map(id, fresh.nodes)) & set(map(id, graph.nodes))
    fresh.propagate_schemas()
    return _schemas(fresh)


def assert_warm_is_cold(graph, step):
    cold = _cold(graph)
    assert _schemas(graph) == cold, f"edges after {step} are stale"
    graph.propagate_schemas()
    assert _schemas(graph) == cold, f"warm propagation after {step} differs"


def round_trip(job):
    graph = compile_job(job)
    assert_warm_is_cold(graph, "compile_job")
    optimize(graph)
    assert_warm_is_cold(graph, "optimize")
    mappings = ohm_to_mappings(graph)
    assert_warm_is_cold(graph, "ohm_to_mappings")
    regraph = mappings_to_ohm(mappings)
    assert_warm_is_cold(regraph, "mappings_to_ohm")
    redeployed, _plan = deploy_to_job(regraph)
    assert_warm_is_cold(regraph, "deploy_to_job (input)")
    assert_warm_is_cold(redeployed, "deploy_to_job")
    hybrid = plan_pushdown(graph)
    assert_warm_is_cold(graph, "plan_pushdown (input)")
    assert_warm_is_cold(hybrid.job, "plan_pushdown")


JOBS = st.one_of(
    st.builds(
        build_chain_job,
        st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(build_star_join_job, st.integers(min_value=1, max_value=8)),
    st.builds(
        build_fanout_job,
        st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.builds(build_example_job),
    st.builds(build_kitchen_sink_job),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(job=JOBS)
def test_every_step_leaves_the_cold_schemas(job):
    round_trip(job)


def test_the_example_and_the_kitchen_sink():
    round_trip(build_example_job())
    round_trip(build_kitchen_sink_job())

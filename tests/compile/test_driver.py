"""The compilation driver walks the job itself: the reject channel is
left out of the OHM instance, and a job whose schemas ``check_plan``
derived is not validated again."""

import pytest

from repro.analysis import check_plan
from repro.compile import compile_job
from repro.errors import ValidationError
from repro.etl.stages import FunnelStage, TableSource, TableTarget
from repro.resilience import reject_relation
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_faulty_job,
    build_kitchen_sink_job,
    build_star_join_job,
)


def _shape(graph):
    return (
        graph.kinds_in_order(),
        sorted(edge.name for edge in graph.edges),
        sorted((edge.name, edge.schema) for edge in graph.edges),
    )


class TestRejectChannel:
    def test_reject_link_and_its_target_are_not_compiled(self):
        with_channel = compile_job(build_faulty_job(with_reject_link=True))
        without = compile_job(build_faulty_job())
        assert _shape(with_channel) == _shape(without)

    def test_compiling_leaves_the_jobs_stages_and_links(self):
        job = build_faulty_job(with_reject_link=True)
        before = (
            [stage.name for stage in job.stages],
            [(e.name, e.src, e.dst, e.kind) for e in job.links],
        )
        compile_job(job)
        assert before == (
            [stage.name for stage in job.stages],
            [(e.name, e.src, e.dst, e.kind) for e in job.links],
        )

    def test_a_stage_mixing_reject_and_data_inputs_is_refused(self):
        job = build_faulty_job()
        compute = job.stage("ComputeUnit")
        compute.on_error = "reject"
        mix = job.add(FunnelStage(name="Mix"))
        other = job.add(
            TableSource(reject_relation("OtherRejects"), name="OtherRejects")
        )
        job.reject_link(compute, mix, name="Rejects", dst_port=0)
        job.link(other, mix, dst_port=1)
        job.link(mix, job.add(TableTarget(reject_relation("AllRejects"))))
        with pytest.raises(
            ValidationError,
            match="stage 'Mix' mixes reject and data inputs; cannot strip "
            "the reject channel cleanly",
        ):
            compile_job(job)


def test_the_materialization_point_carries_the_group_result():
    # the paper's DSLink10 carries the aggregated totalBalance on the
    # OHM edge that inherits the link's name
    graph = compile_job(build_example_job())
    assert "totalBalance" in graph.find_edge("DSLink10").schema.attribute_names


@pytest.mark.parametrize(
    "build",
    [
        build_example_job,
        build_kitchen_sink_job,
        lambda: build_chain_job(25),
        lambda: build_star_join_job(4),
        lambda: build_fanout_job(16),
    ],
    ids=["example", "kitchen_sink", "chain", "star", "fanout"],
)
def test_compiling_a_checked_job_validates_no_stage(build):
    job = build()
    calls = []
    for stage in job.stages:
        original = stage.validate

        def counting(inputs, _original=original, _name=stage.name):
            calls.append(_name)
            return _original(inputs)

        stage.validate = counting
    check_plan(job)
    assert calls  # the check derived the schemas
    calls.clear()
    compile_job(job)
    assert calls == []
    # the schemas every run derives are on the job's links
    assert all(link.schema is not None for link in job.links)

"""Platform extensibility and ablation tests.

The paper: "Orchid is extensible with respect to data processing
platforms ... New ETL import/export and compilation/deployment
components ... can be added to the system without impacting any of the
functionality of the OHM layer", and the merge heuristic "prefer[s]
solutions that have less RP operators".
"""

import pytest

from repro.compile import compile_job
from repro.deploy import (
    DATASTAGE,
    RuntimePlatform,
    build_minimal_platform,
    deploy_to_job,
    plan_deployment,
)
from repro.deploy.datastage import AggregatorRp, CustomRp, JoinRp, TransformerRp
from repro.errors import DeploymentError
from repro.etl import EtlEngine
from repro.workloads import (
    build_example_job,
    build_fanout_job,
    generate_chain_instance,
    generate_instance,
)


class TestMinimalPlatform:
    def test_filters_deploy_as_transformers(self):
        graph = compile_job(build_example_job())
        job, plan = deploy_to_job(graph, build_minimal_platform())
        types = [s.STAGE_TYPE for s in job.stages]
        assert "Filter" not in types
        assert types.count("Transformer") == 3  # prepare + NonLoans + router

    def test_semantics_identical_across_platforms(self):
        graph = compile_job(build_example_job())
        ds_job, _ = deploy_to_job(graph, DATASTAGE)
        min_job, _ = deploy_to_job(graph, build_minimal_platform())
        instance = generate_instance(40)
        assert EtlEngine().execute(min_job, instance).same_bags(
            EtlEngine().execute(ds_job, instance)
        )

    def test_fanout_on_minimal_platform(self):
        graph = compile_job(build_fanout_job(3))
        job, _ = deploy_to_job(graph, build_minimal_platform())
        instance = generate_chain_instance(50)
        assert EtlEngine().execute(job, instance).same_bags(
            EtlEngine().execute(build_fanout_job(3), instance)
        )

    def test_choice_step_changes_with_repertoire(self):
        # the same box is implemented by different RP operators depending
        # on what the platform registered (the §VI-B choice step)
        graph = compile_job(build_example_job())
        ds_plan = plan_deployment(graph.shallow_copy(), DATASTAGE)
        min_plan = plan_deployment(
            graph.shallow_copy(), build_minimal_platform()
        )
        ds_names = sorted(box.chosen.name for box in ds_plan.boxes)
        min_names = sorted(box.chosen.name for box in min_plan.boxes)
        assert "Filter" in ds_names
        assert "Filter" not in min_names
        assert min_names.count("Transformer") > ds_names.count("Transformer")


class TestMergeAblation:
    def test_no_merge_yields_more_stages(self):
        graph = compile_job(build_example_job())
        merged, _ = deploy_to_job(graph)
        unmerged, plan = deploy_to_job(graph, merge=False)
        assert len(unmerged.stages) > len(merged.stages)
        # every box holds exactly one operator
        assert all(len(box.uids) == 1 for box in plan.boxes)

    def test_no_merge_preserves_semantics(self):
        graph = compile_job(build_example_job())
        unmerged, _ = deploy_to_job(graph, merge=False)
        instance = generate_instance(40)
        assert EtlEngine().execute(unmerged, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )


class TestCustomPlatformRegistration:
    def test_partial_repertoire_fails_loudly(self):
        sparse = RuntimePlatform("sparse")
        sparse.register(JoinRp())
        graph = compile_job(build_example_job())
        with pytest.raises(DeploymentError) as info:
            plan_deployment(graph, sparse)
        assert "sparse" in str(info.value)

    def test_sufficient_repertoire_works(self):
        enough = RuntimePlatform("enough")
        for rp in (TransformerRp(), JoinRp(), AggregatorRp(), CustomRp()):
            enough.register(rp)
        graph = compile_job(build_example_job())
        job, _ = deploy_to_job(graph, enough)
        instance = generate_instance(30)
        assert EtlEngine().execute(job, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )

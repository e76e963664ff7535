"""The kitchen-sink workload: every compilable stage type in one job,
checked across every execution path."""

import pytest

from repro.compile import compile_job
from repro.deploy import build_minimal_platform, deploy_to_job, plan_pushdown
from repro.etl import job_from_xml, job_to_xml, run_job
from repro.exec.block import RowBlock
from repro.mapping import (
    execute_mappings,
    mappings_from_json,
    mappings_to_json,
    ohm_to_mappings,
)
from repro.mapping.to_ohm import mappings_to_ohm
from repro.ohm import (
    engine,
    execute,
    graph_from_json,
    graph_to_json,
    reset_keygen_sequences,
)
from repro.workloads import (
    build_example_job,
    build_kitchen_sink_job,
    generate_instance,
    generate_kitchen_sink_instance,
)


@pytest.fixture(scope="module")
def instance():
    return generate_kitchen_sink_instance(150)


@pytest.fixture(scope="module")
def baseline(instance):
    reset_keygen_sequences()
    return run_job(build_kitchen_sink_job(), instance)


class TestStageCoverage:
    def test_uses_twelve_processing_stage_types(self):
        job = build_kitchen_sink_job()
        types = {s.STAGE_TYPE for s in job.stages}
        assert {
            "Sort", "Peek", "Filter", "Switch", "Funnel", "Copy", "Lookup",
            "Transformer", "Modify", "RemoveDuplicates", "Aggregator",
            "SurrogateKey",
        } <= types

    def test_all_five_targets_populated(self, baseline):
        for name in (
            "Enriched", "Rejected", "OtherRegions", "Audit", "RegionStats",
        ):
            assert len(baseline.dataset(name)) > 0, name

    def test_workload_exercises_edge_behaviour(self, instance, baseline):
        # NULL amounts fell through to the otherwise link
        assert len(baseline.dataset("Rejected")) > 0
        # duplicates were removed: audit rows are distinct orderIDs
        audit = baseline.dataset("Audit").column("orderID")
        assert len(audit) == len(set(audit))
        # unmatched lookups null-filled rather than dropping rows
        assert any(
            r["name"] is None for r in baseline.dataset("Enriched")
        )


class TestOrderPreservingPaths:
    """Paths that share the engines' deterministic row order may include
    the surrogate-key stage."""

    def test_ohm_engine(self, instance, baseline):
        graph = compile_job(build_kitchen_sink_job())
        reset_keygen_sequences()
        assert execute(graph, instance).same_bags(baseline)

    def test_redeployed_job(self, instance, baseline):
        graph = compile_job(build_kitchen_sink_job())
        job, _plan = deploy_to_job(graph)
        reset_keygen_sequences()
        assert run_job(job, instance).same_bags(baseline)

    def test_xml_round_trip(self, instance, baseline):
        job = job_from_xml(job_to_xml(build_kitchen_sink_job()))
        reset_keygen_sequences()
        assert run_job(job, instance).same_bags(baseline)

    def test_ohm_json_round_trip(self, instance, baseline):
        graph = compile_job(build_kitchen_sink_job())
        restored = graph_from_json(graph_to_json(graph))
        reset_keygen_sequences()
        assert execute(restored, instance).same_bags(baseline)


class TestMappingPaths:
    """Mapping-level paths use the keygen-free variant (surrogate keys
    are row-order dependent; the mapping executor enumerates rows in a
    different order)."""

    @pytest.fixture(scope="class")
    def nk_baseline(self, instance):
        return run_job(build_kitchen_sink_job(with_surrogate_key=False),
                       instance)

    def test_extracted_mappings_execute(self, instance, nk_baseline):
        graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
        mappings = ohm_to_mappings(graph)
        # the outer-join Lookup becomes an opaque mapping that still runs
        assert any(m.is_opaque for m in mappings)
        assert execute_mappings(mappings, instance).same_bags(nk_baseline)

    def test_opaque_output_edge_stays_columnar(
        self, instance, nk_baseline, monkeypatch
    ):
        """The outer-join Lookup's opaque mapping hands its UNKNOWN a
        dataset: the edge adopts the block and never goes through row
        dicts."""
        handed, converted = [], []
        adopt = engine._adopt_output

        def spy_adopt(op, out, produced):
            dataset = adopt(op, out, produced)
            handed.append(dataset.peek_block())
            return dataset

        to_rows = RowBlock.to_rows

        def spy_to_rows(self, *args, **kwargs):
            converted.append(self)
            return to_rows(self, *args, **kwargs)

        monkeypatch.setattr(engine, "_adopt_output", spy_adopt)
        monkeypatch.setattr(RowBlock, "to_rows", spy_to_rows)
        graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
        # the lowered run: under REPRO_COMPILED=0 the mapping executor
        # would read the formulas and lower nothing
        assert execute_mappings(
            ohm_to_mappings(graph), instance, compiled=True
        ).same_bags(nk_baseline)
        assert handed and all(b is not None for b in handed)
        assert not any(b is c for b in handed for c in converted)

    def test_custom_stage_returning_rows_still_runs(self):
        job = build_example_job(custom_after_join=True)
        data = generate_instance(40)
        expected = run_job(job, data)
        graph = compile_job(job)
        assert execute(graph, data).same_bags(expected)
        assert execute_mappings(ohm_to_mappings(graph), data).same_bags(expected)

    def test_mappings_to_ohm_round_trip(self, instance, nk_baseline):
        graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
        back = mappings_to_ohm(ohm_to_mappings(graph))
        assert execute(back, instance).same_bags(nk_baseline)

    def test_mapping_json_round_trip_structure(self):
        graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
        mappings = ohm_to_mappings(graph)
        restored = mappings_from_json(mappings_to_json(mappings))
        assert restored.names == mappings.names

    def test_hybrid_pushdown(self, instance, nk_baseline):
        graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
        hybrid = plan_pushdown(graph)
        assert hybrid.execute(instance).same_bags(nk_baseline)

    def test_minimal_platform_deployment(self, instance, nk_baseline):
        graph = compile_job(build_kitchen_sink_job(with_surrogate_key=False))
        job, _plan = deploy_to_job(graph, build_minimal_platform())
        assert run_job(job, instance).same_bags(nk_baseline)

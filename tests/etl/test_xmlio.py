"""External XML format tests: serialization round trips for every stage
type, error handling."""

import pytest

from repro.errors import SerializationError
from repro.etl import (
    EtlEngine,
    Job,
    TableSource,
    TableTarget,
    job_from_xml,
    job_to_xml,
    read_job,
    write_job,
)
from repro.schema import relation
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)


class TestRoundTrip:
    def test_example_job_structure_survives(self):
        job = build_example_job()
        restored = job_from_xml(job_to_xml(job))
        assert restored.name == job.name
        assert sorted(s.name for s in restored.stages) == sorted(
            s.name for s in job.stages
        )
        assert sorted(l.name for l in restored.links) == sorted(
            l.name for l in job.links
        )

    def test_example_job_semantics_survive(self):
        job = build_example_job()
        restored = job_from_xml(job_to_xml(job))
        instance = generate_instance(40)
        assert EtlEngine().execute(restored, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    @pytest.mark.parametrize(
        "builder,instance_builder",
        [
            (lambda: build_chain_job(10), lambda: generate_chain_instance(60)),
            (lambda: build_fanout_job(4), lambda: generate_chain_instance(60)),
            (lambda: build_star_join_job(2),
             lambda: generate_star_instance(2, 80)),
        ],
    )
    def test_generated_jobs_survive(self, builder, instance_builder):
        job = builder()
        restored = job_from_xml(job_to_xml(job))
        instance = instance_builder()
        assert EtlEngine().execute(restored, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    def test_annotations_survive(self):
        rel = relation("R", ("id", "int"))
        job = Job("annotated")
        src = job.add(
            TableSource(rel, annotations={"rule": "English business rule"})
        )
        tgt = job.add(TableTarget(rel.renamed("Out")))
        job.link(src, tgt)
        restored = job_from_xml(job_to_xml(job))
        assert restored.stage(src.name).annotations == {
            "rule": "English business rule"
        }

    def test_custom_stage_loses_implementation_only(self):
        job = build_example_job(custom_after_join=True)
        restored = job_from_xml(job_to_xml(job))
        custom = restored.stage("AuditBalances")
        assert custom.STAGE_TYPE == "Custom"
        assert custom.reference == "AuditBalances"
        assert custom.implementation is None  # the black box stays black

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "job.xml")
        job = build_example_job()
        write_job(job, path)
        restored = read_job(path)
        assert restored.name == job.name


class TestFormatDetails:
    def test_document_is_versioned_xml(self):
        text = job_to_xml(build_example_job())
        assert text.startswith("<etljob")
        assert 'version="1.0"' in text

    def test_link_ports_preserved(self):
        job = build_example_job()
        restored = job_from_xml(job_to_xml(job))
        original_ports = {
            l.name: (l.src_port, l.dst_port) for l in job.links
        }
        for link in restored.links:
            assert (link.src_port, link.dst_port) == original_ports[link.name]


class TestErrors:
    def test_malformed_xml_rejected(self):
        with pytest.raises(SerializationError):
            job_from_xml("<etljob><unclosed>")

    def test_wrong_root_rejected(self):
        with pytest.raises(SerializationError):
            job_from_xml("<notajob/>")

    def test_missing_stages_rejected(self):
        with pytest.raises(SerializationError):
            job_from_xml('<etljob name="x"/>')

    def test_unknown_stage_type_rejected(self):
        text = (
            '<etljob name="x"><stages>'
            '<stage name="s" type="Quantum"/></stages></etljob>'
        )
        with pytest.raises(SerializationError):
            job_from_xml(text)

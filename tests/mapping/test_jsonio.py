"""Mapping JSON external-format tests."""

import pytest

from repro.compile import compile_job
from repro.errors import SerializationError
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    mappings_from_json,
    mappings_to_json,
    ohm_to_mappings,
)
from repro.mapping.jsonio import read_mappings, write_mappings
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


def example_mappings():
    return ohm_to_mappings(compile_job(build_example_job()))


class TestRoundTrip:
    def test_names_and_structure_survive(self):
        mappings = example_mappings()
        restored = mappings_from_json(mappings_to_json(mappings))
        assert restored.names == mappings.names
        for original, back in zip(mappings, restored):
            assert back.target.name == original.target.name
            assert back.where == original.where
            assert back.group_by == original.group_by
            assert back.derivations == original.derivations
            assert [b.var for b in back.sources] == [
                b.var for b in original.sources
            ]

    def test_semantics_survive(self):
        mappings = example_mappings()
        restored = mappings_from_json(mappings_to_json(mappings))
        instance = generate_instance(40)
        assert MappingExecutor().execute(restored, instance).same_bags(
            MappingExecutor().execute(mappings, instance)
        )

    def test_rendering_survives(self):
        mappings = example_mappings()
        restored = mappings_from_json(mappings_to_json(mappings))
        assert restored.to_text() == mappings.to_text()

    def test_annotations_survive(self):
        rel = relation("R", ("a", "int"))
        mapping = Mapping(
            [SourceBinding("r", rel)], relation("T", ("a", "int")),
            [("a", "r.a")],
            annotations={"rule": "English text"},
        )
        restored = mappings_from_json(
            mappings_to_json(MappingSet([mapping]))
        )
        assert restored[0].annotations == {"rule": "English text"}

    def test_opaque_round_trips_without_executor(self):
        rel = relation("R", ("a", "int"))
        opaque = Mapping(
            [SourceBinding("r", rel)], relation("T", ("a", "int")), [],
            reference="external-proc", executor=lambda inputs: [],
        )
        restored = mappings_from_json(mappings_to_json(MappingSet([opaque])))
        assert restored[0].is_opaque
        assert restored[0].reference == "external-proc"
        assert restored[0].executor is None

    def test_key_metadata_survives(self):
        rel = relation("R", ("id", "int", False), keys=["id"])
        mapping = Mapping(
            [SourceBinding("r", rel)],
            relation("T", ("id", "int", False), keys=["id"]),
            [("id", "r.id")],
        )
        restored = mappings_from_json(mappings_to_json(MappingSet([mapping])))
        assert restored[0].target.key_names == ("id",)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "mappings.json")
        mappings = example_mappings()
        write_mappings(mappings, path)
        assert read_mappings(path).names == mappings.names


class TestErrors:
    def test_malformed_json_rejected(self):
        with pytest.raises(SerializationError):
            mappings_from_json("{not json")

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(SerializationError):
            mappings_from_json('{"format": "something-else"}')

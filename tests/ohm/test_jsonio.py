"""OHM JSON serialization tests."""

import pytest

from repro.compile import compile_job
from repro.errors import SerializationError
from repro.etl import EtlEngine
from repro.mapping import ohm_to_mappings
from repro.ohm import (
    ColumnMerge,
    ColumnSplit,
    KeyGen,
    Nest,
    OhmExecutor,
    OhmGraph,
    Source,
    Target,
    Union,
    Unnest,
    graph_from_json,
    graph_to_json,
    read_graph,
    reset_keygen_sequences,
    write_graph,
)
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


class TestRoundTrip:
    def test_example_graph_structure(self):
        graph = compile_job(build_example_job())
        restored = graph_from_json(graph_to_json(graph))
        assert sorted(restored.kinds_in_order()) == sorted(
            graph.kinds_in_order()
        )
        assert sorted(e.name for e in restored.edges) == sorted(
            e.name for e in graph.edges
        )

    def test_example_graph_semantics(self):
        graph = compile_job(build_example_job())
        restored = graph_from_json(graph_to_json(graph))
        instance = generate_instance(40)
        assert OhmExecutor().execute(restored, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )

    def test_extracted_mappings_survive(self):
        # the graph stays mapping-extractable after a round trip
        graph = compile_job(build_example_job())
        restored = graph_from_json(graph_to_json(graph))
        assert ohm_to_mappings(restored).names == ["M1", "M2", "M3"]

    def test_annotations_and_labels_survive(self):
        graph = compile_job(build_example_job())
        for op in graph.operators:
            op.annotations["note"] = f"about {op.uid}"
        restored = graph_from_json(graph_to_json(graph))
        for op in restored.operators:
            assert op.annotations["note"] == f"about {op.uid}"
            assert op.label == graph.operator(op.uid).label

    def test_subtype_operators_round_trip(self):
        reset_keygen_sequences()
        rel = relation("R", ("id", "int", False), ("code", "varchar", False))
        graph = OhmGraph("subtypes")
        s = graph.add(Source(rel))
        kg = graph.add(KeyGen("sk", sequence="json-test", start=7))
        cs = graph.add(ColumnSplit("code", ["p1", "p2"], "-",
                                   passthrough=["id", "sk"]))
        cm = graph.add(ColumnMerge(["p1", "p2"], "code", "-",
                                   passthrough=["id", "sk"]))
        t = graph.add(Target(relation(
            "Out", ("id", "int"), ("sk", "int"), ("code", "varchar"),
        )))
        graph.chain(s, kg, cs, cm, t)
        restored = graph_from_json(graph_to_json(graph))
        assert restored.kinds_in_order() == [
            "SOURCE", "KEYGEN", "COLUMN SPLIT", "COLUMN MERGE", "TARGET",
        ]
        restored_kg = restored.operator(kg.uid)
        assert restored_kg.key_column == "sk"
        assert restored_kg.start == 7

    def test_nested_operators_round_trip(self):
        rel = relation("R", ("g", "int", False), ("v", "float"))
        graph = OhmGraph("nf2")
        s = graph.add(Source(rel))
        n = graph.add(Nest(["g"], ["v"], into="vs"))
        u = graph.add(Unnest("vs"))
        t = graph.add(Target(relation("Out", ("g", "int"), ("v", "float"))))
        graph.chain(s, n, u, t)
        restored = graph_from_json(graph_to_json(graph))
        restored.propagate_schemas()
        assert restored.kinds_in_order() == [
            "SOURCE", "NEST", "UNNEST", "TARGET",
        ]

    def test_unknown_round_trips_as_black_box(self):
        graph = compile_job(build_example_job(custom_after_join=True))
        restored = graph_from_json(graph_to_json(graph))
        (unknown,) = restored.operators_of_kind("UNKNOWN")
        assert unknown.reference == "AuditBalances"
        assert unknown.executor is None  # callables do not serialize

    def test_distinct_union_flag_survives(self):
        rel = relation("R", ("id", "int", False))
        graph = OhmGraph("u")
        s1 = graph.add(Source(rel))
        s2 = graph.add(Source(rel.renamed("R2")))
        u = graph.add(Union(distinct=True))
        t = graph.add(Target(rel.renamed("Out")))
        graph.connect(s1, u, dst_port=0)
        graph.connect(s2, u, dst_port=1)
        graph.connect(u, t)
        restored = graph_from_json(graph_to_json(graph))
        (union,) = restored.operators_of_kind("UNION")
        assert union.distinct is True

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "graph.json")
        graph = compile_job(build_example_job())
        write_graph(graph, path)
        assert sorted(read_graph(path).kinds_in_order()) == sorted(
            graph.kinds_in_order()
        )


class TestErrors:
    def test_malformed_document(self):
        with pytest.raises(SerializationError):
            graph_from_json("{oops")

    def test_wrong_format_marker(self):
        with pytest.raises(SerializationError):
            graph_from_json('{"format": "other"}')

    def test_unknown_operator_kind(self):
        doc = (
            '{"format": "orchid-ohm", "version": 1, "name": "x", '
            '"operators": [{"uid": "q", "kind": "QUANTUM", '
            '"properties": {}}], "edges": []}'
        )
        with pytest.raises(SerializationError):
            graph_from_json(doc)

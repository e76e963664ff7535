"""JSON serialization for OHM instances.

The paper's external layer covers ETL jobs and mappings; in a deployed
product the *abstract* layer also needs persistence (save an imported
OHM instance now, optimize and deploy it later, ship it between
services). This module round-trips OHM graphs through a JSON document:
operators by kind with their properties (expressions as SQL text),
edges with ports and names.

Lossy by nature, like every external format here: SOURCE data providers
and UNKNOWN executors are live Python callables and do not serialize —
an UNKNOWN comes back as the black box it always was.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.errors import SerializationError
from repro.expr.parser import parse
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import (
    Filter,
    Group,
    Join,
    Nest,
    Operator,
    Project,
    Source,
    Split,
    Target,
    Union,
    Unknown,
    Unnest,
)
from repro.ohm.subtypes import BasicProject, ColumnMerge, ColumnSplit, KeyGen
from repro.schema.model import Attribute, Relation

_FORMAT = "orchid-ohm"
_VERSION = 1


def _relation_to_json(rel: Relation) -> dict:
    return {
        "name": rel.name,
        "columns": [
            {
                "name": a.name,
                "type": getattr(a.dtype, "name", repr(a.dtype)),
                "nullable": a.nullable,
                "key": a.is_key,
            }
            for a in rel
        ],
    }


def _relation_from_json(doc: dict) -> Relation:
    return Relation(
        doc["name"],
        [
            Attribute(
                c["name"], c["type"],
                nullable=c.get("nullable", True),
                is_key=c.get("key", False),
            )
            for c in doc["columns"]
        ],
    )


def _operator_properties(op: Operator) -> dict:
    if isinstance(op, Source):
        return {"relation": _relation_to_json(op.relation)}
    if isinstance(op, Target):
        return {"relation": _relation_to_json(op.relation)}
    if isinstance(op, Filter):
        return {"condition": op.condition.to_sql()}
    if isinstance(op, BasicProject):
        return {"columns": [list(c) for c in op.columns]}
    if isinstance(op, KeyGen):
        return {
            "key_column": op.key_column,
            "sequence": op.sequence,
            "start": op.start,
        }
    if isinstance(op, ColumnSplit):
        return {
            "source": op.source,
            "targets": op.targets,
            "delimiter": op.delimiter,
            "passthrough": op.passthrough,
        }
    if isinstance(op, ColumnMerge):
        return {
            "sources": op.sources,
            "target": op.target,
            "delimiter": op.delimiter,
            "passthrough": op.passthrough,
        }
    if isinstance(op, Project):
        return {
            "derivations": [[c, e.to_sql()] for c, e in op.derivations]
        }
    if isinstance(op, Join):
        return {"condition": op.condition.to_sql(), "kind": op.kind}
    if isinstance(op, Union):
        return {"distinct": op.distinct}
    if isinstance(op, Group):
        return {
            "keys": list(op.keys),
            "aggregates": [[c, a.to_sql()] for c, a in op.aggregates],
        }
    if isinstance(op, Split):
        return {}
    if isinstance(op, Nest):
        return {"keys": op.keys, "nested": op.nested, "into": op.into}
    if isinstance(op, Unnest):
        return {"attr": op.attr}
    if isinstance(op, Unknown):
        return {
            "output_schemas": [
                _relation_to_json(rel) for rel in op.output_schemas
            ],
            "reference": op.reference,
        }
    raise SerializationError(f"cannot serialize operator kind {op.KIND!r}")


_BUILDERS: Dict[str, Callable[[dict], Operator]] = {
    "SOURCE": lambda p: Source(_relation_from_json(p["relation"])),
    "TARGET": lambda p: Target(_relation_from_json(p["relation"])),
    "FILTER": lambda p: Filter(p["condition"]),
    "PROJECT": lambda p: Project([(c, e) for c, e in p["derivations"]]),
    "BASIC PROJECT": lambda p: BasicProject(
        [(o, s) for o, s in p["columns"]]
    ),
    "KEYGEN": lambda p: KeyGen(
        p["key_column"], sequence=p.get("sequence"), start=p.get("start", 1)
    ),
    "COLUMN SPLIT": lambda p: ColumnSplit(
        p["source"], p["targets"], p["delimiter"],
        passthrough=p.get("passthrough", ()),
    ),
    "COLUMN MERGE": lambda p: ColumnMerge(
        p["sources"], p["target"], p["delimiter"],
        passthrough=p.get("passthrough", ()),
    ),
    "JOIN": lambda p: Join(p["condition"], kind=p.get("kind", "inner")),
    "UNION": lambda p: Union(distinct=p.get("distinct", False)),
    "GROUP": lambda p: Group(
        p["keys"], [(c, parse(a)) for c, a in p.get("aggregates", [])]
    ),
    "SPLIT": lambda p: Split(),
    "NEST": lambda p: Nest(p["keys"], p["nested"], into=p["into"]),
    "UNNEST": lambda p: Unnest(p["attr"]),
    "UNKNOWN": lambda p: Unknown(
        [_relation_from_json(r) for r in p["output_schemas"]],
        reference=p["reference"],
    ),
}


def graph_to_json(graph: OhmGraph) -> str:
    """Serialize an OHM instance to a JSON document."""
    operators = []
    for op in graph.operators:
        operators.append(
            {
                "uid": op.uid,
                "kind": op.KIND,
                "label": op.label,
                "annotations": dict(op.annotations),
                "properties": _operator_properties(op),
            }
        )
    edges = [
        {
            "src": e.src,
            "srcPort": e.src_port,
            "dst": e.dst,
            "dstPort": e.dst_port,
            "name": e.name,
        }
        for e in graph.edges
    ]
    return json.dumps(
        {
            "format": _FORMAT,
            "version": _VERSION,
            "name": graph.name,
            "operators": operators,
            "edges": edges,
        },
        indent=2,
    )


def graph_from_json(text: str) -> OhmGraph:
    """Parse a JSON document back into an OHM instance."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed OHM document: {exc}") from exc
    if document.get("format") != _FORMAT:
        raise SerializationError(
            f"not an OHM document (format {document.get('format')!r})"
        )
    graph = OhmGraph(document.get("name", "ohm"))
    for entry in document.get("operators", []):
        builder = _BUILDERS.get(entry["kind"])
        if builder is None:
            raise SerializationError(
                f"unknown operator kind {entry['kind']!r}"
            )
        op = builder(entry.get("properties", {}))
        op.uid = entry["uid"]
        op.label = entry.get("label", op.KIND)
        op.annotations = dict(entry.get("annotations", {}))
        graph.add(op)
    for entry in document.get("edges", []):
        graph.connect(
            entry["src"], entry["dst"],
            src_port=entry.get("srcPort", 0),
            dst_port=entry.get("dstPort", 0),
            name=entry.get("name"),
        )
    return graph


def write_graph(graph: OhmGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph_to_json(graph))


def read_graph(path: str) -> OhmGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_json(handle.read())


__all__ = ["graph_to_json", "graph_from_json", "write_graph", "read_graph"]

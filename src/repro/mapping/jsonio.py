"""External format for mappings.

The paper's External layer exchanges mapping information with tools like
Clio and Rational Data Architect in product-specific formats; this module
is our exchange format — a JSON document carrying source/target schemas,
the ``for/where/group by/exists/with`` clauses, and annotations (including
the natural-language business rules FastTrack passes through).

Opaque mappings round-trip without their executable behaviour, matching
the black-box reality of custom operators.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import SerializationError
from repro.mapping.model import Mapping, MappingSet, SourceBinding
from repro.schema.model import Attribute, Relation

_FORMAT = "orchid-mappings"
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
                c["name"],
                c["type"],
                nullable=c.get("nullable", True),
                is_key=c.get("key", False),
            )
            for c in doc["columns"]
        ],
    )


def mapping_to_json(mapping: Mapping) -> dict:
    doc = {
        "name": mapping.name,
        "for": [
            {"var": b.var, "relation": _relation_to_json(b.relation)}
            for b in mapping.sources
        ],
        "exists": _relation_to_json(mapping.target),
        "annotations": dict(mapping.annotations),
    }
    if mapping.is_opaque:
        doc["opaque"] = {"reference": mapping.reference}
        return doc
    doc["where"] = mapping.where.to_sql()
    doc["group_by"] = [e.to_sql() for e in mapping.group_by]
    doc["with"] = [[col, expr.to_sql()] for col, expr in mapping.derivations]
    return doc


def mapping_from_json(doc: dict) -> Mapping:
    sources = [
        SourceBinding(entry["var"], _relation_from_json(entry["relation"]))
        for entry in doc["for"]
    ]
    target = _relation_from_json(doc["exists"])
    if "opaque" in doc:
        return Mapping(
            sources,
            target,
            name=doc.get("name"),
            reference=doc["opaque"]["reference"],
            annotations=doc.get("annotations"),
        )
    return Mapping(
        sources,
        target,
        derivations=[(col, expr) for col, expr in doc.get("with", [])],
        where=doc.get("where"),
        group_by=doc.get("group_by", []),
        name=doc.get("name"),
        annotations=doc.get("annotations"),
    )


def mappings_to_json(mappings: MappingSet) -> str:
    document = {
        "format": _FORMAT,
        "version": _VERSION,
        "mappings": [mapping_to_json(m) for m in mappings],
    }
    return json.dumps(document, indent=2)


def mappings_from_json(text: str) -> MappingSet:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed mapping document: {exc}") from exc
    if document.get("format") != _FORMAT:
        raise SerializationError(
            f"not a mapping document (format {document.get('format')!r})"
        )
    return MappingSet(
        mapping_from_json(doc) for doc in document.get("mappings", [])
    )


def write_mappings(mappings: MappingSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(mappings_to_json(mappings))


def read_mappings(path: str) -> MappingSet:
    with open(path, "r", encoding="utf-8") as handle:
        return mappings_from_json(handle.read())


__all__ = [
    "mapping_to_json",
    "mapping_from_json",
    "mappings_to_json",
    "mappings_from_json",
    "write_mappings",
    "read_mappings",
]

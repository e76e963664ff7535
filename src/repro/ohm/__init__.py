"""The Operator Hub Model (OHM) — paper section IV.

An OHM instance is a directed graph of abstract operators — "an extension
of relational algebra with extra operators and meta-data annotations" —
serving as the product-independent hub between ETL jobs and schema
mappings. This package provides the operator taxonomy, the dataflow graph
with schema-annotated edges, and a reference execution engine used to
verify semantics preservation.
"""

from repro.ohm.engine import OhmExecutor
from repro.ohm.graph import Edge, OhmGraph
from repro.ohm.jsonio import graph_from_json, graph_to_json, read_graph, write_graph
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
from repro.ohm.subtypes import (
    BasicProject,
    ColumnMerge,
    ColumnSplit,
    KeyGen,
    reset_keygen_sequences,
)

__all__ = [
    "OhmExecutor",
    "Edge",
    "OhmGraph",
    "graph_from_json",
    "graph_to_json",
    "read_graph",
    "write_graph",
    "Filter",
    "Group",
    "Join",
    "Nest",
    "Operator",
    "Project",
    "Source",
    "Split",
    "Target",
    "Union",
    "Unknown",
    "Unnest",
    "BasicProject",
    "ColumnMerge",
    "ColumnSplit",
    "KeyGen",
    "reset_keygen_sequences",
]

"""Dead-column elimination over OHM graphs.

A global, backward requirements analysis: starting from the TARGET
operators, compute for every edge which columns are actually consumed
downstream, then narrow PROJECT / BASIC PROJECT operators to exactly
those columns. This is the projection-pushdown counterpart of the
paper's selection-pushdown heuristic: derivations whose results nobody
reads are never computed, and less data flows along every edge.

The requirements are the graph's one liveness walk
(:meth:`repro.dataflow.DataflowGraph.live_columns`) over each operator's
``reads``, whose conservative rules keep the pass sound:

* GROUP requires all of its keys (dropping a key changes the grouping)
  and the arguments of all its aggregates,
* UNKNOWN requires every input column (its semantics are opaque),
* UNION requires the same columns on every input (union compatibility),
* only plain PROJECT/BASIC PROJECT operators are narrowed; refined
  subtypes with extra semantics (KEYGEN et al., ``prunable = False``)
  are left intact and read all their derivations.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.expr.ast import ColumnRef
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import Project
from repro.ohm.subtypes import BasicProject
from repro.rewrite.rules import Rule

EdgeKey = Tuple[str, int]  # (producer uid, out port)


def required_columns(graph: OhmGraph) -> Dict[EdgeKey, Set[str]]:
    """Columns needed on every edge: the graph's liveness walk over its
    propagated schemas, every column spelled out."""
    schemas = graph.propagate_schemas()
    return {
        (edge.src, edge.src_port): (
            set(schemas[edge].attribute_names) if cols is None else cols
        )
        for edge, cols in graph.live_columns(schemas.get).items()
    }


def prune_unused_columns(graph: OhmGraph) -> int:
    """Narrow plain PROJECT/BASIC PROJECT operators to the columns their
    consumers actually need. Returns the number of derivations dropped.
    The graph is re-propagated when anything changed."""
    needed = required_columns(graph)
    dropped = 0
    for op in graph.operators:
        if not (isinstance(op, Project) and op.prunable):
            continue
        out_edges = graph.out_edges(op.uid)
        if len(out_edges) != 1:
            continue
        keep = needed[(op.uid, out_edges[0].src_port)]
        kept_derivations = [
            (col, expr) for col, expr in op.derivations if col in keep
        ]
        if not kept_derivations:
            # keep at least one column: a relation must have arity ≥ 1
            kept_derivations = op.derivations[:1]
        removed = len(op.derivations) - len(kept_derivations)
        if removed == 0:
            continue
        dropped += removed
        op.derivations = kept_derivations
        if isinstance(op, BasicProject):
            op.columns = [
                (col, expr.name) for col, expr in kept_derivations
                if isinstance(expr, ColumnRef)
            ]
    if dropped:
        graph.propagate_schemas()
    return dropped


class PruneUnusedColumns(Rule):
    """Rule wrapper so the pass can participate in an optimizer run."""

    name = "prune-unused-columns"

    def apply_once(self, graph: OhmGraph) -> bool:
        return prune_unused_columns(graph) > 0


__all__ = ["required_columns", "prune_unused_columns", "PruneUnusedColumns"]

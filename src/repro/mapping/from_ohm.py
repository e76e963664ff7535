"""Deploying OHM instances as mappings (paper section V-B).

"Each operator node in the OHM instance is converted into a simple
mapping expression that relates the schema(s) in its input edge(s) to the
schema(s) in its output edge(s). Orchid then composes neighboring
mappings into larger mappings until no further composition is possible.
... A visited node in the graph which does not admit composition in this
way has at least one edge that serves as a materialization point."

Implementation: the traversal carries a *partial mapping* along every
edge — the composition of all operator mappings since the last
materialization point. Composition is ordinary view unfolding
(substitution of derivations); it stops where the paper says it must:

* SPLIT outputs ("a SPLIT represents a fork in the job that was placed
  there by an ETL programmer and as such is a natural place to break"),
* around UNKNOWN operators (their end-points are materialization points;
  the black box itself becomes an empty/opaque mapping),
* after duplicate-eliminating operators: "we cannot compose two mappings
  that involve grouping and aggregation" — once a partial mapping has
  absorbed a GROUP (or a duplicate-eliminating UNION), only pure
  column renaming may still compose; anything else materializes first.

Intermediate relations are named after the edge at the materialization
point (``DSLink10`` in the running example).

An opaque mapping built here for an operator the mapping language cannot
express (outer join, NEST, UNNEST) runs that operator on the OHM engine
and returns the engine's dataset, not row dicts: lowered back to OHM it
is an UNKNOWN whose output edge adopts the block as it stands.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow import Edge
from repro.errors import MappingError
from repro.expr.algebra import (
    conjoin, split_conjuncts, substitute, substitute_by_name,
)
from repro.expr.ast import AggregateCall, ColumnRef, Expr, TRUE
from repro.mapping.model import Mapping, MappingSet, SourceBinding
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
from repro.schema.model import Attribute, Relation


class PartialMapping:
    """The composed mapping accumulated along one OHM edge.

    :ivar sources: bindings over base or intermediate relations.
    :ivar where: conjuncts over the source variables.
    :ivar group_by: grouping expressions, once a GROUP was absorbed.
    :ivar derivations: current edge column → expression over the sources.
    :ivar grouped: True once a duplicate-eliminating operator was
        absorbed — the composition blocker flag.
    """

    def __init__(
        self,
        sources: List[SourceBinding],
        derivations: List[Tuple[str, Expr]],
        where: Optional[List[Expr]] = None,
        group_by: Optional[List[Expr]] = None,
        grouped: bool = False,
    ):
        self.sources = sources
        self.derivations = derivations
        self.where = list(where or [])
        self.group_by = list(group_by or [])
        self.grouped = grouped

    @classmethod
    def over_relation(cls, relation: Relation, var: str) -> "PartialMapping":
        """The identity partial over one relation."""
        return cls(
            [SourceBinding(var, relation)],
            [(a.name, ColumnRef(a.name, qualifier=var)) for a in relation],
        )

    def derivation_map(self) -> Dict[str, Expr]:
        return dict(self.derivations)

    def substitute_into(self, expr: Expr) -> Expr:
        """Unfold this partial's derivations into an expression written
        against the edge's columns: a reference to a derived column,
        unqualified or qualified (by the edge's name), becomes its
        derivation."""
        return substitute_by_name(expr, self.derivation_map())

    def renamed_only(self, columns: List[Tuple[str, str]]) -> "PartialMapping":
        """Compose a pure renaming (BASIC PROJECT) — legal even after
        grouping."""
        derivation_map = self.derivation_map()
        new_derivations = []
        for out_name, src_name in columns:
            if src_name not in derivation_map:
                raise MappingError(
                    f"rename source column {src_name!r} is not derived"
                )
            new_derivations.append((out_name, derivation_map[src_name]))
        return PartialMapping(
            self.sources, new_derivations, self.where, self.group_by, self.grouped
        )


def _operator_executor(op: Operator, in_edge_names: List[str], out_index: int):
    """Executable behaviour for an opaque mapping standing in for an OHM
    operator the mapping language cannot express (outer joins, NEST,
    UNNEST): delegate to the OHM engine's reference semantics. Inputs are
    renamed to the edge names the operator's expressions refer to. The
    output is handed back as the engine's :class:`Dataset`, so the
    UNKNOWN it runs as adopts its block and the edge stays columnar."""

    def run(inputs):
        from repro.exec import ExpressionPlanner
        from repro.ohm.engine import operator_outputs

        renamed = [
            dataset.renamed(name)
            for dataset, name in zip(inputs, in_edge_names)
        ]
        input_relations = [d.relation for d in renamed]
        out_names = [
            f"{op.uid}~out{i}"
            for i in range(max(out_index + 1, op.min_outputs))
        ]
        out_relations = op.output_relations(input_relations, out_names)
        outputs = operator_outputs(
            op, renamed, out_relations, None, ExpressionPlanner()
        )
        return outputs[out_index]

    return run


class _Extractor:
    """One OHM→mappings run."""

    def __init__(self, graph: OhmGraph):
        self.graph = graph
        self.mappings = MappingSet()
        self.var_counter: Dict[str, int] = {}
        self.mapping_counter = itertools.count(1)

    # -- helpers ---------------------------------------------------------------

    def fresh_var(self, relation_name: str) -> str:
        base = relation_name[0].lower() if relation_name else "v"
        count = self.var_counter.get(base, 0)
        self.var_counter[base] = count + 1
        return base if count == 0 else f"{base}{count}"

    def fresh_mapping_name(self) -> str:
        return f"M{next(self.mapping_counter)}"

    def materialize(self, partial: PartialMapping, edge: Edge) -> PartialMapping:
        """Emit the composed mapping into the intermediate relation named
        after ``edge`` and restart composition from that relation."""
        intermediate = edge.schema
        if self._is_identity_over_source(partial, intermediate):
            # nothing composed yet: the edge carries a base relation as-is,
            # no mapping needs to be emitted
            return partial
        mapping = Mapping(
            partial.sources,
            intermediate,
            partial.derivations,
            where=conjoin(partial.where),
            group_by=partial.group_by,
            name=self.fresh_mapping_name(),
        )
        self.mappings.add(mapping)
        return PartialMapping.over_relation(
            intermediate, self.fresh_var(intermediate.name)
        )

    @staticmethod
    def _is_identity_over_source(
        partial: PartialMapping, edge_relation: Relation
    ) -> bool:
        if len(partial.sources) != 1 or partial.where or partial.grouped:
            return False
        binding = partial.sources[0]
        if binding.relation.attribute_names != edge_relation.attribute_names:
            return False
        return all(
            isinstance(expr, ColumnRef)
            and expr.qualifier == binding.var
            and expr.name == col
            for col, expr in partial.derivations
        )

    # -- the traversal ------------------------------------------------------------

    def run(self) -> MappingSet:
        self.graph.propagate_schemas()
        partials: Dict[Tuple[str, int], PartialMapping] = {}
        for op in self.graph.topological_order():
            in_edges = self.graph.in_edges(op.uid)
            inputs = [
                (edge, partials[(edge.src, edge.src_port)]) for edge in in_edges
            ]
            out_edges = self.graph.out_edges(op.uid)
            outputs = self.visit(op, inputs, out_edges)
            for edge, partial in zip(out_edges, outputs):
                partials[(edge.src, edge.src_port)] = partial
        return self.mappings

    def visit(
        self,
        op: Operator,
        inputs: List[Tuple[Edge, PartialMapping]],
        out_edges: List[Edge],
    ) -> List[PartialMapping]:
        if isinstance(op, Source):
            return [
                PartialMapping.over_relation(
                    op.relation, self.fresh_var(op.relation.name)
                )
                for _ in out_edges
            ]
        if isinstance(op, Target):
            ((edge, partial),) = inputs
            self.emit_target(op, edge, partial)
            return []
        if isinstance(op, Filter):
            return [self.visit_filter(op, *inputs[0])]
        if isinstance(op, Project):
            return [self.visit_project(op, *inputs[0])]
        if isinstance(op, Join):
            return [self.visit_join(op, inputs)]
        if isinstance(op, Group):
            return [self.visit_group(op, *inputs[0])]
        if isinstance(op, Split):
            (edge, partial), = inputs
            materialized = self.materialize(partial, edge)
            # each output continues from the intermediate (or base) relation,
            # with its own variable
            return [
                PartialMapping.over_relation(
                    materialized.sources[0].relation,
                    self.fresh_var(materialized.sources[0].relation.name),
                )
                for _ in out_edges
            ]
        if isinstance(op, Union):
            return [self.visit_union(op, inputs, out_edges[0])]
        if isinstance(op, (Unknown, Nest, Unnest)):
            return self.visit_opaque(op, inputs, out_edges)
        raise MappingError(f"cannot extract mappings across {op.KIND} {op.uid}")

    # -- per-operator composition ---------------------------------------------------

    def visit_filter(
        self, op: Filter, edge: Edge, partial: PartialMapping
    ) -> PartialMapping:
        if partial.grouped:
            partial = self.materialize(partial, edge)
        condition = partial.substitute_into(op.condition)
        return PartialMapping(
            partial.sources,
            partial.derivations,
            partial.where + split_conjuncts(condition),
            partial.group_by,
            partial.grouped,
        )

    def visit_project(
        self, op: Project, edge: Edge, partial: PartialMapping
    ) -> PartialMapping:
        is_rename = all(
            isinstance(expr, ColumnRef) and expr.qualifier in (None, edge.name)
            for _c, expr in op.derivations
        )
        if partial.grouped and not is_rename:
            partial = self.materialize(partial, edge)
        if partial.grouped and is_rename:
            return partial.renamed_only(
                [(c, expr.name) for c, expr in op.derivations]
            )
        new_derivations = [
            (col, partial.substitute_into(expr))
            for col, expr in op.derivations
        ]
        return PartialMapping(
            partial.sources,
            new_derivations,
            partial.where,
            partial.group_by,
            partial.grouped,
        )

    def visit_join(
        self, op: Join, inputs: List[Tuple[Edge, PartialMapping]]
    ) -> PartialMapping:
        if op.kind != "inner":
            # outer joins assert unmatched tuples too — not expressible as
            # a single s-t tgd; materialize both inputs and keep the join
            # itself as an opaque mapping
            return self._join_as_opaque(op, inputs)
        (left_edge, left), (right_edge, right) = inputs
        if left.grouped:
            left = self.materialize(left, left_edge)
        if right.grouped:
            right = self.materialize(right, right_edge)
        used = {b.var for b in left.sources}
        collisions = [b for b in right.sources if b.var in used]
        if collisions:
            raise MappingError(
                f"join {op.uid}: variable collision {collisions}"
            )
        # the join output's columns: dotted names for collisions
        out_derivations: List[Tuple[str, Expr]] = []
        left_cols = {c for c, _e in left.derivations}
        right_cols = {c for c, _e in right.derivations}
        shared = left_cols & right_cols
        for side, edge in ((left, left_edge), (right, right_edge)):
            for col, expr in side.derivations:
                name = f"{edge.name}.{col}" if col in shared else col
                out_derivations.append((name, expr))
        condition = op.condition
        replacements: Dict[ColumnRef, Expr] = {}
        for side, edge in ((left, left_edge), (right, right_edge)):
            for col, expr in side.derivations:
                replacements[ColumnRef(col, qualifier=edge.name)] = expr
                if col not in shared:
                    replacements.setdefault(ColumnRef(col), expr)
        condition = substitute(condition, replacements)
        return PartialMapping(
            left.sources + right.sources,
            out_derivations,
            left.where + right.where + split_conjuncts(condition),
            [],
            False,
        )

    def _join_as_opaque(
        self, op: Join, inputs: List[Tuple[Edge, PartialMapping]]
    ) -> PartialMapping:
        materialized = []
        for edge, partial in inputs:
            refreshed = self.materialize(partial, edge)
            # when nothing was composed yet the edge carries a base
            # relation as-is; the opaque mapping reads that base directly
            materialized.append(refreshed.sources[0].relation)
        out_edge = self.graph.out_edges(op.uid)[0]
        in_edge_names = [edge.name for edge, _p in inputs]
        mapping = Mapping(
            [
                SourceBinding(self.fresh_var(rel.name), rel)
                for rel in materialized
            ],
            out_edge.schema,
            reference=f"{op.kind} {op.KIND} {op.label}",
            executor=_operator_executor(op, in_edge_names, 0),
            name=self.fresh_mapping_name(),
        )
        self.mappings.add(mapping)
        return PartialMapping.over_relation(
            out_edge.schema, self.fresh_var(out_edge.schema.name)
        )

    def visit_group(
        self, op: Group, edge: Edge, partial: PartialMapping
    ) -> PartialMapping:
        if partial.grouped:
            partial = self.materialize(partial, edge)
        derivation_map = partial.derivation_map()
        group_by = []
        new_derivations: List[Tuple[str, Expr]] = []
        for key in op.keys:
            if key not in derivation_map:
                raise MappingError(f"GROUP key {key!r} is not derived")
            group_by.append(derivation_map[key])
            new_derivations.append((key, derivation_map[key]))
        for out_col, agg in op.aggregates:
            folded = partial.substitute_into(agg)
            new_derivations.append((out_col, folded))
        return PartialMapping(
            partial.sources,
            new_derivations,
            partial.where,
            group_by,
            grouped=True,
        )

    def visit_union(
        self,
        op: Union,
        inputs: List[Tuple[Edge, PartialMapping]],
        out_edge: Edge,
    ) -> PartialMapping:
        """UNION: every input materializes into the output edge's
        relation — several mappings share one target, the exact shape the
        reverse direction (section VI-A) reassembles with a UNION
        operator. Distinct unions additionally group the result."""
        out_relation = out_edge.schema
        for edge, partial in inputs:
            ordered = [
                (a.name, partial.derivation_map()[a.name]) for a in out_relation
            ]
            mapping = Mapping(
                partial.sources,
                out_relation,
                ordered,
                where=conjoin(partial.where),
                group_by=partial.group_by,
                name=self.fresh_mapping_name(),
            )
            self.mappings.add(mapping)
        fresh = PartialMapping.over_relation(
            out_relation, self.fresh_var(out_relation.name)
        )
        if op.distinct:
            fresh.group_by = [expr for _c, expr in fresh.derivations]
            fresh.grouped = True
        return fresh

    def visit_opaque(
        self,
        op: Operator,
        inputs: List[Tuple[Edge, PartialMapping]],
        out_edges: List[Edge],
    ) -> List[PartialMapping]:
        """UNKNOWN (and the NF² operators outside the flat mapping
        fragment): materialize every input, emit an empty mapping
        recording the black box, continue from each output."""
        in_relations = []
        for edge, partial in inputs:
            refreshed = self.materialize(partial, edge)
            in_relations.append(refreshed.sources[0].relation)
        reference = getattr(op, "reference", op.KIND)
        raw_executor = getattr(op, "executor", None)
        in_edge_names = [edge.name for edge, _p in inputs]
        for index, out_edge in enumerate(out_edges):
            if raw_executor is not None:
                # the operator executor yields one row-list per output;
                # each opaque mapping carries its own output's slice
                def executor(inputs, _fn=raw_executor, _i=index):
                    return _fn(inputs)[_i]

            elif isinstance(op, (Nest, Unnest)):
                # NF² operators have reference semantics in the engine
                executor = _operator_executor(op, in_edge_names, index)
            else:
                executor = None

            mapping = Mapping(
                [
                    SourceBinding(self.fresh_var(rel.name), rel)
                    for rel in in_relations
                ],
                out_edge.schema,
                reference=reference,
                executor=executor,
                name=self.fresh_mapping_name(),
                annotations=dict(op.annotations),
            )
            self.mappings.add(mapping)
        return [
            PartialMapping.over_relation(
                out_edge.schema, self.fresh_var(out_edge.schema.name)
            )
            for out_edge in out_edges
        ]

    def emit_target(
        self, op: Target, edge: Edge, partial: PartialMapping
    ) -> None:
        derivation_map = partial.derivation_map()
        ordered = []
        for attr in op.relation:
            if attr.name in derivation_map:
                ordered.append((attr.name, derivation_map[attr.name]))
        mapping = Mapping(
            partial.sources,
            op.relation,
            ordered,
            where=conjoin(partial.where),
            group_by=partial.group_by,
            name=self.fresh_mapping_name(),
            annotations=dict(op.annotations),
        )
        self.mappings.add(mapping)


def ohm_to_mappings(graph: OhmGraph) -> MappingSet:
    """Convert an OHM instance into the set of composed mappings —
    Figures 7/8 for the running example."""
    return _Extractor(graph).run()


__all__ = ["PartialMapping", "ohm_to_mappings"]

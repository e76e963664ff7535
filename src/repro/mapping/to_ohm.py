"""Compiling mappings into OHM instances (paper section VI-A).

"To compile each individual mapping into a graph of OHM operators,
Orchid creates a skeleton OHM graph from the template shown in Figure 9.
This template captures the transformation semantics expressible in many
relational schema mapping systems. Orchid then identifies the operators
in this template graph that are actually required ... The unnecessary
operators are removed from the template graph instance."

The Figure 9 template, per mapping::

    for each source:  [FILTER] -> [PROJECT]      (single-source predicates,
                                                   single-source derivations)
    then:             [JOIN]* (left-deep)         (multi-source conjuncts)
                      [PROJECT / BASIC PROJECT]   (assemble target columns)
                      [GROUP]                     (grouping + aggregates)

Instead of literally instantiating every template operator and deleting
the unused ones, each template slot is *emitted only when required* —
the same pruning, expressed constructively. A separate assembly step
wires the per-mapping graphs together: "the output of M1 flows into both
M2 and M3, and thus Orchid creates a SPLIT operator ... If two or more
mappings share a common target relation Orchid creates a UNION operator."

The lowering is a function of its input: operator uids and edge names
are derived from the mapping (``M1.filter1``, ``M1.join4``, one serial
per mapping) or the relation (``Customers.source``, ``T.union``) they
stand for, never from a process-wide counter. The mapping runtime lowers
on every run (:mod:`repro.mapping.executor`), so these names are what a
run's ``ohm.operator.<uid>.*`` metrics, reject rows' ``stage`` and a
cancelled run's committed frontier show.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.expr.algebra import conjoin, transform
from repro.expr.ast import AggregateCall, ColumnRef, Expr, NULL_LITERAL, TRUE
from repro.mapping.model import Mapping, MappingSet, SourceBinding
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import (
    Filter,
    Group,
    Join,
    Operator,
    Project,
    Source,
    Split,
    Target,
    Union,
    Unknown,
)
from repro.ohm.subtypes import BasicProject

#: (operator, port) attachment point
Port = Tuple[Operator, int]


class _SourcePipeline:
    """The per-source prefix of the template: [FILTER] → [PROJECT]."""

    def __init__(self, binding: SourceBinding):
        self.binding = binding
        #: source column name → column name after the per-source project
        self.column_names: Dict[str, str] = {}
        #: target column computed here → its column name after the project
        self.target_columns: Dict[str, str] = {}
        self.entry: Optional[Port] = None
        self.exit: Optional[Port] = None


class _MappingCompiler:
    """Compiles one mapping into operators inside a shared graph,
    returning its entry ports (one per source binding) and its single
    output port."""

    def __init__(self, mapping: Mapping, graph: OhmGraph):
        self.mapping = _qualified(mapping)
        self.graph = graph
        self._serial = itertools.count(1)

    def _name(self, hint: str) -> str:
        """The next operator uid / edge name of this mapping."""
        return f"{self.mapping.name}.{hint}{next(self._serial)}"

    def _add(self, kind, *args, **kwargs) -> Operator:
        """Add a ``kind`` operator named and labelled after the mapping."""
        kwargs.setdefault("label", self.mapping.name)
        uid = self._name(kind.KIND.lower().replace(" ", "_"))
        return self.graph.add(kind(*args, uid=uid, **kwargs))

    def compile(self) -> Tuple[List[Port], Port]:
        mapping = self.mapping
        if mapping.is_opaque:
            return self._compile_opaque()
        self._plan_raw_renames()
        pipelines = [
            self._compile_source(binding) for binding in mapping.sources
        ]
        out_port = self._compile_projection_and_group(
            *self._compile_joins(pipelines)
        )
        if pipelines[0].entry is None:
            # a single-source mapping with no filter: the assembled
            # projection is the whole pipeline
            pipelines[0].entry = self._entry_port
        entries = [p.entry for p in pipelines]
        if mapping.annotations:
            # "business rules entered in English are passed as annotations
            # to the appropriate ETL stage" — carry them on every operator
            # this mapping produced, so deployment lands them on stages
            for op in self.graph.operators:
                if op.label == mapping.name:
                    for key, value in mapping.annotations.items():
                        op.annotations.setdefault(key, value)
        return entries, out_port

    # -- template slots -------------------------------------------------------------

    def _plan_raw_renames(self) -> None:
        """When the mapping requires a join it does not state (the
        FastTrack incomplete-mapping case), every source column survives
        the per-source projections — so cross-source name collisions are
        disambiguated *up front* (``<var>_<column>``). The placeholder
        Join stage then has no colliding inputs, which keeps the
        skeleton's downstream column references stable while the
        programmer fills the predicate in."""
        #: (var, source column) → disambiguated name
        self._raw_renames: Dict[Tuple[str, str], str] = {}
        mapping = self.mapping
        if len(mapping.sources) < 2:
            return
        join_conjuncts = mapping.join_conjuncts()
        has_placeholder = any(
            not any(b.var in mapping._vars_of(c) for c in join_conjuncts)
            for b in mapping.sources
        )
        if not has_placeholder:
            return
        owner: Dict[str, str] = {}
        for binding in mapping.sources:
            for col in binding.relation.attribute_names:
                if col in owner:
                    self._raw_renames[(binding.var, col)] = (
                        f"{binding.var}_{col}"
                    )
                else:
                    owner[col] = binding.var

    def _needed_raw_columns(self, var: str) -> List[str]:
        """Raw source columns of ``var`` that must survive the per-source
        project: join-conjunct references, aggregate arguments, and
        multi-variable derivation references. When the mapping requires a
        join but states no predicate for this source (the FastTrack
        incomplete-mapping case), every column survives — the ETL
        programmer needs them all to write the missing predicate."""
        mapping = self.mapping
        needed: List[str] = []

        def note(expr: Expr) -> None:
            for ref in expr.column_refs():
                if ref.qualifier == var and ref.name not in needed:
                    needed.append(ref.name)

        join_conjuncts = mapping.join_conjuncts()
        if len(mapping.sources) > 1 and not any(
            var in mapping._vars_of(c) for c in join_conjuncts
        ):
            binding = mapping.binding(var)
            return list(binding.relation.attribute_names)
        for conjunct in join_conjuncts:
            note(conjunct)
        single_var = {col for col, _e in mapping.derivations_of(var)}
        for col, expr in mapping.derivations:
            if expr.contains_aggregate():
                for node in expr.walk():
                    if isinstance(node, AggregateCall) and node.arg is not None:
                        note(node.arg)
            elif col not in single_var:
                note(expr)  # multi-variable derivation
        return needed

    def _compile_source(self, binding: SourceBinding) -> _SourcePipeline:
        mapping = self.mapping
        var = binding.var
        pipeline = _SourcePipeline(binding)
        last: Optional[Port] = None

        def connect(kind, *args) -> None:
            nonlocal last
            op = self._add(kind, *args)
            if last is None:
                pipeline.entry = (op, 0)
            else:
                self.graph.connect(
                    last[0], op, src_port=last[1], name=self._name(var)
                )
            last = (op, 0)

        filters = mapping.filter_conjuncts_of(var)
        if filters:
            connect(Filter, _unqualify(conjoin(filters), var))

        if len(mapping.sources) == 1:
            # single-source mapping: the template's single projection is
            # the post-"join" assembly projection (Figure 9 pruned to
            # FILTER → BASIC PROJECT for M2); no per-source project
            pipeline.exit = last
            for attr in binding.relation:
                pipeline.column_names[attr.name] = attr.name
            return pipeline

        derived = mapping.derivations_of(var)
        raw = self._needed_raw_columns(var)
        derived_names = {col for col, _e in derived}
        derivations: List[Tuple[str, Expr]] = [
            (col, _unqualify(expr, var)) for col, expr in derived
        ]
        for source_col in raw:
            out_name = self._raw_renames.get((var, source_col), source_col)
            if out_name in derived_names:
                # a derivation already claimed the name for a different
                # expression; keep the raw copy under a distinct name
                derivation_expr = dict(derived)[out_name]
                if derivation_expr == ColumnRef(source_col, qualifier=var):
                    pipeline.column_names[source_col] = out_name
                    continue
                out_name = f"{var}_{source_col}"
            derivations.append((out_name, ColumnRef(source_col)))
            pipeline.column_names[source_col] = out_name
        for col, expr in derived:
            if isinstance(expr, ColumnRef) and expr.qualifier == var:
                pipeline.column_names.setdefault(expr.name, col)
        pipeline.target_columns = {col: col for col, _e in derived}
        if derivations:
            connect(*_projection(derivations))
        if last is None:
            # bare identity pipeline: no filter, no projection — wire the
            # source straight through an identity BASIC PROJECT so the
            # pipeline has a handle (the cleanup rewrite removes it)
            connect(
                BasicProject, [(a.name, a.name) for a in binding.relation]
            )
            for attr in binding.relation:
                pipeline.column_names.setdefault(attr.name, attr.name)
        pipeline.exit = last
        return pipeline

    def _compile_joins(
        self, pipelines: List[_SourcePipeline]
    ) -> Tuple[Port, str, Dict[Tuple[str, str], str], Dict[str, str]]:
        """Left-deep join tree. Returns the output port, the name of the
        edge leaving it, the mapping from
        (var, source column) to the column name in the joined stream
        (dotted names where branches collided), and the analogous mapping
        for target columns computed by the per-source projections."""
        mapping = self.mapping
        column_of: Dict[Tuple[str, str], str] = {}
        target_of: Dict[str, str] = {}
        first = pipelines[0]
        first_edge = self._name(first.binding.var)
        for source_col, name in first.column_names.items():
            column_of[(first.binding.var, source_col)] = name
        target_of.update(first.target_columns)
        current: Port = first.exit
        current_edge_name = first_edge
        current_columns = set(first.column_names.values()) | set(
            first.target_columns.values()
        )
        remaining_conjuncts = list(mapping.join_conjuncts())
        joined_vars = {first.binding.var}
        for pipeline in pipelines[1:]:
            var = pipeline.binding.var
            right_edge = self._name(var)
            usable = [
                c
                for c in remaining_conjuncts
                if mapping._vars_of(c) <= joined_vars | {var}
            ]
            for c in usable:
                remaining_conjuncts.remove(c)
            condition = self._rewrite_conjuncts(
                usable, column_of, pipeline, current_edge_name, right_edge
            )
            join = self._add(Join, condition)
            if not usable:
                # FastTrack behaviour: "an analyst might not know how to
                # join two or more input tables, but FastTrack ... detects
                # that the mapping requires a join and creates an empty
                # join operation (no join predicate is created)"
                join.annotations["placeholder"] = (
                    "join predicate not yet specified"
                )
            self.graph.connect(
                current[0], join, src_port=current[1], dst_port=0,
                name=current_edge_name,
            )
            self.graph.connect(
                pipeline.exit[0], join, src_port=pipeline.exit[1], dst_port=1,
                name=right_edge,
            )
            # collision handling mirrors Join.joined_attributes
            right_columns = set(pipeline.column_names.values()) | set(
                pipeline.target_columns.values()
            )
            shared = current_columns & right_columns
            for key, name in list(column_of.items()):
                if name in shared:
                    column_of[key] = f"{current_edge_name}.{name}"
            for col, name in list(target_of.items()):
                if name in shared:
                    target_of[col] = f"{current_edge_name}.{name}"
            for source_col, name in pipeline.column_names.items():
                column_of[(var, source_col)] = (
                    f"{right_edge}.{name}" if name in shared else name
                )
            for col, name in pipeline.target_columns.items():
                target_of[col] = (
                    f"{right_edge}.{name}" if name in shared else name
                )
            current_columns = (
                {c for c in current_columns if c not in shared}
                | {c for c in right_columns if c not in shared}
                | {f"{current_edge_name}.{c}" for c in shared}
                | {f"{right_edge}.{c}" for c in shared}
            )
            current = (join, 0)
            current_edge_name = self._name("joined")
            joined_vars.add(var)
        if remaining_conjuncts:
            condition = self._rewrite_refs(
                conjoin(remaining_conjuncts), column_of
            )
            filter_op = self._add(Filter, condition)
            self.graph.connect(
                current[0], filter_op, src_port=current[1], name=current_edge_name
            )
            current = (filter_op, 0)
            current_edge_name = self._name("where")
        return current, current_edge_name, column_of, target_of

    def _rewrite_conjuncts(
        self, conjuncts, column_of, right_pipeline, left_edge, right_edge
    ) -> Expr:
        if not conjuncts:
            return TRUE
        var = right_pipeline.binding.var

        def rewrite(node: Expr) -> Optional[Expr]:
            if not isinstance(node, ColumnRef) or node.qualifier is None:
                return None
            if node.qualifier == var:
                name = right_pipeline.column_names.get(node.name)
            else:
                name = column_of.get((node.qualifier, node.name))
            if name is None:
                raise MappingError(
                    f"{self.mapping.name}: join condition references "
                    f"{node.to_sql()}, not kept by the source project"
                )
            edge = right_edge if node.qualifier == var else left_edge
            return ColumnRef(name, qualifier=edge)

        return transform(conjoin(conjuncts), rewrite)

    def _rewrite_refs(self, expr: Expr, column_of) -> Expr:
        mapping = self.mapping

        def rewrite(node: Expr) -> Optional[Expr]:
            if isinstance(node, ColumnRef) and node.qualifier is not None:
                name = column_of.get((node.qualifier, node.name))
                if name is None:
                    raise MappingError(
                        f"{mapping.name}: reference {node.to_sql()} was not "
                        "kept by the per-source projections"
                    )
                return ColumnRef(name)
            return None

        return transform(expr, rewrite)

    def _compile_projection_and_group(
        self, current: Port, edge: str, column_of, target_of
    ) -> Port:
        """The post-join PROJECT assembling the target columns — NULL
        for every target column no derivation names — and, when the
        mapping aggregates, the GROUP, followed by a second PROJECT only
        when the GROUP's output is not yet the target's: a scalar
        expression over aggregates, an underived target column, or a
        group-by expression no derivation carries."""
        mapping = self.mapping

        def scalar(col: str, expr: Expr) -> Expr:
            if col in target_of:  # computed by a per-source projection
                return ColumnRef(target_of[col])
            return self._rewrite_refs(expr, column_of)

        unfilled = [
            (attr.name, NULL_LITERAL)
            for attr in mapping.target
            if attr.name not in dict(mapping.derivations)
        ]
        if not mapping.is_grouping:
            assembled = [
                (col, scalar(col, expr)) for col, expr in mapping.derivations
            ]
            return self._project(current, edge, assembled + unfilled)

        # a mapping whose aggregates are all FIRST/LAST is a
        # duplicate-removal: name the pre-projected columns after the
        # target columns so the GROUP is a pure passthrough dedup (the
        # shape the RemoveDuplicates runtime operator implements)
        dedup_style = all(
            isinstance(expr, AggregateCall)
            and expr.func in ("FIRST", "LAST")
            and expr.arg is not None
            for _c, expr in mapping.derivations
            if expr.contains_aggregate()
        )
        #: the GROUP emits its keys under their input names, so the
        #: scalar derivations own theirs in the assembling PROJECT
        keyed = {
            col: scalar(col, expr)
            for col, expr in mapping.derivations
            if not expr.contains_aggregate()
        }
        assembled: Dict[str, Expr] = {}

        def column(name: str, expr: Expr) -> str:
            """The assembled column carrying ``expr``, named ``name``
            unless another expression holds that name."""
            while keyed.get(name, assembled.get(name, expr)) != expr:
                name = f"_{name}"
            assembled[name] = expr
            return name

        aggregates: List[Tuple[str, AggregateCall]] = []

        def aggregate(name: str, call: AggregateCall) -> None:
            arg = None
            if call.arg is not None:
                arg_expr = self._rewrite_refs(call.arg, column_of)
                if dedup_style:
                    hint = name
                elif isinstance(arg_expr, ColumnRef):
                    hint = arg_expr.name
                else:
                    hint = f"__agg_{name}"
                arg = ColumnRef(column(hint, arg_expr))
            aggregates.append((name, AggregateCall(call.func, arg, call.distinct)))

        #: group-by expression → the GROUP key column carrying it
        key_of: Dict[tuple, str] = {}
        #: aggregate inside a scalar expression → its generated column
        generated: Dict[tuple, str] = {}

        def over_group(node: Expr) -> Expr:
            """``node`` over the GROUP's output columns."""
            if isinstance(node, AggregateCall):
                return ColumnRef(generated[node.key()])
            if node.key() in key_of:
                return ColumnRef(key_of[node.key()])
            if isinstance(node, ColumnRef):
                raise MappingError(
                    f"{mapping.name}: {node.to_sql()} is neither grouped "
                    "nor aggregated"
                )
            children = node.children()
            if not children:
                return node
            return node.replace_children([over_group(c) for c in children])

        keys: List[str] = []
        mixed = set()  # columns derived by a scalar over aggregates
        for col, expr in mapping.derivations:
            if col in keyed:
                keys.append(column(col, keyed[col]))
                key_of.setdefault(expr.key(), col)
            elif isinstance(expr, AggregateCall):
                aggregate(col, expr)
            else:
                mixed.add(col)
                for node in expr.walk():
                    if isinstance(node, AggregateCall) and (
                        node.key() not in generated
                    ):
                        generated[node.key()] = f"__agg{len(generated) + 1}"
                        aggregate(generated[node.key()], node)
        for i, expr in enumerate(mapping.group_by, 1):
            if expr.key() not in key_of:
                key_of[expr.key()] = column(
                    f"__key{i}", self._rewrite_refs(expr, column_of)
                )
                keys.append(key_of[expr.key()])
        final = [
            (col, over_group(expr) if col in mixed else ColumnRef(col))
            for col, expr in mapping.derivations
        ] + unfilled
        current = self._project(current, edge, list(assembled.items()))
        group = self._add(Group, keys, aggregates)
        self.graph.connect(current[0], group, name=self._name("pregroup"))
        if len(final) == len(keys) + len(aggregates) and all(
            expr == ColumnRef(col) for col, expr in final
        ):
            return (group, 0)  # the GROUP's output is the target's
        return self._project((group, 0), self._name("grouped"), final)

    def _project(self, current: Optional[Port], edge: str, derivations) -> Port:
        """A PROJECT of ``derivations`` fed from ``current`` along
        ``edge`` (the mapping's entry when nothing precedes it)."""
        project = self._add(*_projection(derivations))
        if current is None:
            self._entry_port = (project, 0)
        else:
            self.graph.connect(
                current[0], project, src_port=current[1], name=edge
            )
        return (project, 0)

    def _compile_opaque(self) -> Tuple[List[Port], Port]:
        mapping = self.mapping
        executor = None
        if mapping.executor is not None:
            # a mapping executor yields a single row-list; the UNKNOWN
            # operator contract wants one row-list per output
            def executor(inputs, _fn=mapping.executor):
                return [_fn(inputs)]

        op = self._add(
            Unknown,
            [mapping.target],
            reference=mapping.reference,
            executor=executor,
            annotations=dict(mapping.annotations),
        )
        return [(op, i) for i in range(len(mapping.sources))], (op, 0)


def _qualified(mapping: Mapping) -> Mapping:
    """``mapping`` with every unqualified column reference qualified by
    the one source variable whose relation holds the column — the
    template places a conjunct or derivation by the variables it names.
    (An ambiguous column is reported by ``Mapping._vars_of``.)"""

    def qualify(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef) and node.qualifier is None:
            holders = [
                b.var for b in mapping.sources
                if b.relation.has_attribute(node.name)
            ]
            if len(holders) == 1:
                return node.with_qualifier(holders[0])
        return None

    return Mapping(
        mapping.sources,
        mapping.target,
        [(col, transform(e, qualify)) for col, e in mapping.derivations],
        where=transform(mapping.where, qualify),
        group_by=[transform(e, qualify) for e in mapping.group_by],
        name=mapping.name,
        reference=mapping.reference,
        executor=mapping.executor,
        annotations=mapping.annotations,
    )


def _unqualify(expr: Expr, var: str) -> Expr:
    def rewrite(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef) and node.qualifier == var:
            return node.unqualified()
        return None

    return transform(expr, rewrite)


def _projection(derivations: Sequence[Tuple[str, Expr]]):
    """``(operator class, its argument)`` for a projection: BASIC
    PROJECT when it only renames and drops columns."""
    if all(isinstance(e, ColumnRef) and e.qualifier is None for _c, e in derivations):
        return BasicProject, [(c, e.name) for c, e in derivations]
    return Project, list(derivations)


def mappings_to_ohm(
    mappings: MappingSet,
    name: str = "from-mappings",
    cleanup: bool = True,
) -> OhmGraph:
    """Compile a mapping set into one OHM instance, inserting SPLIT
    operators where a produced relation feeds several mappings and UNION
    operators where several mappings share a target (section VI-A)."""
    mappings.validate()  # fail fast, with mapping-level error messages
    graph = OhmGraph(name)
    compiled: Dict[str, Tuple[List[Port], Port]] = {}
    entries_by_relation: Dict[str, List[Port]] = {}
    for mapping in mappings.in_dependency_order():
        entries, out = _MappingCompiler(mapping, graph).compile()
        compiled[mapping.name] = (entries, out)
        for binding, entry in zip(mapping.sources, entries):
            entries_by_relation.setdefault(binding.relation.name, []).append(entry)

    produced = set(mappings.target_relation_names())
    # base source relations feed from SOURCE operators
    producers: Dict[str, Port] = {}
    for mapping in mappings.in_dependency_order():
        for binding in mapping.sources:
            rel_name = binding.relation.name
            if rel_name in produced or rel_name in producers:
                continue
            source = graph.add(
                Source(binding.relation, uid=f"{rel_name}.source")
            )
            producers[rel_name] = (source, 0)

    # mapping outputs: UNION shared targets, then route
    for rel_name in mappings.target_relation_names():
        producing = mappings.producers_of(rel_name)
        ports = [compiled[m.name][1] for m in producing]
        if len(ports) > 1:
            union = graph.add(Union(label=rel_name, uid=f"{rel_name}.union"))
            for i, (op, port) in enumerate(ports):
                graph.connect(
                    op, union, src_port=port, dst_port=i,
                    name=f"{rel_name}#{i}",
                )
            producers[rel_name] = (union, 0)
        else:
            producers[rel_name] = ports[0]

    # wire each relation's consumers, SPLITting when shared
    final_targets = set(mappings.final_target_names())
    for rel_name, entries in entries_by_relation.items():
        producer = producers[rel_name]
        if len(entries) > 1:
            split = graph.add(Split(label=rel_name, uid=f"{rel_name}.split"))
            graph.connect(
                producer[0], split, src_port=producer[1], name=rel_name
            )
            for i, (op, port) in enumerate(entries):
                graph.connect(
                    split, op, src_port=i, dst_port=port,
                    name=f"{rel_name}#{i + 1}",
                )
        else:
            (op, port) = entries[0]
            graph.connect(
                producer[0], op, src_port=producer[1], dst_port=port,
                name=rel_name,
            )

    # final targets get TARGET access operators
    for mapping in mappings:
        rel_name = mapping.target.name
        if rel_name in final_targets and rel_name in producers:
            target = graph.add(
                Target(mapping.target, uid=f"{rel_name}.target")
            )
            producer = producers.pop(rel_name)
            graph.connect(
                producer[0], target, src_port=producer[1], name=rel_name
            )
            final_targets.discard(rel_name)

    graph.propagate_schemas()
    if cleanup:
        from repro.rewrite.optimizer import cleanup as cleanup_pass

        cleanup_pass(graph)
    return graph


__all__ = ["mappings_to_ohm"]

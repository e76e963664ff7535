"""The stage compilers: one per supported stage type (paper section V-A).

"Converting ETL jobs into OHM instances involves compiling each
vendor-specific ETL stage into one or more OHM operators." Each compiler
emits a small OHM subgraph capturing its stage's semantics; compilers are
allowed to emit redundant operators (identity projections, single-output
SPLITs), which the generic cleanup rewrite removes afterwards.

The Filter compiler implements Figure 6 exactly: SPLIT + one
FILTER → BASIC PROJECT branch per output dataset, with row-only-once mode
folding the negated predicates of earlier outputs into later ones, and a
reject output receiving the conjunction of all negations.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.compile.registry import CompiledStage, StageCompiler, compiler_for
from repro.errors import CompilationError
from repro.expr.algebra import (
    conjoin,
    disjoin,
    negate,
    rename_qualifiers,
    substitute_by_name,
)
from repro.expr.ast import BinaryOp, ColumnRef, Expr, IsNull, Literal
from repro.etl.stages import (
    AggregatorStage,
    CombineRecords,
    CopyStage,
    CustomStage,
    PromoteSubrecord,
    FilterStage,
    FunnelStage,
    JoinStage,
    LookupStage,
    Modify,
    PeekStage,
    RemoveDuplicatesStage,
    RowGenerator,
    SortStage,
    SurrogateKey,
    SwitchStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import (
    Filter,
    Group,
    Join,
    Project,
    Source,
    Split,
    Target,
    Union,
    Unknown,
)
from repro.ohm.subtypes import BasicProject, KeyGen
from repro.expr.ast import AggregateCall
from repro.schema.model import Relation

_internal_edge_counter = itertools.count(1)


def _internal(stage_name: str) -> str:
    """Unique name for an edge internal to one stage's subgraph."""
    return f"{stage_name}~{next(_internal_edge_counter)}"


def _localize(expr: Expr, input_link: str) -> Expr:
    """Drop the input-link qualifier from an expression moving into a
    single-input operator (unqualified references resolve against the
    operator's only input, whatever the edge is named internally)."""
    return rename_qualifiers(expr, {input_link: None})


def _can_be_unknown(predicate: Expr, schema: Relation) -> bool:
    """Conservative: a predicate may evaluate to *unknown* when any
    referenced column is nullable (or unresolvable)."""
    for ref in predicate.column_refs():
        for candidate in (ref.name, f"{ref.qualifier}.{ref.name}"):
            if schema.has_attribute(candidate):
                if schema.attribute(candidate).nullable:
                    return True
                break
        else:
            return True
    return False


def _null_safe_negate(predicate: Expr, schema: Relation) -> Expr:
    """The negation a reject/otherwise/row-only-once link needs: rows the
    predicate did NOT accept — which under SQL three-valued logic includes
    rows where the predicate is unknown. When no referenced column is
    nullable the plain negation (the paper's ``not(p)``) suffices."""
    if _can_be_unknown(predicate, schema):
        return disjoin([negate(predicate), IsNull(predicate)])
    return negate(predicate)


# --- access stages -----------------------------------------------------------


@compiler_for(TableSource)
class TableSourceCompiler(StageCompiler):
    """Source stages become SOURCE access operators."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        op = graph.add(
            Source(stage.relation, label=stage.name, annotations=stage.annotations)
        )
        return CompiledStage([], [(op, 0)])


@compiler_for(TableTarget)
class TableTargetCompiler(StageCompiler):
    """Target stages become TARGET access operators."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        op = graph.add(
            Target(stage.relation, label=stage.name, annotations=stage.annotations)
        )
        return CompiledStage([(op, 0)], [])


@compiler_for(RowGenerator)
class RowGeneratorCompiler(StageCompiler):
    """Generated data becomes a SOURCE with a bound data provider."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        def provide():
            return stage.execute([], [stage.relation], None)[0]

        op = graph.add(
            Source(
                stage.relation,
                provider=provide,
                label=stage.name,
                annotations=stage.annotations,
            )
        )
        return CompiledStage([], [(op, 0)])


# --- single-branch transformations --------------------------------------------


@compiler_for(Transformer)
class TransformerCompiler(StageCompiler):
    """Transformer → [SPLIT +] per-output [FILTER →] PROJECT.

    Stage variables are expanded into the derivations and constraints
    (they are per-row let-bindings, exactly what substitution captures).
    """

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        (input_link,) = input_names
        (input_schema,) = input_schemas
        expanded_vars = {}
        for name, expr in stage.stage_variables:
            expanded_vars[name] = substitute_by_name(
                _localize(expr, input_link), expanded_vars
            )

        def expand(expr: Expr) -> Expr:
            return substitute_by_name(_localize(expr, input_link), expanded_vars)

        constrained = [
            link.constraint for link in stage.outputs if link.constraint is not None
        ]
        branches: List[Tuple[Optional[Expr], List[Tuple[str, Expr]]]] = []
        for link in stage.outputs:
            if link.otherwise:
                predicate = conjoin(
                    [
                        _null_safe_negate(expand(c), input_schema)
                        for c in constrained
                    ]
                )
            elif link.constraint is not None:
                predicate = expand(link.constraint)
            else:
                predicate = None
            derivations = [(n, expand(e)) for n, e in link.derivations]
            branches.append((predicate, derivations))

        return _emit_branches(stage, branches, graph, project_class=Project)


def _emit_branches(stage, branches, graph, project_class):
    """Shared SPLIT + per-branch FILTER/PROJECT emission used by the
    Transformer, Filter, and Switch compilers (their semantic overlap,
    expressed as a compiler hierarchy helper)."""
    entry_ports = []
    outputs = []
    if len(branches) > 1:
        split = graph.add(Split(label=stage.name, annotations=stage.annotations))
        entry = (split, 0)
    else:
        split = None
        entry = None
    for i, (predicate, derivations) in enumerate(branches):
        first = None
        last = None
        last_port = 0
        if predicate is not None:
            filter_op = graph.add(Filter(predicate, label=stage.name))
            first = (filter_op, 0)
            last, last_port = filter_op, 0
        if derivations is not None:
            if project_class is BasicProject:
                project = BasicProject(
                    [(n, ref.name) for n, ref in derivations], label=stage.name
                )
            else:
                project = Project(derivations, label=stage.name)
            graph.add(project)
            if last is not None:
                graph.connect(last, project, name=_internal(stage.name))
            else:
                first = (project, 0)
            last, last_port = project, 0
        if first is None:  # pure copy branch: the split port itself
            outputs.append((split, i) if split is not None else None)
            continue
        if split is not None:
            graph.connect(split, first[0], src_port=i, dst_port=first[1],
                          name=_internal(stage.name))
        else:
            entry = first
        outputs.append((last, last_port))
    if split is None and len(branches) == 1 and outputs[0] is None:
        raise CompilationError(
            f"stage {stage.name!r} compiled to an empty subgraph"
        )
    return CompiledStage([entry], outputs)


@compiler_for(FilterStage)
class FilterStageCompiler(StageCompiler):
    """The Figure 6 compilation: SPLIT + FILTER [→ BASIC PROJECT] per
    output dataset; row-only-once negates earlier predicates; a reject
    output receives all negations."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        (input_link,) = input_names
        (input_schema,) = input_schemas
        predicates = [
            None if o.where is None else _localize(o.where, input_link)
            for o in stage.outputs
        ]
        branches = []
        for i, output in enumerate(stage.outputs):
            if output.reject:
                predicate = conjoin(
                    [
                        _null_safe_negate(p, input_schema)
                        for p in predicates
                        if p is not None
                    ]
                )
            elif stage.row_only_once:
                earlier = [
                    _null_safe_negate(p, input_schema)
                    for p in predicates[:i]
                    if p is not None
                ]
                predicate = conjoin(earlier + [predicates[i]])
            else:
                predicate = predicates[i]
            derivations = None
            if output.columns is not None:
                derivations = [
                    (out, ColumnRef(src)) for out, src in output.columns
                ]
            branches.append((predicate, derivations))
        return _emit_branches(stage, branches, graph, project_class=BasicProject)


@compiler_for(SwitchStage)
class SwitchStageCompiler(StageCompiler):
    """Switch → SPLIT + FILTER(selector = case) per case; the default
    output receives NULL selectors and every non-matching value."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        (input_link,) = input_names
        selector = _localize(stage.selector, input_link)
        branches = []
        for case in stage.cases:
            branches.append(
                (BinaryOp("=", selector, Literal(case)), None)
            )
        if stage.has_default:
            misses = conjoin(
                [negate(BinaryOp("=", selector, Literal(c))) for c in stage.cases]
            )
            branches.append((disjoin([IsNull(selector), misses]), None))
        return _emit_branches(stage, branches, graph, project_class=BasicProject)


@compiler_for(CopyStage)
class CopyStageCompiler(StageCompiler):
    """Copy → SPLIT [+ BASIC PROJECT per column-restricted output]."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        keep = stage.keep_columns or [None] * len(output_names)
        branches = []
        for cols in keep:
            derivations = None
            if cols is not None:
                derivations = [(c, ColumnRef(c)) for c in cols]
            branches.append((None, derivations))
        if len(branches) == 1 and branches[0] == (None, None):
            # pure single-output copy: identity BASIC PROJECT, removed by
            # the cleanup rewrite (the 'redundant operator' licence)
            (incoming,) = input_schemas
            branches = [
                (None, [(a.name, ColumnRef(a.name)) for a in incoming])
            ]
        return _emit_branches(stage, branches, graph, project_class=BasicProject)


# --- multi-input stages ---------------------------------------------------------


@compiler_for(FunnelStage)
class FunnelCompiler(StageCompiler):
    """Funnel → UNION."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        op = graph.add(Union(label=stage.name, annotations=stage.annotations))
        return CompiledStage(
            [(op, i) for i in range(len(input_schemas))], [(op, 0)]
        )


@compiler_for(JoinStage)
class JoinStageCompiler(StageCompiler):
    """Join → JOIN [→ BASIC PROJECT].

    "the Join stage is compiled into a JOIN operator followed by a
    BASIC PROJECT. Here, the JOIN operator only captures the semantics of
    the traditional relational algebra join, while the BASIC PROJECT
    removes any source column that is not needed anymore (for instance,
    only one customerid column is needed from this point on)."
    """

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        left, right = input_schemas
        condition = stage.effective_condition(left, right)
        join = graph.add(
            Join(
                condition,
                kind=stage.join_type,
                label=stage.name,
                annotations=stage.annotations,
            )
        )
        plan = stage.merged_columns(left, right)
        collisions = set(left.attribute_names) & set(right.attribute_names)
        if stage.keys is None:
            # condition mode: the join output is the stage output as-is
            return CompiledStage([(join, 0), (join, 1)], [(join, 0)])
        columns = []
        for out_name, side, source in plan:
            if source in collisions:
                rel = left if side == "left" else right
                columns.append((out_name, f"{rel.name}.{source}"))
            else:
                columns.append((out_name, source))
        project = graph.add(BasicProject(columns, label=stage.name))
        graph.connect(join, project, name=_internal(stage.name))
        return CompiledStage([(join, 0), (join, 1)], [(project, 0)])


@compiler_for(LookupStage)
class LookupCompiler(JoinStageCompiler):
    """Lookup → JOIN (left outer for ``continue``, inner for ``drop``)
    → BASIC PROJECT keeping the stream columns plus the returned
    reference columns. A subclass of the Join compiler — the stages'
    semantics overlap, so the compilers form a hierarchy (paper V-A).

    ``fail`` lookups compile like ``drop`` with an annotation: OHM has no
    error semantics, and on failure-free data the two agree.
    """

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        stream, reference = input_schemas
        condition = conjoin(
            BinaryOp(
                "=",
                ColumnRef(s, qualifier=stream.name),
                ColumnRef(r, qualifier=reference.name),
            )
            for s, r in stage.keys
        )
        kind = "left" if stage.on_failure == "continue" else "inner"
        annotations = dict(stage.annotations)
        if stage.on_failure == "fail":
            annotations["lookup-failure"] = (
                "original stage fails the job on lookup miss"
            )
        join = graph.add(
            Join(condition, kind=kind, label=stage.name, annotations=annotations)
        )
        collisions = set(stream.attribute_names) & set(reference.attribute_names)
        columns = []
        for attr in stream:
            source = (
                f"{stream.name}.{attr.name}" if attr.name in collisions else attr.name
            )
            columns.append((attr.name, source))
        for col in stage._returned(reference):
            source = f"{reference.name}.{col}" if col in collisions else col
            columns.append((col, source))
        project = graph.add(BasicProject(columns, label=stage.name))
        graph.connect(join, project, name=_internal(stage.name))
        return CompiledStage([(join, 0), (join, 1)], [(project, 0)])


# --- grouping stages --------------------------------------------------------------


@compiler_for(AggregatorStage)
class AggregatorCompiler(StageCompiler):
    """Aggregator → GROUP."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        op = graph.add(
            Group(
                stage.group_keys,
                stage.aggregate_calls(),
                label=stage.name,
                annotations=stage.annotations,
            )
        )
        return CompiledStage([(op, 0)], [(op, 0)])


@compiler_for(RemoveDuplicatesStage)
class RemoveDuplicatesCompiler(StageCompiler):
    """RemoveDuplicates → GROUP over the duplicate keys with FIRST/LAST
    aggregates carrying the remaining columns (a duplicate-eliminating
    operator, hence a mapping-composition blocker like any GROUP)."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        (incoming,) = input_schemas
        func = "FIRST" if stage.retain == "first" else "LAST"
        aggregates = [
            (a.name, AggregateCall(func, ColumnRef(a.name)))
            for a in incoming
            if a.name not in stage.keys
        ]
        op = graph.add(
            Group(
                list(stage.keys),
                aggregates,
                label=stage.name,
                annotations=stage.annotations,
            )
        )
        return CompiledStage([(op, 0)], [(op, 0)])


# --- column surgery -----------------------------------------------------------------


@compiler_for(Modify)
class ModifyCompiler(StageCompiler):
    """Modify → BASIC PROJECT (keep/drop/rename) or PROJECT when type
    conversions are involved."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        (incoming,) = input_schemas
        old_to_new = {old: new for new, old in stage.rename.items()}
        names = list(stage.keep) if stage.keep is not None else list(
            incoming.attribute_names
        )
        names = [n for n in names if n not in stage.drop]
        if not stage.convert:
            columns = [(old_to_new.get(n, n), n) for n in names]
            op = graph.add(
                BasicProject(
                    columns, label=stage.name, annotations=stage.annotations
                )
            )
        else:
            conversion_fn = {
                "INTEGER": "TO_INTEGER",
                "FLOAT": "TO_FLOAT",
                "DECIMAL": "TO_FLOAT",
                "STRING": "TO_STRING",
                "DATE": "TO_DATE",
            }
            derivations = []
            for n in names:
                new_name = old_to_new.get(n, n)
                expr: Expr = ColumnRef(n)
                if new_name in stage.convert:
                    from repro.schema.types import atomic
                    from repro.expr.ast import FunctionCall

                    target = atomic(stage.convert[new_name]).name
                    fn = conversion_fn.get(target)
                    if fn is None:
                        raise CompilationError(
                            f"Modify {stage.name!r}: no conversion to {target}"
                        )
                    expr = FunctionCall(fn, [expr])
                derivations.append((new_name, expr))
            op = graph.add(
                Project(
                    derivations, label=stage.name, annotations=stage.annotations
                )
            )
        return CompiledStage([(op, 0)], [(op, 0)])


@compiler_for(SurrogateKey)
class SurrogateKeyCompiler(StageCompiler):
    """SurrogateKey → KEYGEN (a refined PROJECT)."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        (incoming,) = input_schemas
        op = graph.add(
            KeyGen(
                stage.generated_column,
                sequence=f"{stage.name}.{stage.generated_column}",
                start=stage.start,
                passthrough=list(incoming.attribute_names),
                label=stage.name,
                annotations=stage.annotations,
            )
        )
        return CompiledStage([(op, 0)], [(op, 0)])


# --- non-semantic and opaque stages ---------------------------------------------------


@compiler_for(SortStage, PeekStage)
class PassThroughCompiler(StageCompiler):
    """Stages with no transformation semantics under bag semantics (Sort
    orders, Peek observes) compile away entirely."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        return CompiledStage.passthrough()


@compiler_for(CombineRecords)
class CombineRecordsCompiler(StageCompiler):
    """CombineRecords → NEST (NF²)."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        from repro.ohm.operators import Nest

        op = graph.add(
            Nest(
                stage.keys, stage.nested, into=stage.into,
                label=stage.name, annotations=stage.annotations,
            )
        )
        return CompiledStage([(op, 0)], [(op, 0)])


@compiler_for(PromoteSubrecord)
class PromoteSubrecordCompiler(StageCompiler):
    """PromoteSubrecord → UNNEST (NF²)."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        from repro.ohm.operators import Unnest

        op = graph.add(
            Unnest(
                stage.attr, label=stage.name, annotations=stage.annotations
            )
        )
        return CompiledStage([(op, 0)], [(op, 0)])


@compiler_for(CustomStage)
class CustomStageCompiler(StageCompiler):
    """Custom/black-box stages → UNKNOWN, keeping declared output types
    and, when available, the original executable behaviour."""

    def compile(self, stage, input_schemas, input_names, output_names, graph):
        executor = None
        if stage.implementation is not None:
            declared = list(stage.output_schemas)

            def executor(inputs, _stage=stage, _declared=declared):
                produced = _stage.execute(inputs, _declared, None)
                return [list(dataset.rows) for dataset in produced]

        op = graph.add(
            Unknown(
                stage.output_schemas,
                reference=stage.reference,
                executor=executor,
                label=stage.name,
                annotations=stage.annotations,
            )
        )
        return CompiledStage(
            [(op, i) for i in range(len(input_schemas))],
            [(op, i) for i in range(len(stage.output_schemas))],
        )


__all__ = [
    "TableSourceCompiler",
    "TableTargetCompiler",
    "RowGeneratorCompiler",
    "TransformerCompiler",
    "FilterStageCompiler",
    "SwitchStageCompiler",
    "CopyStageCompiler",
    "FunnelCompiler",
    "JoinStageCompiler",
    "LookupCompiler",
    "AggregatorCompiler",
    "RemoveDuplicatesCompiler",
    "ModifyCompiler",
    "SurrogateKeyCompiler",
    "PassThroughCompiler",
    "CustomStageCompiler",
]

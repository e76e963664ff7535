"""The static analyzer: lint OHM graphs, ETL jobs, and mapping sets
without executing them.

Where the runtime ``validate()`` hooks stop at the first failure (and
only fire once upstream stages have already produced data), the
analyzer walks the whole plan and *collects* diagnostics:

* **structure** — cycles (ORC010), dangling/miswired ports (ORC011),
  duplicate link names (ORC012), unreachable stages (ORC013), reject
  links that can never receive rows (ORC014);
* **types** — a non-throwing schema-propagation pass that runs every
  node's expressions through :mod:`repro.expr.typecheck`, reporting
  parse errors (ORC001), type mismatches (ORC002), non-boolean
  predicates (ORC003), and link-schema incompatibilities (ORC015) with
  stage/operator/link/expression locations;
* **NULL-ness** — three-valued nullability propagation
  (:mod:`repro.analysis.nullness`) warning when a nullable value flows
  into a NOT NULL target column (ORC004);
* **dataflow** — a backward liveness pass (reusing the fusion read-set
  machinery of :mod:`repro.exec.fuse`) flagging columns that are
  computed but never read (ORC020), plus pushdown-region (ORC021) and
  fusion-chain (ORC022) placement lints.

Nothing in here mutates the analyzed plan and nothing executes a row:
edge schemas are tracked in a local map, never written back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.dataflow import DataflowGraph, Edge
from repro.errors import (
    ExpressionError,
    GraphError,
    MappingError,
    OrchidError,
    ParseError,
    SchemaError,
    TypeCheckError,
    ValidationError,
)
from repro.etl import stages as _etl
from repro.etl.model import Job, Stage
from repro.exec.fuse import read_set
from repro.expr.ast import ColumnRef, Expr
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry
from repro.expr.parser import parse
from repro.expr.typecheck import TypeContext, check_boolean, infer_type
from repro.mapping.model import Mapping, MappingSet
from repro.ohm import operators as _ohm
from repro.ohm.graph import OhmGraph
from repro.schema.model import Relation

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.nullness import infer_nullable, relation_resolver

#: req-set value meaning "every column is (or must be assumed) live".
_ALL = None


# -- exception classification -------------------------------------------------


def _classify(exc: OrchidError) -> str:
    """Map a validation-time exception onto a diagnostic code. Anything
    that is not an :class:`OrchidError` is a bug in the analyzer or the
    node itself and must propagate, never be reported as a lint."""
    if isinstance(exc, ParseError):
        return "ORC001"
    if isinstance(exc, TypeCheckError):
        return "ORC003" if "boolean" in str(exc) else "ORC002"
    if isinstance(exc, SchemaError):
        return "ORC002"
    if isinstance(exc, GraphError):
        return "ORC015"
    if isinstance(exc, ExpressionError):
        return "ORC001"
    if isinstance(exc, MappingError):
        return "ORC030"
    return "ORC015"


_EXPRESSION_CODES = ("ORC001", "ORC002", "ORC003")


# -- column-reference resolution ---------------------------------------------


def _column_key(rel: Relation) -> Callable:
    """A :func:`repro.exec.fuse.read_set` resolver over one relation,
    honouring link-name qualifiers and the dotted ``qualifier.name``
    collision columns a JOIN leaves behind."""

    def key(ref) -> Optional[str]:
        if ref.qualifier is not None:
            dotted = f"{ref.qualifier}.{ref.name}"
            if rel.has_attribute(dotted):
                return dotted
        if rel.has_attribute(ref.name):
            return ref.name
        return None

    return key


def _reads_of(
    exprs: Sequence[Expr], rel: Optional[Relation], ignore: Sequence[str] = ()
) -> Optional[Set[str]]:
    """The input columns ``exprs`` read (``ignore`` names — e.g. stage
    variables — are skipped); ``_ALL`` when the input schema is unknown
    or any reference fails to resolve."""
    if rel is None:
        return _ALL
    key_of = _column_key(rel)
    names: Set[str] = set()
    for expr in exprs:
        for ref in expr.column_refs():
            if ref.qualifier is None and ref.name in ignore:
                continue
            key = key_of(ref)
            if key is _ALL:
                return _ALL
            names.add(key)
    return names


def _union(parts) -> Optional[Set[str]]:
    """Union of req-sets where ``_ALL`` absorbs everything."""
    out: Set[str] = set()
    for part in parts:
        if part is _ALL:
            return _ALL
        out |= part
    return out


# -- the shared dataflow walk -------------------------------------------------


class _GraphAnalysis:
    """One analysis run over a :class:`DataflowGraph` (ETL job or OHM
    instance); layer-specific lints hook in via subclass-free flags."""

    def __init__(
        self,
        graph: DataflowGraph,
        report: AnalysisReport,
        registry: Optional[FunctionRegistry] = None,
    ):
        self.graph = graph
        self.report = report
        self.registry = registry or DEFAULT_REGISTRY
        self.noun = "stage" if graph.node_noun == "stage" else "operator"
        #: edge id() → propagated schema (kept local — never written
        #: back onto the analyzed graph).
        self.schemas: Dict[int, Relation] = {}
        #: uids whose outputs could not be typed.
        self.untyped: Set[str] = set()
        self.order: List = []

    def locate(self, uid: str, **extra) -> Dict[str, str]:
        loc = {self.noun: uid}
        loc.update({k: v for k, v in extra.items() if v is not None})
        return loc

    def in_schemas(self, uid: str) -> List[Optional[Relation]]:
        return [self.schemas.get(id(e)) for e in self.graph.in_edges(uid)]

    # -- structure ------------------------------------------------------------

    def check_links(self) -> None:
        seen: Dict[str, Edge] = {}
        for edge in self.graph.edges:
            first = seen.get(edge.name)
            if first is not None:
                self.report.emit(
                    "ORC012",
                    f"link name {edge.name!r} is used by both "
                    f"{first.src} -> {first.dst} and {edge.src} -> {edge.dst}",
                    hint="rename one of the links",
                    link=edge.name,
                )
            else:
                seen[edge.name] = edge

    def check_structure(self) -> bool:
        """Ports and acyclicity; returns False when the graph is cyclic
        (no further pass is well-defined then)."""
        try:
            self.order = self.graph.topological_order()
        except GraphError as exc:
            self.report.emit(
                "ORC010", str(exc), hint="remove the cyclic link(s)"
            )
            return False
        for node in self.order:
            uid = node.uid
            incoming = self.graph.in_edges(uid)
            outgoing = self.graph.out_edges(uid)
            data_out = [e for e in outgoing if not e.is_reject]
            try:
                node.check_port_counts(len(incoming), len(data_out))
            except GraphError as exc:
                self.report.emit(
                    "ORC011",
                    str(exc),
                    hint="wire the missing links or remove the "
                    f"{self.noun}",
                    **self.locate(uid),
                )
                self.untyped.add(uid)
            if len(outgoing) != len(data_out) and not getattr(
                node, "supports_reject_link", False
            ):
                self.report.emit(
                    "ORC011",
                    f"{node.KIND} {uid} does not support a reject link",
                    hint="remove the reject link",
                    **self.locate(uid),
                )
            for kind, edges, port_of in (
                ("input", incoming, lambda e: e.dst_port),
                ("output", outgoing, lambda e: e.src_port),
            ):
                ports = sorted(port_of(e) for e in edges)
                if ports != list(range(len(ports))):
                    self.report.emit(
                        "ORC011",
                        f"{node.KIND} {uid} has non-contiguous {kind} "
                        f"ports {ports}",
                        hint="rewire the links onto contiguous ports",
                        **self.locate(uid),
                    )
                    self.untyped.add(uid)
        return True

    def check_reachability(self) -> None:
        graph = self.graph
        sources = [n.uid for n in graph.nodes if n.max_inputs == 0]
        sinks = [n.uid for n in graph.nodes if n.max_outputs == 0]

        def flood(seed: List[str], next_of) -> Set[str]:
            seen = set(seed)
            frontier = list(seed)
            while frontier:
                uid = frontier.pop()
                for neighbour in next_of(uid):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            return seen

        if sources:
            fed = flood(
                sources, lambda u: (e.dst for e in graph.out_edges(u))
            )
            for node in graph.nodes:
                if node.uid not in fed:
                    self.report.emit(
                        "ORC013",
                        f"{node.KIND} {node.uid} never receives rows: no "
                        "path from any source reaches it",
                        hint="connect it to the flow or remove it",
                        **self.locate(node.uid),
                    )
        if sinks:
            draining = flood(
                sinks, lambda u: (e.src for e in graph.in_edges(u))
            )
            for node in graph.nodes:
                if node.uid not in draining and node.uid not in sinks:
                    self.report.emit(
                        "ORC013",
                        f"the output of {node.KIND} {node.uid} never "
                        "reaches a target",
                        hint="connect it to a target or remove it",
                        **self.locate(node.uid),
                    )

    # -- types ----------------------------------------------------------------

    def _expression_checks(
        self, node, inputs: List[Relation]
    ) -> List[Tuple[Expr, Optional[str], bool, bool, TypeContext]]:
        """Per-expression checks for the node kinds that hold several
        independent expressions: ``(expr, link, must_be_boolean,
        allow_aggregates, context)`` tuples. Other kinds rely on their
        ``validate()`` hook (one diagnostic per node)."""
        checks: List[Tuple] = []
        out_names = [
            e.name
            for e in self.graph.out_edges(node.uid)
            if not e.is_reject
        ]

        def link_of(i: int) -> Optional[str]:
            return out_names[i] if i < len(out_names) else None

        if isinstance(node, _etl.FilterStage) and len(inputs) == 1:
            incoming = inputs[0]
            context = TypeContext(incoming).bind(incoming.name, incoming)
            for i, output in enumerate(node.outputs):
                if output.where is not None:
                    checks.append(
                        (output.where, link_of(i), True, False, context)
                    )
        elif isinstance(node, _etl.Transformer) and len(inputs) == 1:
            try:
                context = node._context(inputs[0])
            except OrchidError:
                return []  # a broken stage variable: leave to validate()
            for _name, expr in node.stage_variables:
                checks.append((expr, None, False, False, context))
            for i, link in enumerate(node.outputs):
                if link.constraint is not None:
                    checks.append(
                        (link.constraint, link_of(i), True, False, context)
                    )
                for _col, expr in link.derivations:
                    checks.append(
                        (expr, link_of(i), False, False, context)
                    )
        elif isinstance(node, _ohm.Filter) and len(inputs) == 1:
            incoming = inputs[0]
            context = TypeContext(incoming).bind(incoming.name, incoming)
            checks.append((node.condition, None, True, False, context))
        elif isinstance(node, _ohm.Project) and len(inputs) == 1:
            incoming = inputs[0]
            context = TypeContext(incoming).bind(incoming.name, incoming)
            for _col, expr in node.derivations:
                checks.append((expr, None, False, False, context))
        elif isinstance(node, _ohm.Group) and len(inputs) == 1:
            incoming = inputs[0]
            context = TypeContext(incoming).bind(incoming.name, incoming)
            for _col, expr in node.aggregates:
                checks.append((expr, None, False, True, context))
        return checks

    def check_types(self) -> None:
        graph = self.graph
        for node in self.order:
            uid = node.uid
            in_edges = graph.in_edges(uid)
            inputs = [self.schemas.get(id(e)) for e in in_edges]
            if uid in self.untyped or any(s is None for s in inputs):
                self.untyped.add(uid)
                continue
            had_expression_diag = False
            for expr, link, boolean, aggregates, context in (
                self._expression_checks(node, inputs)
            ):
                try:
                    if boolean:
                        check_boolean(
                            expr, context, self.registry, aggregates
                        )
                    else:
                        infer_type(expr, context, self.registry, aggregates)
                except OrchidError as exc:
                    had_expression_diag = True
                    self.report.emit(
                        _classify(exc),
                        str(exc),
                        **self.locate(
                            uid, link=link, expression=expr.to_sql()
                        ),
                    )
            try:
                node.validate(inputs)
            except OrchidError as exc:
                code = _classify(exc)
                # the fine-grained pass above already covered this
                # node's expressions; don't report them twice
                if not (
                    had_expression_diag and code in _EXPRESSION_CODES
                ):
                    self.report.emit(code, str(exc), **self.locate(uid))
                self.untyped.add(uid)
                continue
            if had_expression_diag:
                self.untyped.add(uid)
                continue
            self._check_target_types(node, in_edges, inputs)
            out_edges = graph.out_edges(uid)
            data_edges = [e for e in out_edges if not e.is_reject]
            try:
                if data_edges:
                    outputs = node.output_relations(
                        inputs, [e.name for e in data_edges]
                    )
                    for edge, schema in zip(data_edges, outputs):
                        self.schemas[id(edge)] = schema
                for edge in out_edges:
                    if edge.is_reject:
                        self.schemas[id(edge)] = node.reject_relation(
                            edge.name
                        )
            except OrchidError as exc:
                self.report.emit(
                    _classify(exc), str(exc), **self.locate(uid)
                )
                self.untyped.add(uid)

    def _check_target_types(self, node, in_edges, inputs) -> None:
        """ORC015 for a gap the ETL target's ``validate`` leaves open:
        it checks column *presence* only, so a wrongly-typed column
        would first fail at load time, mid-run."""
        target_rel = getattr(node, "relation", None)
        if node.max_outputs != 0 or target_rel is None:
            return
        if len(inputs) != 1 or inputs[0] is None:
            return
        incoming, edge = inputs[0], in_edges[0]
        for attr in target_rel:
            if not incoming.has_attribute(attr.name):
                continue  # absence is validate()'s diagnostic
            supplied = incoming.attribute(attr.name).dtype
            if not attr.dtype.accepts(supplied):
                self.report.emit(
                    "ORC015",
                    f"column {attr.name!r} of target {target_rel.name!r} "
                    f"wants {attr.dtype!r} but link {edge.name!r} "
                    f"carries {supplied!r}",
                    hint="convert the value or widen the target "
                    "column type",
                    link=edge.name,
                    **self.locate(node.uid),
                )

    # -- NULL-ness at the targets ---------------------------------------------

    def _derivation_of(self, node, port: int, column: str) -> Optional[Expr]:
        """The expression a Transformer/PROJECT computes ``column``
        with on output port ``port``, if that node kind derives
        columns."""
        if isinstance(node, _etl.Transformer):
            if port < len(node.outputs):
                for col, expr in node.outputs[port].derivations:
                    if col == column:
                        return expr
        elif isinstance(node, _ohm.Project):
            for col, expr in node.derivations:
                if col == column:
                    return expr
        return None

    def check_target_nullability(self) -> None:
        graph = self.graph
        for node in self.order:
            target_rel = getattr(node, "relation", None)
            if node.max_outputs != 0 or target_rel is None:
                continue
            in_edges = [
                e for e in graph.in_edges(node.uid) if not e.is_reject
            ]
            if len(in_edges) != 1:
                continue
            edge = in_edges[0]
            incoming = self.schemas.get(id(edge))
            if incoming is None:
                continue
            producer = graph.node(edge.src)
            producer_inputs = self.in_schemas(edge.src)
            producer_rel = (
                producer_inputs[0]
                if len(producer_inputs) == 1
                else None
            )
            for attr in target_rel:
                if attr.nullable or not incoming.has_attribute(attr.name):
                    continue
                if not incoming.attribute(attr.name).nullable:
                    continue
                # the schema says nullable; let the three-valued
                # inference try to prove the producing expression NOT
                # NULL before warning
                expr = self._derivation_of(
                    producer, edge.src_port, attr.name
                )
                if expr is not None and producer_rel is not None:
                    if not infer_nullable(
                        expr, relation_resolver(producer_rel)
                    ):
                        continue
                self.report.emit(
                    "ORC004",
                    f"column {attr.name!r} of target {target_rel.name!r} "
                    f"is NOT NULL but link {edge.name!r} can carry NULLs "
                    "into it",
                    hint="COALESCE the value or declare the target "
                    "column nullable",
                    expression=None if expr is None else expr.to_sql(),
                    link=edge.name,
                    **{self.noun: node.uid},
                )


# -- backward liveness (dead columns) ----------------------------------------


def _stage_reads(
    node: Stage,
    out_required: List[Optional[Set[str]]],
    inputs: List[Optional[Relation]],
    n_inputs: int,
) -> List[Optional[Set[str]]]:
    """Per-input-port live-column sets for one ETL stage given the live
    sets of its data outputs (``_ALL`` = everything)."""
    rel = inputs[0] if len(inputs) == 1 else None
    req = _union(out_required)

    if isinstance(node, (_etl.TableTarget, _etl.SequentialFileTarget)):
        return [set(node.relation.attribute_names)]
    if isinstance(node, _etl.FilterStage):
        parts = []
        for spec, out_req in zip(node.outputs, out_required):
            if spec.columns is not None:
                if out_req is _ALL:
                    parts.append({src for _o, src in spec.columns})
                else:
                    parts.append(
                        {src for o, src in spec.columns if o in out_req}
                    )
            else:
                parts.append(out_req)
            if spec.where is not None:
                parts.append(read_set([spec.where], _column_key(rel))
                             if rel is not None else _ALL)
        merged = _union(
            set(p) if isinstance(p, list) else p for p in parts
        )
        return [merged]
    if isinstance(node, _etl.SwitchStage):
        if req is _ALL:
            return [_ALL]
        return [req | {node.selector}]
    if isinstance(node, _etl.CopyStage):
        parts = []
        for keep, out_req in zip(node.keep_columns, out_required):
            if keep is None:
                parts.append(out_req)
            elif out_req is _ALL:
                parts.append(set(keep))
            else:
                parts.append(set(keep) & out_req)
        return [_union(parts)]
    if isinstance(node, _etl.FunnelStage):
        return [req] * n_inputs
    if isinstance(node, _etl.Transformer):
        ignore = [name for name, _e in node.stage_variables]
        exprs: List[Expr] = [e for _n, e in node.stage_variables]
        for link, out_req in zip(node.outputs, out_required):
            if link.constraint is not None:
                exprs.append(link.constraint)
            for col, expr in link.derivations:
                if out_req is _ALL or col in out_req:
                    exprs.append(expr)
        return [_reads_of(exprs, rel, ignore)]
    if isinstance(node, _etl.Modify):
        if req is _ALL:
            return [_ALL]
        return [{node.rename.get(c, c) for c in req}]
    if isinstance(node, _etl.SortStage):
        if req is _ALL:
            return [_ALL]
        return [req | {col for col, _d in node.keys}]
    if isinstance(node, _etl.RemoveDuplicatesStage):
        if req is _ALL:
            return [_ALL]
        return [req | set(node.keys)]
    if isinstance(node, _etl.PeekStage):
        return [req]
    if isinstance(node, _etl.AggregatorStage):
        needed = set(node.group_keys)
        for out, _func, col in node.aggregations:
            if col is not None and (req is _ALL or out in req):
                needed.add(col)
        return [needed if req is not _ALL else _ALL]
    if isinstance(node, _etl.SurrogateKey):
        if req is _ALL:
            return [_ALL]
        return [req - {node.generated_column}]
    # Join, Lookup, restructure, custom, sources: assume everything live
    return [_ALL] * n_inputs


def _operator_reads(
    op, out_required: List[Optional[Set[str]]], inputs, n_inputs: int
) -> List[Optional[Set[str]]]:
    """Per-input-port live-column sets for one OHM operator."""
    rel = inputs[0] if len(inputs) == 1 else None
    req = _union(out_required)

    if isinstance(op, _ohm.Target):
        return [set(op.relation.attribute_names)]
    if isinstance(op, _ohm.Filter):
        cond = (
            read_set([op.condition], _column_key(rel))
            if rel is not None
            else _ALL
        )
        return [_union([req, cond])]
    if isinstance(op, _ohm.Project):
        exprs = [
            expr
            for col, expr in op.derivations
            if req is _ALL or col in req
        ]
        return [_reads_of(exprs, rel)]
    if isinstance(op, _ohm.Union):
        return [req] * n_inputs
    if isinstance(op, _ohm.Split):
        return [req]
    if isinstance(op, _ohm.Group):
        needed = set(op.keys)
        if req is _ALL:
            return [_ALL]
        for col, expr in op.aggregates:
            if col in req:
                reads = _reads_of([expr], rel)
                if reads is _ALL:
                    return [_ALL]
                needed |= reads
        return [needed]
    return [_ALL] * n_inputs


def _check_dead_columns(analysis: _GraphAnalysis) -> None:
    """Backward liveness over the whole graph: warn (ORC020) for every
    column a Transformer/PROJECT/Aggregator/SurrogateKey computes that
    no downstream consumer ever reads."""
    graph = analysis.graph
    is_job = isinstance(graph, Job)
    reads = _stage_reads if is_job else _operator_reads
    required: Dict[int, Optional[Set[str]]] = {}
    for node in reversed(analysis.order):
        uid = node.uid
        in_edges = graph.in_edges(uid)
        out_edges = graph.out_edges(uid)
        data_out = [e for e in out_edges if not e.is_reject]
        if len(out_edges) != len(data_out):
            # a reject channel carries whole input rows: all live
            for edge in in_edges:
                required[id(edge)] = _ALL
            continue
        out_required = [required.get(id(e), _ALL) for e in data_out]
        inputs = [analysis.schemas.get(id(e)) for e in in_edges]
        try:
            live = reads(node, out_required, inputs, len(in_edges))
        except Exception:  # noqa: BLE001 — a broken node was already
            live = [_ALL] * len(in_edges)  # reported by the type pass
        if len(live) != len(in_edges):
            live = [_union(live)] * len(in_edges)
        for edge, cols in zip(in_edges, live):
            required[id(edge)] = cols

    def dead(edge, computed: List[Tuple[str, Optional[Expr]]], uid: str):
        req = required.get(id(edge), _ALL)
        if req is _ALL:
            return
        for col, expr in computed:
            if isinstance(expr, ColumnRef):
                continue  # a passthrough, not a computed value
            if col not in req:
                analysis.report.emit(
                    "ORC020",
                    f"column {col!r} on link {edge.name!r} is computed "
                    "but never read downstream",
                    hint="drop the derivation or consume the column",
                    link=edge.name,
                    expression=None if expr is None else expr.to_sql(),
                    **{analysis.noun: uid},
                )

    for node in analysis.order:
        uid = node.uid
        data_out = [
            e for e in graph.out_edges(uid) if not e.is_reject
        ]
        if is_job and isinstance(node, _etl.Transformer):
            for edge, link in zip(data_out, node.outputs):
                dead(edge, list(link.derivations), uid)
        elif is_job and isinstance(node, _etl.AggregatorStage):
            for edge in data_out:
                dead(
                    edge,
                    [(out, None) for out, _f, _c in node.aggregations],
                    uid,
                )
        elif is_job and isinstance(node, _etl.SurrogateKey):
            for edge in data_out:
                dead(edge, [(node.generated_column, None)], uid)
        elif not is_job and isinstance(node, _ohm.Project):
            for edge in data_out:
                dead(edge, list(node.derivations), uid)
        elif not is_job and isinstance(node, _ohm.Group):
            for edge in data_out:
                dead(
                    edge, [(col, expr) for col, expr in node.aggregates], uid
                )


# -- placement lints ----------------------------------------------------------


def _fuses(node) -> bool:
    """Whether ``node`` is a stage whose body chains on the compiled
    tier: every stage but a ``Custom`` one and the endpoints."""
    return (
        isinstance(node, Stage)
        and not isinstance(node, _etl.CustomStage)
        and node.min_inputs > 0
        and node.max_outputs != 0
    )


def _check_fusion_chains(analysis: _GraphAnalysis) -> None:
    """ORC022: a ``Custom`` stage (opaque, so never chained) sandwiched
    between stages that chain — the fused pipeline silently splits
    there and pays a materialization."""
    graph = analysis.graph
    for node in analysis.order:
        if not isinstance(node, _etl.CustomStage):
            continue
        preds = [
            graph.node(e.src)
            for e in graph.in_edges(node.uid)
            if not e.is_reject
        ]
        succs = [
            graph.node(e.dst)
            for e in graph.out_edges(node.uid)
            if not e.is_reject
        ]
        if any(map(_fuses, preds)) and any(map(_fuses, succs)):
            analysis.report.emit(
                "ORC022",
                f"{node.KIND} {node.uid} does not support the "
                "compiled tier and splits an otherwise fusable "
                "chain (each side pays a materialization)",
                hint="move it out of the hot path or teach it block "
                "execution",
                **analysis.locate(node.uid),
            )


def _check_pushdown_regions(analysis: _GraphAnalysis) -> None:
    """ORC021: an operator whose inputs are all SQL-pushable but whose
    own expression the dialect cannot render — the pushable region ends
    there, silently."""
    graph = analysis.graph
    # the planner's own classification keeps this lint exactly aligned
    # with what plan_pushdown will and will not push
    from repro.deploy.pushdown import _classify as classify_pushdown
    from repro.deploy.sql import SqliteDialect

    dialect = SqliteDialect()
    try:
        states = classify_pushdown(graph, dialect)
    except OrchidError:
        return  # a broken graph was already reported by earlier passes
    for op in analysis.order:
        in_edges = graph.in_edges(op.uid)
        if not in_edges:
            continue
        if not all(states[e.src].pushable for e in in_edges):
            continue
        if states[op.uid].pushable:
            continue
        if isinstance(op, _ohm.Filter):
            exprs = [op.condition]
        elif isinstance(op, _ohm.Project):
            exprs = [e for _c, e in op.derivations]
        elif isinstance(op, _ohm.Join):
            exprs = [op.condition]
        elif isinstance(op, _ohm.Group):
            exprs = [e for _c, e in op.aggregates]
        else:
            continue
        bad = [e for e in exprs if not dialect.supports_expression(e)]
        if not bad:
            continue  # blocked for a structural reason, not an expression
        analysis.report.emit(
            "ORC021",
            f"{op.KIND} {op.uid} sits on a pushable region but its "
            "expression is not supported by the SQL dialect, so "
            "pushdown ends here",
            hint="rewrite the expression with dialect-supported "
            "functions to extend the SQL region",
            expression=bad[0].to_sql(),
            **analysis.locate(op.uid),
        )


# -- ETL-only lints -----------------------------------------------------------


def _check_reject_links(job: Job, report: AnalysisReport) -> None:
    """ORC014: a reject link wired on a stage whose explicit row error
    policy routes failures elsewhere — the link can never receive a
    row."""
    for edge in job.edges:
        if not edge.is_reject:
            continue
        stage = job.node(edge.src)
        policy = getattr(stage, "on_error", None)
        if policy is not None and policy != "reject":
            report.emit(
                "ORC014",
                f"reject link {edge.name!r} on {stage.KIND} {stage.uid} "
                f"can never receive rows: the stage's error policy is "
                f"{policy!r}",
                hint="set on_error='reject' on the stage or remove the "
                "reject link",
                stage=stage.uid,
                link=edge.name,
            )


# -- entry points -------------------------------------------------------------


def _analyze_dataflow(
    graph: DataflowGraph,
    report: AnalysisReport,
    registry: Optional[FunctionRegistry],
) -> _GraphAnalysis:
    analysis = _GraphAnalysis(graph, report, registry)
    analysis.check_links()
    if not analysis.check_structure():
        return analysis
    analysis.check_reachability()
    analysis.check_types()
    analysis.check_target_nullability()
    _check_dead_columns(analysis)
    return analysis


def analyze_job(
    job: Job, registry: Optional[FunctionRegistry] = None
) -> AnalysisReport:
    """Statically analyze an ETL :class:`Job` without executing it."""
    report = AnalysisReport(subject=f"job {job.name!r}")
    analysis = _analyze_dataflow(
        job, report, registry or getattr(job, "registry", None)
    )
    if analysis.order:
        _check_reject_links(job, report)
        _check_fusion_chains(analysis)
    return report


def analyze_graph(
    graph: OhmGraph, registry: Optional[FunctionRegistry] = None
) -> AnalysisReport:
    """Statically analyze an OHM graph without executing it."""
    report = AnalysisReport(subject=f"OHM instance {graph.name!r}")
    analysis = _analyze_dataflow(graph, report, registry)
    if analysis.order and not report.errors:
        _check_pushdown_regions(analysis)
    return report


# -- mappings -----------------------------------------------------------------


def _binding_resolver(mapping: Mapping):
    """An attribute resolver over a mapping's source bindings (for the
    NULL-ness pass)."""
    by_var = {b.var: b.relation for b in mapping.sources}

    def resolve(ref):
        if ref.qualifier is not None:
            rel = by_var.get(ref.qualifier)
            if rel is not None and rel.has_attribute(ref.name):
                return rel.attribute(ref.name)
            return None
        holders = [
            rel for rel in by_var.values() if rel.has_attribute(ref.name)
        ]
        if len(holders) == 1:
            return holders[0].attribute(ref.name)
        return None

    return resolve


def _analyze_mapping(
    mapping: Mapping, report: AnalysisReport,
    registry: Optional[FunctionRegistry],
) -> None:
    from repro.expr.ast import TRUE

    if mapping.is_opaque:
        return
    name = mapping.name
    context = mapping.type_context()
    try:
        check_boolean(mapping.where, context, registry)
    except OrchidError as exc:
        report.emit(
            _classify(exc),
            str(exc),
            mapping=name,
            expression=(
                None if mapping.where is TRUE else mapping.where.to_sql()
            ),
        )
    for expr in mapping.group_by:
        try:
            infer_type(expr, context, registry)
        except OrchidError as exc:
            report.emit(
                _classify(exc), str(exc),
                mapping=name, expression=expr.to_sql(),
            )
    resolve = _binding_resolver(mapping)
    for col, expr in mapping.derivations:
        try:
            attr = mapping.target.attribute(col)
        except OrchidError:
            report.emit(
                "ORC030",
                f"{name}: derivation targets unknown column {col!r} of "
                f"{mapping.target.name!r}",
                hint="fix the column name or extend the target schema",
                mapping=name,
                expression=expr.to_sql(),
            )
            continue
        try:
            inferred = infer_type(
                expr, context, registry, allow_aggregates=True
            )
        except OrchidError as exc:
            report.emit(
                _classify(exc), str(exc),
                mapping=name, expression=expr.to_sql(),
            )
            continue
        if not attr.dtype.accepts(inferred):
            report.emit(
                "ORC002",
                f"{name}: derivation {col!r} has type {inferred!r}, "
                f"target column wants {attr.dtype!r}",
                hint="convert the value or widen the target column type",
                mapping=name,
                expression=expr.to_sql(),
            )
            continue
        if not attr.nullable and infer_nullable(expr, resolve):
            report.emit(
                "ORC004",
                f"{name}: derivation {col!r} can be NULL but target "
                f"column {mapping.target.name}.{col} is NOT NULL",
                hint="COALESCE the value or declare the target column "
                "nullable",
                mapping=name,
                expression=expr.to_sql(),
            )


def analyze_mappings(
    mappings: Union[MappingSet, Sequence[Mapping]],
    registry: Optional[FunctionRegistry] = None,
) -> AnalysisReport:
    """Statically analyze a mapping set without executing it."""
    if not isinstance(mappings, MappingSet):
        mappings = MappingSet(mappings)
    report = AnalysisReport(subject=f"{len(mappings)} mapping(s)")
    seen: Set[str] = set()
    for mapping in mappings:
        if mapping.name in seen:
            report.emit(
                "ORC030",
                f"duplicate mapping name {mapping.name!r}",
                hint="rename one of the mappings",
                mapping=mapping.name,
            )
        seen.add(mapping.name)
    # ORC010 over the relation-dependency DAG: a mapping reading a
    # relation produced by a later mapping that (transitively) reads
    # its own target can never be staged
    producers: Dict[str, List[str]] = {}
    for mapping in mappings:
        producers.setdefault(mapping.target.name, []).append(mapping.name)
    depends: Dict[str, Set[str]] = {
        m.name: {
            p
            for rel in m.source_relation_names
            for p in producers.get(rel, ())
        }
        for m in mappings
    }
    state: Dict[str, int] = {}

    def cyclic(name: str, trail: List[str]) -> Optional[List[str]]:
        state[name] = 1
        for dep in sorted(depends.get(name, ())):
            if state.get(dep) == 1:
                return trail + [dep]
            if state.get(dep, 0) == 0:
                found = cyclic(dep, trail + [dep])
                if found:
                    return found
        state[name] = 2
        return None

    for mapping in mappings:
        if state.get(mapping.name, 0) == 0:
            found = cyclic(mapping.name, [mapping.name])
            if found:
                report.emit(
                    "ORC010",
                    "mapping dependency cycle: " + " -> ".join(found),
                    hint="break the cycle with a materialized "
                    "intermediate relation",
                    mapping=found[0],
                )
                break
    for mapping in mappings:
        _analyze_mapping(mapping, report, registry)
    return report


# -- expression helper --------------------------------------------------------


def analyze_expression(
    text: Union[str, Expr],
    relation: Optional[Relation] = None,
    registry: Optional[FunctionRegistry] = None,
    boolean: bool = False,
) -> AnalysisReport:
    """Lint one expression: parse errors (ORC001), then — given a
    relation — type errors (ORC002) and, with ``boolean=True``,
    non-boolean predicates (ORC003)."""
    source = text if isinstance(text, str) else text.to_sql()
    report = AnalysisReport(subject=f"expression {source!r}")
    if isinstance(text, str):
        try:
            expr = parse(text)
        except ParseError as exc:
            report.emit("ORC001", str(exc), expression=source)
            return report
    else:
        expr = text
    if relation is not None:
        try:
            if boolean:
                check_boolean(expr, relation, registry)
            else:
                infer_type(expr, relation, registry)
        except OrchidError as exc:
            report.emit(_classify(exc), str(exc), expression=source)
    return report


# -- dispatch -----------------------------------------------------------------


def analyze(
    subject, registry: Optional[FunctionRegistry] = None
) -> AnalysisReport:
    """Analyze any plan-shaped object: an ETL :class:`Job`, an
    :class:`OhmGraph`, a :class:`MappingSet`, or a sequence of
    mappings."""
    if isinstance(subject, Job):
        return analyze_job(subject, registry)
    if isinstance(subject, OhmGraph):
        return analyze_graph(subject, registry)
    if isinstance(subject, MappingSet):
        return analyze_mappings(subject, registry)
    if isinstance(subject, (list, tuple)) and all(
        isinstance(m, Mapping) for m in subject
    ):
        return analyze_mappings(subject, registry)
    raise ValidationError(
        f"cannot statically analyze {type(subject).__name__!r}: expected "
        "a Job, an OhmGraph, or mappings"
    )


def check_plan(
    subject, registry: Optional[FunctionRegistry] = None
) -> AnalysisReport:
    """Every engine run's pre-run hook: analyze ``subject``
    and raise :class:`ValidationError` (carrying the first error's
    location) when any error-severity diagnostic is found — before a
    single row is processed. Warnings and infos never block a run."""
    report = analyze(subject, registry)
    if not report.ok:
        first = report.errors[0]
        loc = first.location
        raise ValidationError(
            f"static analysis rejected the plan: {len(report.errors)} "
            f"error(s); first is {first.code}: {first.message}",
            stage=loc.stage or loc.mapping,
            operator=loc.operator,
            link=loc.link,
            expression=loc.expression,
        )
    return report


__all__ = [
    "analyze",
    "analyze_expression",
    "analyze_graph",
    "analyze_job",
    "analyze_mappings",
    "check_plan",
]

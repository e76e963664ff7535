"""The static analyzer: lint OHM graphs, ETL jobs, and mapping sets
without executing them.

Where a run's ``validate_structure`` / ``propagate_schemas`` stop at the
first failure, the analyzer reads the *collecting* form of the same two
methods (:mod:`repro.dataflow`), so each decision has one implementation
and lint-clean implies run-clean, and gathers diagnostics over the whole
plan:

* **structure** — cycles (ORC010), the graph's own wiring checks
  (ORC011: port counts, contiguous ports, reject support and placement),
  duplicate link names (ORC012), unreachable stages (ORC013), reject
  links that can never receive rows (ORC014);
* **types** — the graph's schema propagation, collecting: a node it
  cannot derive is reported (a node with several expressions is searched
  for the bad one, located by link and expression), and its downstream
  cone goes untyped. Parse errors (ORC001), type mismatches (ORC002),
  non-boolean predicates (ORC003), link-schema incompatibilities and the
  target column types a job's ``validate`` leaves open (ORC015);
* **NULL-ness** — three-valued nullability propagation
  (:mod:`repro.analysis.nullness`) warning when a nullable value flows
  into a NOT NULL target column (ORC004);
* **dataflow** — the graph's backward liveness walk over each node's
  ``reads`` (the one dead-column pruning uses) flagging columns that are
  computed but never read (ORC020), plus pushdown-region (ORC021) and
  fusion-chain (ORC022) placement lints.

Nothing in here writes an edge schema and nothing executes a row: the
derived schemas come back in a map. The derivation fills the nodes'
propagation memos, as a run's propagation would, so the run that
follows a check finds them warm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
        #: edge → derived schema, from the graph's collecting propagation
        #: (never written back onto the analyzed graph).
        self.schemas: Dict[Edge, Relation] = {}
        #: uid → what its ``validate`` / ``output_relations`` raised.
        self.failed: Dict[str, OrchidError] = {}
        self.order: List = []

    def locate(self, uid: str, **extra) -> Dict[str, str]:
        loc = {self.noun: uid}
        loc.update({k: v for k, v in extra.items() if v is not None})
        return loc

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
        """Acyclicity (ORC010) and the graph's own wiring checks, every
        failure of every node an ORC011; returns False when the graph is
        cyclic (no further pass is well-defined then)."""
        try:
            self.order = self.graph.topological_order()
        except GraphError as exc:
            self.report.emit(
                "ORC010", str(exc), hint="remove the cyclic link(s)"
            )
            return False

        def miswired(uid: str, exc: OrchidError) -> None:
            self.report.emit(
                "ORC011",
                str(exc),
                hint=f"rewire the links onto the ports the {self.noun} "
                f"declares, or remove the {self.noun}",
                **self.locate(uid),
            )

        self.graph.validate_structure(miswired)
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
        """Derive every schema through the graph's own propagation, in
        its collecting form, and report each node it could not derive.
        A node holding several expressions is then searched for the bad
        one (its expression and link located); its downstream cone stays
        untyped either way."""
        self.schemas = self.graph.propagate_schemas(self.failed.__setitem__)
        for node in self.order:
            uid = node.uid
            in_edges = self.graph.in_edges(uid)
            inputs = [self.schemas.get(e) for e in in_edges]
            exc = self.failed.get(uid)
            if exc is None:
                self._check_target_types(node, in_edges, inputs)
                continue
            known = [schema for schema in inputs if schema is not None]
            located = len(known) == len(inputs) and (
                self._locate_expressions(node, known)
            )
            if not (located and _classify(exc) in _EXPRESSION_CODES):
                self.report.emit(_classify(exc), str(exc), **self.locate(uid))

    def _locate_expressions(self, node, inputs: List[Relation]) -> bool:
        """Report each of ``node``'s expressions that fails on its own;
        whether any did."""
        located = False
        for expr, link, boolean, aggregates, context in (
            self._expression_checks(node, inputs)
        ):
            try:
                if boolean:
                    check_boolean(expr, context, self.registry, aggregates)
                else:
                    infer_type(expr, context, self.registry, aggregates)
            except OrchidError as exc:
                located = True
                self.report.emit(
                    _classify(exc),
                    str(exc),
                    **self.locate(
                        node.uid, link=link, expression=expr.to_sql()
                    ),
                )
        return located

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
            incoming = self.schemas.get(edge)
            if incoming is None:
                continue
            producer = graph.node(edge.src)
            producer_inputs = graph.in_edges(edge.src)
            producer_rel = (
                self.schemas.get(producer_inputs[0])
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


# -- dead columns -------------------------------------------------------------


def _check_dead_columns(analysis: _GraphAnalysis) -> None:
    """ORC020 for every column a Transformer/PROJECT/Aggregator/GROUP/
    SurrogateKey computes that no downstream consumer reads, by the
    graph's liveness walk over the derived schemas (on OHM: exactly what
    dead-column pruning would drop from a PROJECT)."""
    graph = analysis.graph
    is_job = isinstance(graph, Job)
    live = graph.live_columns(analysis.schemas.get)

    def dead(edge, computed: List[Tuple[str, Optional[Expr]]], uid: str):
        req = live[edge]
        if req is None:
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

"""Pushdown analysis: hybrid SQL + ETL deployment (paper section VI-B).

"Orchid pushes as much processing as possible to the DBMS by identifying
maximal OHM operator subgraphs that process data originating from the
same source and assigning the operators to the DBMS platform, if the
operator is supported by the DBMS. In our example scenario, Orchid
identifies the operators up to and including the GROUP operator as
operators to be pushed into the DBMS."

Which operators are pushable mirrors the mapping-composition rules: a
maximal pushed region is exactly a region whose composed mapping is one
single-block SELECT (or a UNION ALL of them). The *frontier* edges — the
cuts between the pushed region and the residual ETL job — become SQL
statements; the residual graph deploys to the ETL platform as usual.

Pushability says what *can* move; the cost-based planning layer
(:mod:`repro.cost`) says what *should*. Given a
:class:`~repro.cost.StatisticsCatalog` covering the pushable sources,
``plan_pushdown`` splits the maximal pushable region into *parts* —
operators joined by edges inside the region — and prices each part once
on both platforms at the measured rates of :mod:`repro.cost.model`:
pushed, loading its own sources into the DBMS, evaluating it in SQL and
transferring its frontier relations back; kept, its operators in the
engine. Each part goes to the cheaper side. :meth:`HybridPlan.execute`
loads only the pushed parts' sources, so the parts' costs add up and
the per-part choice is the model's best plan among those that push each
part whole or not at all. A star of many joins pays off; the paper's
job and a join that expands rows do not, and an empty pushed region
skips the DBMS entirely. Without a catalog the paper's pushability-only
maximal pushdown is kept exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from repro.cost import (
    CardinalityEstimator,
    CostModel,
    DEFAULT_MODEL,
    GraphEstimate,
    StatisticsCatalog,
)
from repro.cost.model import output_width
from repro.data.dataset import Instance
from repro.dataflow import Edge
from repro.deploy.datastage import deploy_to_job
from repro.deploy.platform import RuntimePlatform
from repro.deploy.sql import (
    DEFAULT_DIALECT,
    SqliteDialect,
    SqliteRunner,
    mappings_to_select,
)
from repro.errors import BreakerOpen, DeploymentError
from repro.etl.engine import EtlEngine
from repro.etl.model import Job
from repro.expr.ast import ColumnRef
from repro.mapping.from_ohm import ohm_to_mappings
from repro.obs import NULL_OBS, Observability
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import (
    Filter,
    Group,
    Join,
    Project,
    Source,
    Target,
    Union,
)
from repro.ohm.subtypes import KeyGen
from repro.schema.model import Relation


class _PushState:
    __slots__ = ("pushable", "grouped")

    def __init__(self, pushable: bool, grouped: bool = False):
        self.pushable = pushable
        self.grouped = grouped


def _classify(
    graph: OhmGraph, dialect: SqliteDialect
) -> Dict[str, _PushState]:
    """Pushability per operator, tracking the same 'grouped' composition
    blocker the mapping extraction uses."""
    states: Dict[str, _PushState] = {}
    for op in graph.topological_order():
        inputs = [states[e.src] for e in graph.in_edges(op.uid)]
        if isinstance(op, Source):
            # a DBMS table holds scalars: nested columns stay in the engine
            states[op.uid] = _PushState(
                op.provider is None and op.relation.is_flat()
            )
            continue
        if isinstance(op, Target) or not inputs:
            states[op.uid] = _PushState(False)
            continue
        if not all(s.pushable for s in inputs):
            states[op.uid] = _PushState(False)
            continue
        states[op.uid] = self_state = _PushState(False)
        if isinstance(op, KeyGen):
            continue  # surrogate keys are an engine-side feature
        if isinstance(op, Filter):
            if not inputs[0].grouped and dialect.supports_expression(
                op.condition
            ):
                self_state.pushable = True
                self_state.grouped = inputs[0].grouped
            continue
        if isinstance(op, Project):
            supported = all(
                dialect.supports_expression(e) for _c, e in op.derivations
            )
            is_rename = all(
                isinstance(e, ColumnRef) for _c, e in op.derivations
            )
            if supported and (not inputs[0].grouped or is_rename):
                self_state.pushable = True
                self_state.grouped = inputs[0].grouped
            continue
        if isinstance(op, Join):
            if (
                op.kind == "inner"
                and not any(s.grouped for s in inputs)
                and dialect.supports_expression(op.condition)
            ):
                self_state.pushable = True
            continue
        if isinstance(op, Group):
            supported = all(
                dialect.supports_expression(agg) for _c, agg in op.aggregates
            )
            if not inputs[0].grouped and supported:
                self_state.pushable = True
                self_state.grouped = True
            continue
        if isinstance(op, Union):
            # each branch becomes its own SELECT in a UNION ALL
            self_state.pushable = True
            self_state.grouped = op.distinct
            continue
        # SPLIT, UNKNOWN, NEST, UNNEST: never pushed
    return states


class FragmentDecision(NamedTuple):
    """Why one fragment of a hybrid plan landed where it did.

    :ivar name: the frontier relation (SQL fragments) or residual job
        name (the ETL fragment).
    :ivar placement: ``"sql"`` or ``"etl"``.
    :ivar rows: estimated rows the fragment produces (None without a
        catalog — pushability-only mode plans blind).
    :ivar cost: estimated cost in row-units: for a SQL fragment, its
        part pushed (loading the part's sources, evaluating it, and
        transferring its frontier relations back); for the ETL
        fragment, the residual job in the engine.
    :ivar reason: one human-readable sentence.
    """

    name: str
    placement: str
    rows: Optional[float] = None
    cost: Optional[float] = None
    reason: str = ""

    def __repr__(self) -> str:
        return f"FragmentDecision({self.name!r} -> {self.placement})"


class HybridPlan:
    """A combined deployment: SQL statements computing the frontier
    relations on the DBMS, plus the residual ETL job reading them.

    :ivar statements: frontier relation name → SELECT statement (empty
        when cost-based planning kept everything in the ETL engine).
    :ivar frontier_schemas: frontier relation name → relation.
    :ivar job: the residual ETL job (its sources include the frontier
        relations).
    :ivar pushed_operator_uids: which OHM operators were pushed.
    :ivar decisions: per-fragment :class:`FragmentDecision` records.
    :ivar estimate: the :class:`~repro.cost.GraphEstimate` the placement
        was costed from (None in pushability-only mode).
    :ivar loaded: the source relations the statements read — all that
        :meth:`execute` loads into the DBMS.
    """

    def __init__(
        self,
        statements: Dict[str, str],
        frontier_schemas: Dict[str, Relation],
        job: Job,
        pushed_operator_uids: Set[str],
        plan,
        decisions: Optional[List[FragmentDecision]] = None,
        estimate: Optional[GraphEstimate] = None,
        graph: Optional[OhmGraph] = None,
        platform: Optional[RuntimePlatform] = None,
        loaded: Sequence[str] = (),
    ):
        self.statements = statements
        self.frontier_schemas = frontier_schemas
        self.job = job
        self.pushed_operator_uids = pushed_operator_uids
        self.etl_plan = plan
        self.decisions = decisions or []
        self.estimate = estimate
        #: the source OHM graph and target platform, kept so an open
        #: circuit breaker can degrade to a fully-local deployment
        self.graph = graph
        self.platform = platform
        self.loaded = tuple(loaded)

    def execute(
        self, instance: Instance, retry=None, breaker=None, obs=None
    ) -> Instance:
        """Run the hybrid: SQL on the (sqlite) DBMS holding the source
        relations the statements read, then the residual ETL job over
        the query results plus any base relations the residual job still
        reads directly. A plan with nothing pushed skips the DBMS
        entirely.

        ``retry`` / ``breaker`` guard the DBMS endpoint (see
        :class:`~repro.deploy.sql.SqliteRunner`). When the breaker is
        already open — the DBMS kept dying through whole retry budgets
        on earlier runs — the pushed fragments degrade to a fully-local
        ETL deployment of the original graph
        (``deploy.degrade.pushdown_to_local``) instead of failing the
        run: the answer arrives slower, not at all wrong."""
        obs = obs or NULL_OBS
        if not self.statements:
            return EtlEngine().execute(self.job, instance)
        try:
            runner = SqliteRunner(
                Instance(instance.dataset(name) for name in self.loaded),
                retry=retry, breaker=breaker,
            )
            try:
                enriched = Instance(instance)
                for name, sql in self.statements.items():
                    enriched.put(
                        runner.query(sql, self.frontier_schemas[name])
                    )
                return EtlEngine().execute(self.job, enriched)
            finally:
                runner.close()
        except BreakerOpen:
            if self.graph is None:
                raise
            obs.metrics.count("deploy.degrade.pushdown_to_local")
            local_job, _ = deploy_to_job(
                self.graph,
                self.platform,
                name=f"{self.graph.name}_local",
                obs=obs,
            )
            return EtlEngine().execute(local_job, instance)

    def describe(self) -> str:
        lines = ["hybrid SQL + ETL deployment:"]
        by_name = {d.name: d for d in self.decisions}
        for name, sql in self.statements.items():
            decision = by_name.get(name)
            if decision is not None and decision.rows is not None:
                lines.append(
                    f"  -- {name} (pushed to the DBMS, "
                    f"~{decision.rows:.0f} rows out, "
                    f"cost {decision.cost:.0f} row-units)"
                )
            else:
                lines.append(f"  -- {name} (pushed to the DBMS)")
            if decision is not None and decision.reason:
                lines.append(f"     -- {decision.reason}")
            for line in sql.splitlines():
                lines.append(f"     {line}")
        if not self.statements:
            lines.append("  -- nothing pushed to the DBMS")
        residual = by_name.get(self.job.name)
        suffix = ""
        if residual is not None and residual.rows is not None:
            suffix = (
                f" (~{residual.rows:.0f} rows in, "
                f"cost {residual.cost:.0f} row-units)"
            )
        lines.append(
            f"  residual ETL job {self.job.name!r} with stages: "
            f"{[s.name for s in self.job.stages]}{suffix}"
        )
        if residual is not None and residual.reason:
            lines.append(f"     -- {residual.reason}")
        return "\n".join(lines)


def plan_pushdown(
    graph: OhmGraph,
    platform: Optional[RuntimePlatform] = None,
    dialect: Optional[SqliteDialect] = None,
    obs: Optional[Observability] = None,
    catalog: Optional[StatisticsCatalog] = None,
    model: Optional[CostModel] = None,
    estimator: Optional[CardinalityEstimator] = None,
) -> HybridPlan:
    """Compute the pushdown plan for an OHM instance.

    Without a ``catalog`` this is the paper's maximal pushdown:
    everything pushable is pushed. With a catalog covering the pushable
    sources, placement is cost-based — see the module docstring.

    With an :class:`~repro.obs.Observability`, records the pushdown
    decisions: ``deploy.pushdown.pushable`` / ``.not_pushable`` per
    classified operator, ``deploy.pushdown.pushed_operators`` /
    ``.frontier_edges`` for the chosen cut, and (cost mode)
    ``deploy.pushdown.cost_candidates`` (two per priced part) /
    ``.peeled`` (pushable operators left in the engine), under a
    ``deploy.pushdown`` span."""
    obs = obs or NULL_OBS
    with obs.tracer.span("deploy.pushdown", graph=graph.name) as span:
        dialect = dialect or DEFAULT_DIALECT
        work = graph.shallow_copy()
        work.propagate_schemas()
        states = _classify(work, dialect)
        pushable = {uid for uid, s in states.items() if s.pushable}
        if obs.enabled:
            obs.metrics.count("deploy.pushdown.pushable", len(pushable))
            obs.metrics.count(
                "deploy.pushdown.not_pushable", len(states) - len(pushable)
            )
        # a pushable operator that feeds no frontier edge does no work
        maximal = _upstream(
            work, pushable, (e.src for e in _frontier_of(work, pushable))
        )
        if not maximal:
            raise DeploymentError("nothing can be pushed down in this graph")
        sources = {
            op.uid: op.relation.name
            for op in work.operators
            if isinstance(op, Source) and op.uid in maximal
        }
        estimate: Optional[GraphEstimate] = None
        decisions: List[FragmentDecision] = []
        pushed = maximal
        if catalog is not None and catalog.covers(sources.values()):
            model = model or DEFAULT_MODEL
            estimator = estimator or CardinalityEstimator(catalog)
            estimate = estimator.estimate_graph(work)
            parts = _priced_parts(work, maximal, estimate, model)
            pushed = {uid for p in parts if p.pushes for uid in p.uids}
            if obs.enabled:
                obs.metrics.count(
                    "deploy.pushdown.cost_candidates", 2 * len(parts)
                )
                obs.metrics.count(
                    "deploy.pushdown.peeled", len(maximal) - len(pushed)
                )
            decisions = _decisions(
                work, parts, pushed, estimate, model, f"{graph.name}_residual"
            )

        frontier = _frontier_of(work, pushed)
        statements: Dict[str, str] = {}
        frontier_schemas: Dict[str, Relation] = {}
        for edge in frontier:
            sub = _pushed_subgraph(work, pushed, edge)
            # a UNION feeding the frontier materializes under the
            # frontier's own name; its copy onto itself is no part of the
            # statement
            producers = [
                m for m in ohm_to_mappings(sub).mappings
                if edge.name not in m.source_relation_names
            ]
            if not producers or any(
                m.target.name != edge.name for m in producers
            ):
                raise DeploymentError(
                    f"pushed region at {edge.name} did not compose into a "
                    "single SQL block; this is a bug in the pushability rules"
                )
            statements[edge.name] = mappings_to_select(producers, dialect)
            frontier_schemas[edge.name] = _schema(edge)

        if obs.enabled:
            obs.metrics.count("deploy.pushdown.pushed_operators", len(pushed))
            obs.metrics.count("deploy.pushdown.frontier_edges", len(frontier))
        residual = _residual_graph(work, pushed, frontier)
        job, plan = deploy_to_job(
            residual, platform, name=f"{graph.name}_residual", obs=obs
        )
        if obs.enabled:
            span.set(
                pushed_operators=len(pushed), frontier_edges=len(statements)
            )
    return HybridPlan(
        statements, frontier_schemas, job, pushed, plan,
        decisions=decisions, estimate=estimate,
        graph=graph, platform=platform,
        loaded=sorted({sources[uid] for uid in pushed if uid in sources}),
    )


# -- cost-based placement -----------------------------------------------------


def _frontier_of(graph: OhmGraph, pushed: Set[str]) -> List[Edge]:
    return [e for e in graph.edges if e.src in pushed and e.dst not in pushed]


def _upstream(
    graph: OhmGraph, region: Set[str], starts: Iterable[str]
) -> Set[str]:
    """The operators of ``region`` that feed ``starts`` (themselves
    included) over edges inside the region."""
    cone: Set[str] = set()
    to_visit = list(starts)
    while to_visit:
        uid = to_visit.pop()
        if uid not in cone:
            cone.add(uid)
            to_visit.extend(
                e.src for e in graph.in_edges(uid) if e.src in region
            )
    return cone


def _width(relation: Relation) -> int:
    return len(relation.attribute_names)


def _schema(edge: Edge) -> Relation:
    """An edge's schema; planning propagates one onto every edge."""
    if edge.schema is None:
        raise DeploymentError(f"edge {edge.name!r} carries no schema")
    return edge.schema


class _Part(NamedTuple):
    """One connected part of the maximal pushable region, priced once
    on each platform: ``push`` by term — ``load`` (its own sources),
    ``evaluation`` (its operators in SQL) and ``transfer`` (its frontier
    relations back out) — and ``keep``, its operators in the engine."""

    uids: Set[str]
    push: Dict[str, float]
    keep: float

    @property
    def pushes(self) -> bool:
        return sum(self.push.values()) <= self.keep


def _etl_cost(
    graph: OhmGraph, uid: str, estimate: GraphEstimate, model: CostModel
) -> float:
    op, op_estimate = graph.operator(uid), estimate.operators[uid]
    return model.etl_operator_cost(
        op.KIND, op_estimate.rows_in, op_estimate.rows_out,
        output_width(graph, op),
    )


def _priced_parts(
    graph: OhmGraph,
    region: Set[str],
    estimate: GraphEstimate,
    model: CostModel,
) -> List[_Part]:
    """The connected components of ``region`` over the edges inside it,
    in topological order, each priced pushed and kept."""
    neighbours: Dict[str, List[str]] = {uid: [] for uid in region}
    for e in graph.edges:
        if e.src in region and e.dst in region:
            neighbours[e.src].append(e.dst)
            neighbours[e.dst].append(e.src)
    components: List[Set[str]] = []
    for first in graph.topological_order():
        if first.uid not in region or any(first.uid in c for c in components):
            continue
        uids: Set[str] = set()
        to_visit = [first.uid]
        while to_visit:
            uid = to_visit.pop()
            if uid not in uids:
                uids.add(uid)
                to_visit.extend(neighbours[uid])
        components.append(uids)
    parts: List[_Part] = []
    for uids in components:
        push = dict.fromkeys(("load", "evaluation", "transfer"), 0.0)
        for op in (graph.operator(uid) for uid in uids):
            rows_in = estimate.operators[op.uid].rows_in
            rows_out = estimate.operators[op.uid].rows_out
            if isinstance(op, Source):
                push["load"] += model.sql_load(rows_out, _width(op.relation))
            push["evaluation"] += model.sql_operator_cost(
                op.KIND, rows_in, rows_out
            )
        for edge in _frontier_of(graph, uids):
            push["transfer"] += model.sql_transfer(
                estimate.edge_rows(edge.name), _width(_schema(edge))
            )
        keep = sum(_etl_cost(graph, uid, estimate, model) for uid in uids)
        parts.append(_Part(uids, push, keep))
    return parts


def _decisions(
    graph: OhmGraph,
    parts: List[_Part],
    pushed: Set[str],
    estimate: GraphEstimate,
    model: CostModel,
    residual_name: str,
) -> List[FragmentDecision]:
    """Per-fragment records of the placement, from the numbers the
    per-part choice compared: one per frontier SQL statement, one for
    the residual ETL job."""
    decisions: List[FragmentDecision] = []
    for part in (p for p in parts if p.pushes):
        push = sum(part.push.values())
        source_rows = sum(
            estimate.rows_out(uid) for uid in part.uids
            if isinstance(graph.operator(uid), Source)
        )
        for edge in _frontier_of(graph, part.uids):
            rows = estimate.edge_rows(edge.name)
            decisions.append(FragmentDecision(
                edge.name, "sql", rows, push,
                f"SQL reduces ~{source_rows:.0f} source rows to "
                f"~{rows:.0f} before transfer; its part costs {push:.0f} "
                f"row-units pushed vs {part.keep:.0f} in the ETL engine",
            ))
    residual = [op for op in graph.operators if op.uid not in pushed]
    residual_rows = sum(
        estimate.edge_rows(e.name) for e in _frontier_of(graph, pushed)
    ) + sum(
        estimate.rows_out(op.uid) for op in residual if isinstance(op, Source)
    )
    residual_cost = sum(
        _etl_cost(graph, op.uid, estimate, model) for op in residual
    )
    if pushed:
        region = sum(len(p.uids) for p in parts)
        reason = (
            f"{len(pushed)} of {region} pushable operators placed on the "
            f"DBMS; the rest run cheaper in the ETL engine"
        )
    else:
        terms = {
            term: sum(p.push[term] for p in parts)
            for term in ("load", "evaluation", "transfer")
        }
        maximal_cost = (
            residual_cost - sum(p.keep for p in parts) + sum(terms.values())
        )
        reason = (
            f"nothing pushed: pure ETL costs {residual_cost:.0f} row-units "
            f"vs {maximal_cost:.0f} for the maximal pushdown "
            f"({max(terms, key=terms.__getitem__)} dominates)"
        )
    decisions.append(FragmentDecision(
        residual_name, "etl", residual_rows, residual_cost, reason
    ))
    return decisions


def _pushed_subgraph(
    graph: OhmGraph, pushed: Set[str], frontier_edge: Edge
) -> OhmGraph:
    """The cone of pushed operators feeding one frontier edge, terminated
    by a TARGET carrying the frontier relation."""
    cone = _upstream(graph, pushed, [frontier_edge.src])
    sub = OhmGraph(f"pushed:{frontier_edge.name}")
    for uid in cone:
        sub.add(graph.operator(uid))
    for edge in graph.edges:
        if edge.src in cone and edge.dst in cone:
            sub.add_edge_object(
                Edge(edge.src, edge.src_port, edge.dst, edge.dst_port,
                     edge.name, edge.schema)
            )
    target = Target(_schema(frontier_edge))
    sub.add(target)
    sub.add_edge_object(
        Edge(frontier_edge.src, frontier_edge.src_port, target.uid, 0,
             frontier_edge.name, frontier_edge.schema)
    )
    return sub


def _residual_graph(
    graph: OhmGraph, pushed: Set[str], frontier: List[Edge]
) -> OhmGraph:
    """The not-pushed remainder, reading the frontier relations through
    fresh SOURCE operators."""
    residual = OhmGraph(f"{graph.name}_residual")
    for op in graph.operators:
        if op.uid not in pushed:
            residual.add(op)
    for edge in graph.edges:
        if edge.src not in pushed and edge.dst not in pushed:
            residual.add_edge_object(
                Edge(edge.src, edge.src_port, edge.dst, edge.dst_port,
                     edge.name, edge.schema)
            )
    for edge in frontier:
        source = Source(_schema(edge), label=edge.name)
        residual.add(source)
        residual.add_edge_object(
            Edge(source.uid, 0, edge.dst, edge.dst_port, edge.name,
                 edge.schema)
        )
    residual.propagate_schemas()
    return residual


__all__ = ["FragmentDecision", "HybridPlan", "plan_pushdown"]

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

Pushability says what *can* move; since the cost-based planning layer
(:mod:`repro.cost`) it no longer says what *should*. When
``plan_pushdown`` is given a :class:`~repro.cost.StatisticsCatalog`
covering the pushable sources (and ``cost`` is left on), it starts from
the maximal pushable region and greedily *peels* operators back onto the
ETL side while the modelled total cost improves, pricing each operator
at the measured rate of its kind on its platform
(:mod:`repro.cost.model`). Sources that start in memory must first be
loaded into the DBMS, so a region pays off only when sqlite's
evaluation saves more than that load and the transfer back — a star of
many joins does, the paper's job and a join that expands rows do not.
The all-ETL plan is a legal outcome — an empty pushed region skips the
DBMS entirely. ``cost=False`` (or no catalog) keeps the paper's
pushability-only maximal pushdown exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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
    Operator,
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
            states[op.uid] = _PushState(op.provider is None)
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


class FragmentDecision:
    """Why one fragment of a hybrid plan landed where it did.

    :ivar name: the frontier relation (SQL fragments) or residual job
        name (the ETL fragment).
    :ivar placement: ``"sql"`` or ``"etl"``.
    :ivar rows: estimated rows the fragment produces (None without a
        catalog — pushability-only mode plans blind).
    :ivar cost: estimated cost of the fragment in row-units, including
        the transfer of its output for SQL fragments.
    :ivar reason: one human-readable sentence.
    """

    __slots__ = ("name", "placement", "rows", "cost", "reason")

    def __init__(
        self,
        name: str,
        placement: str,
        rows: Optional[float] = None,
        cost: Optional[float] = None,
        reason: str = "",
    ):
        self.name = name
        self.placement = placement
        self.rows = rows
        self.cost = cost
        self.reason = reason

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

    def execute(
        self, instance: Instance, retry=None, breaker=None, obs=None
    ) -> Instance:
        """Run the hybrid: SQL on the (sqlite) DBMS holding the source
        data, then the residual ETL job over the query results plus any
        base relations the residual job still reads directly. A plan
        with nothing pushed skips the DBMS entirely.

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
            runner = SqliteRunner(instance, retry=retry, breaker=breaker)
            try:
                enriched = Instance()
                for dataset in instance:
                    enriched.put(dataset)
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
    cost: bool = True,
    catalog: Optional[StatisticsCatalog] = None,
    model: Optional[CostModel] = None,
    estimator: Optional[CardinalityEstimator] = None,
) -> HybridPlan:
    """Compute the pushdown plan for an OHM instance.

    Without a ``catalog`` (or with ``cost=False``) this is the paper's
    maximal pushdown: everything pushable is pushed. With a catalog
    covering the pushable sources, placement is cost-based — see the
    module docstring.

    With an :class:`~repro.obs.Observability`, records the pushdown
    decisions: ``deploy.pushdown.pushable`` / ``.not_pushable`` per
    classified operator, ``deploy.pushdown.pushed_operators`` /
    ``.frontier_edges`` for the chosen cut, and (cost mode)
    ``deploy.pushdown.cost_candidates`` / ``.peeled`` for the search,
    under a ``deploy.pushdown`` span."""
    obs = obs or NULL_OBS
    with obs.tracer.span("deploy.pushdown", graph=graph.name) as span:
        plan = _plan_pushdown_impl(
            graph, platform, dialect, obs, cost, catalog, model, estimator
        )
        if obs.enabled:
            span.set(
                pushed_operators=len(plan.pushed_operator_uids),
                frontier_edges=len(plan.statements),
            )
    return plan


def _plan_pushdown_impl(
    graph: OhmGraph,
    platform: Optional[RuntimePlatform],
    dialect: Optional[SqliteDialect],
    obs: Observability,
    cost: bool,
    catalog: Optional[StatisticsCatalog],
    model: Optional[CostModel],
    estimator: Optional[CardinalityEstimator],
) -> HybridPlan:
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
    maximal = _feeding_set(work, pushable)
    if not maximal:
        raise DeploymentError("nothing can be pushed down in this graph")

    estimate: Optional[GraphEstimate] = None
    decisions: List[FragmentDecision] = []
    pushed = maximal
    if cost and catalog is not None and catalog.covers(
        op.relation.name
        for op in work.operators
        if isinstance(op, Source) and op.uid in maximal
    ):
        model = model or DEFAULT_MODEL
        estimator = estimator or CardinalityEstimator(catalog)
        estimate = estimator.estimate_graph(work)
        pushed, chosen_cost, candidates = _choose_pushed(
            work, maximal, estimate, model
        )
        if obs.enabled:
            obs.metrics.count("deploy.pushdown.cost_candidates", candidates)
            obs.metrics.count(
                "deploy.pushdown.peeled", len(maximal) - len(pushed)
            )
        decisions = _fragment_decisions(
            work, pushed, maximal, estimate, model, chosen_cost,
            f"{graph.name}_residual",
        )

    frontier = [e for e in work.edges if e.src in pushed and e.dst not in pushed]
    statements: Dict[str, str] = {}
    frontier_schemas: Dict[str, Relation] = {}
    for edge in frontier:
        sub = _pushed_subgraph(work, pushed, edge)
        # a UNION feeding the frontier materializes under the frontier's
        # own name; its copy onto itself is no part of the statement
        producers = [
            m for m in ohm_to_mappings(sub).mappings
            if edge.name not in m.source_relation_names
        ]
        if not producers or any(m.target.name != edge.name for m in producers):
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
    return HybridPlan(
        statements, frontier_schemas, job, pushed, plan,
        decisions=decisions, estimate=estimate,
        graph=graph, platform=platform,
    )


# -- cost-based placement -----------------------------------------------------


def _frontier_of(graph: OhmGraph, pushed: Set[str]) -> List[Edge]:
    return [
        e for e in graph.edges if e.src in pushed and e.dst not in pushed
    ]


def _feeding_set(graph: OhmGraph, pushed: Set[str]) -> Set[str]:
    """The subset of ``pushed`` that actually feeds a frontier edge —
    operators whose whole cone of consumers is inside the region do no
    useful work and drop out."""
    feeding: Set[str] = set()
    to_visit = [e.src for e in _frontier_of(graph, pushed)]
    while to_visit:
        uid = to_visit.pop()
        if uid in feeding:
            continue
        feeding.add(uid)
        to_visit.extend(
            e.src for e in graph.in_edges(uid) if e.src in pushed
        )
    return feeding


def _width(relation: Relation) -> int:
    return len(relation.attribute_names)


def _schema(edge: Edge) -> Relation:
    """An edge's schema; planning propagates one onto every edge."""
    if edge.schema is None:
        raise DeploymentError(f"edge {edge.name!r} carries no schema")
    return edge.schema


def _plan_terms(
    graph: OhmGraph,
    pushed: Set[str],
    estimate: GraphEstimate,
    model: CostModel,
) -> Dict[str, float]:
    """The modelled cost of the hybrid with region ``pushed`` on the
    DBMS, by term: ``load`` (every table source goes into the DBMS once
    anything is pushed, as :meth:`HybridPlan.execute` does),
    ``evaluation`` (the pushed operators in SQL), ``transfer`` (each
    frontier relation back out) and ``etl`` (everything else on the ETL
    engine)."""
    terms = dict.fromkeys(("load", "evaluation", "transfer", "etl"), 0.0)
    for op in graph.operators:
        op_estimate = estimate.operators.get(op.uid)
        if op_estimate is None:
            continue
        if isinstance(op, Source) and pushed and op.provider is None:
            terms["load"] += model.sql_load(
                op_estimate.rows_out, _width(op.relation)
            )
        if op.uid in pushed:
            terms["evaluation"] += model.sql_operator_cost(
                op.KIND, op_estimate.rows_in, op_estimate.rows_out
            )
        else:
            terms["etl"] += model.etl_operator_cost(
                op.KIND, op_estimate.rows_in, op_estimate.rows_out,
                output_width(graph, op),
            )
    for edge in _frontier_of(graph, pushed):
        terms["transfer"] += model.sql_transfer(
            estimate.edge_rows(edge.name, estimate.rows_out(edge.src)),
            _width(_schema(edge)),
        )
    return terms


def _plan_cost(
    graph: OhmGraph,
    pushed: Set[str],
    estimate: GraphEstimate,
    model: CostModel,
) -> float:
    """Total modelled cost of the hybrid with region ``pushed``."""
    return sum(_plan_terms(graph, pushed, estimate, model).values())


def _peelable(graph: OhmGraph, pushed: Set[str]) -> List[str]:
    """Operators at the top of the pushed region: every consumer is
    already outside, so removing one keeps the region frontier-closed."""
    return sorted(
        uid for uid in pushed
        if all(e.dst not in pushed for e in graph.out_edges(uid))
    )


def _choose_pushed(
    graph: OhmGraph,
    maximal: Set[str],
    estimate: GraphEstimate,
    model: CostModel,
) -> Tuple[Set[str], float, int]:
    """Greedy peel: start from the maximal pushable region and move
    top operators back to the ETL side while the total modelled cost
    improves. Returns (chosen region, its cost, candidates costed).
    Reaches the empty region — pure ETL — when nothing pushed is worth
    the transfer."""
    best = set(maximal)
    best_cost = _plan_cost(graph, best, estimate, model)
    candidates = 1
    improved = True
    while improved and best:
        improved = False
        for uid in _peelable(graph, best):
            trial = set(best)
            trial.discard(uid)
            trial = _feeding_set(graph, trial)
            trial_cost = _plan_cost(graph, trial, estimate, model)
            candidates += 1
            if trial_cost < best_cost - 1e-9:
                best, best_cost = trial, trial_cost
                improved = True
                break
    # the all-ETL plan is always a candidate: every table source is
    # loaded once anything is pushed, so no single peel saves the load,
    # and when moving data dominates every intermediate cut can be worse
    # than the maximal push even though pushing nothing beats both —
    # greedy peeling alone would never reach it
    if best:
        etl_cost = _plan_cost(graph, set(), estimate, model)
        candidates += 1
        if etl_cost < best_cost - 1e-9:
            best, best_cost = set(), etl_cost
    return best, best_cost, candidates


def _fragment_decisions(
    graph: OhmGraph,
    pushed: Set[str],
    maximal: Set[str],
    estimate: GraphEstimate,
    model: CostModel,
    chosen_cost: float,
    residual_name: str,
) -> List[FragmentDecision]:
    """Per-fragment records of the placement: one per frontier SQL
    statement, one for the residual ETL job."""
    etl_cost = _plan_cost(graph, set(), estimate, model)
    decisions: List[FragmentDecision] = []
    frontier = _frontier_of(graph, pushed)
    for edge in frontier:
        cone = _cone_of(graph, pushed, edge)
        rows = estimate.edge_rows(edge.name, estimate.rows_out(edge.src))
        sources = [
            op for op in graph.operators
            if isinstance(op, Source) and op.uid in cone
        ]
        source_rows = sum(estimate.rows_out(op.uid) for op in sources)
        sql_cost = sum(
            model.sql_load(estimate.rows_out(op.uid), _width(op.relation))
            for op in sources
        ) + sum(
            model.sql_operator_cost(
                graph.operator(uid).KIND,
                estimate.operators[uid].rows_in,
                estimate.operators[uid].rows_out,
            )
            for uid in cone
            if uid in estimate.operators
        ) + model.sql_transfer(rows, _width(_schema(edge)))
        decisions.append(FragmentDecision(
            edge.name, "sql", rows, sql_cost,
            f"SQL reduces ~{source_rows:.0f} source rows to ~{rows:.0f} "
            f"before transfer; hybrid {chosen_cost:.0f} vs pure-ETL "
            f"{etl_cost:.0f} row-units",
        ))
    residual_rows = sum(
        estimate.edge_rows(e.name, estimate.rows_out(e.src))
        for e in frontier
    ) if frontier else sum(
        estimate.rows_out(op.uid)
        for op in graph.operators
        if isinstance(op, Source)
    )
    residual_cost = _plan_terms(graph, pushed, estimate, model)["etl"]
    if pushed:
        reason = (
            f"{len(pushed)} of {len(maximal)} pushable operators placed on "
            f"the DBMS; the rest run cheaper in the ETL engine"
        )
    else:
        terms = _plan_terms(graph, maximal, estimate, model)
        dominant = max(("load", "evaluation", "transfer"), key=terms.__getitem__)
        reason = (
            f"nothing pushed: pure ETL costs {etl_cost:.0f} row-units vs "
            f"{sum(terms.values()):.0f} for the maximal pushdown "
            f"({dominant} dominates)"
        )
    decisions.append(FragmentDecision(
        residual_name, "etl", residual_rows, residual_cost, reason
    ))
    return decisions


def _cone_of(graph: OhmGraph, pushed: Set[str], edge: Edge) -> Set[str]:
    """The pushed operators upstream of one frontier edge."""
    cone: Set[str] = set()
    to_visit = [edge.src]
    while to_visit:
        uid = to_visit.pop()
        if uid in cone:
            continue
        cone.add(uid)
        to_visit.extend(
            e.src for e in graph.in_edges(uid) if e.src in pushed
        )
    return cone


def _pushed_subgraph(
    graph: OhmGraph, pushed: Set[str], frontier_edge: Edge
) -> OhmGraph:
    """The cone of pushed operators feeding one frontier edge, terminated
    by a TARGET carrying the frontier relation."""
    cone = _cone_of(graph, pushed, frontier_edge)
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

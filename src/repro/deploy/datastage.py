"""The DataStage runtime platform: RP operators and the OHM→job deployer
(paper section VI-B).

The registered repertoire mirrors the paper's discussion:

* "all DataStage stages can perform simple projections. Thus, the
  DataStage RP marks all its operators as capable of handling OHM's
  BASIC PROJECT" — every template below admits a trailing BASIC PROJECT,
* "The Filter and Transform DataStage stages can implement OHM's FILTER
  operator. Similarly, the OHM SPLIT operator can be implemented by
  DataStage's Copy, Switch, Filter, and Transform stages" — several RP
  operators match the same boxes; the choice step picks by priority,
  preferring the Filter stage when no complex projection is required,
* "the Aggregator template starts with a GROUP operator and cannot match
  a subgraph that starts with BASIC PROJECT" — the Aggregator matcher
  only accepts boxes whose entry is the GROUP itself.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dataflow import Edge
from repro.deploy.platform import (
    Box,
    DeploymentPlan,
    RpOperator,
    RuntimePlatform,
    plan_deployment,
)
from repro.deploy.shapes import BoxShape, analyze_box
from repro.errors import DeploymentError
from repro.etl.model import Job
from repro.obs import NULL_OBS, Observability
from repro.etl.stages import (
    AggregatorStage,
    CombineRecords,
    CopyStage,
    CustomStage,
    FilterOutput,
    FilterStage,
    FunnelStage,
    JoinStage,
    LookupStage,
    Modify,
    PromoteSubrecord,
    RemoveDuplicatesStage,
    SurrogateKey,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.expr.algebra import conjoin, rename_qualifiers, split_conjuncts
from repro.expr.ast import TRUE, BinaryOp, ColumnRef, Expr
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
from repro.ohm.subtypes import BasicProject, KeyGen


# --- box boundary helpers ------------------------------------------------------


def box_in_edges(graph: OhmGraph, shape: BoxShape, uids: Set[str]) -> List[Edge]:
    """External edges entering the box, in stage-input-port order."""
    member_uids = set(uids)
    edges = [
        e for e in graph.edges
        if e.dst in member_uids and e.src not in member_uids
    ]
    edges.sort(key=lambda e: (e.dst, e.dst_port))
    if shape.head is not None:
        head_edges = [e for e in edges if e.dst == shape.head.uid]
        if head_edges:
            head_edges.sort(key=lambda e: e.dst_port)
            return head_edges
    return edges


def box_out_edges(graph: OhmGraph, shape: BoxShape, uids: Set[str]) -> List[Edge]:
    """External edges leaving the box, in stage-output-port order: for
    fanout shapes, one per SPLIT branch in split-port order."""
    member_uids = set(uids)
    if shape.kind == "fanout":
        ordered = []
        for port_edge, branch in zip(
            graph.out_edges(shape.head.uid), shape.branches
        ):
            if branch:
                (exit_edge,) = graph.out_edges(branch[-1].uid)
                ordered.append(exit_edge)
            else:
                ordered.append(port_edge)
        return ordered
    exit_op = shape.chain[-1] if shape.chain else shape.head
    return graph.out_edges(exit_op.uid)


def _in_box_edge_names(graph: OhmGraph, uids: Set[str]) -> List[str]:
    names = []
    for e in graph.edges:
        if e.dst in uids:
            names.append(e.name)
    return names


def _localized(expr: Expr, graph: OhmGraph, uids: Set[str]) -> Expr:
    """Strip qualifiers that name edges touching the box — inside the
    deployed stage those columns are just the input link's columns."""
    renaming = {name: None for name in _in_box_edge_names(graph, uids)}
    return rename_qualifiers(expr, renaming)


def _branch_parts(branch: Sequence[Operator]):
    filters = [op for op in branch if isinstance(op, Filter)]
    projects = [op for op in branch if isinstance(op, Project)]
    return filters, projects


def _branch_is(branch, allow_filter: bool, project_kinds: tuple) -> bool:
    """Template check: branch must be [FILTER?][PROJECT?] with the
    project restricted to ``project_kinds`` (exact classes)."""
    i = 0
    if allow_filter and i < len(branch) and type(branch[i]) is Filter:
        i += 1
    if i < len(branch) and type(branch[i]) in project_kinds:
        i += 1
    return i == len(branch)


# --- the RP operators -----------------------------------------------------------


class FilterRp(RpOperator):
    """Filter stage: SPLIT? + per-output FILTER? + simple projection
    (the Figure 6 template, run in reverse)."""

    name = "Filter"
    priority = 30

    def matches(self, graph, shape):
        if shape.kind == "linear":
            return (
                _branch_is(shape.chain, True, (BasicProject,))
                and any(type(op) is Filter for op in shape.chain)
            )
        if shape.kind == "fanout":
            return all(
                _branch_is(branch, True, (BasicProject,))
                for branch in shape.branches
            )
        return False

    def build(self, graph, shape, box):
        branches = shape.branches if shape.kind == "fanout" else [shape.chain]
        outputs = []
        for branch in branches:
            filters, projects = _branch_parts(branch)
            where: Expr = conjoin(
                _localized(f.condition, graph, box.uids) for f in filters
            )
            columns = None
            if projects:
                columns = list(projects[0].columns)
            outputs.append(FilterOutput(where, columns))
        label = _box_label(graph, box)
        return FilterStage(outputs, name=label)


class TransformerRp(RpOperator):
    """Transformer stage: constraints + arbitrary derivations, with or
    without an output fanout."""

    name = "Transformer"
    priority = 20

    PROJECT_KINDS = (Project, BasicProject)

    def matches(self, graph, shape):
        if shape.kind == "linear":
            return (
                len(shape.chain) >= 1
                and _branch_is(shape.chain, True, self.PROJECT_KINDS)
            )
        if shape.kind == "fanout":
            return all(
                _branch_is(branch, True, self.PROJECT_KINDS)
                for branch in shape.branches
            )
        return False

    def build(self, graph, shape, box):
        branches = shape.branches if shape.kind == "fanout" else [shape.chain]
        in_edge = box_in_edges(graph, shape, box.uids)[0]
        outputs = []
        for branch in branches:
            filters, projects = _branch_parts(branch)
            constraint = None
            if filters:
                constraint = conjoin(
                    _localized(f.condition, graph, box.uids) for f in filters
                )
            if projects:
                derivations = [
                    (col, _localized(expr, graph, box.uids))
                    for col, expr in projects[0].derivations
                ]
            else:
                derivations = [
                    (a.name, ColumnRef(a.name)) for a in in_edge.schema
                ]
            outputs.append(OutputLink(derivations, constraint))
        return Transformer(outputs, name=_box_label(graph, box))


class CopyRp(RpOperator):
    """Copy stage: pure SPLIT, optionally restricting columns per output."""

    name = "Copy"
    priority = 25

    def matches(self, graph, shape):
        def copy_branch(branch):
            if not branch:
                return True
            return (
                len(branch) == 1
                and type(branch[0]) is BasicProject
                and all(out == src for out, src in branch[0].columns)
            )

        if shape.kind == "fanout":
            return all(copy_branch(branch) for branch in shape.branches)
        if shape.kind == "linear":
            return copy_branch(shape.chain) and bool(shape.chain)
        return False

    def build(self, graph, shape, box):
        branches = shape.branches if shape.kind == "fanout" else [shape.chain]
        keep = []
        for branch in branches:
            if branch:
                keep.append([src for _out, src in branch[0].columns])
            else:
                keep.append(None)
        return CopyStage(keep_columns=keep, name=_box_label(graph, box))


class ModifyRp(RpOperator):
    """Modify stage: a lone BASIC PROJECT with renames/drops."""

    name = "Modify"
    priority = 15

    def matches(self, graph, shape):
        return (
            shape.kind == "linear"
            and len(shape.chain) == 1
            and type(shape.chain[0]) is BasicProject
        )

    def build(self, graph, shape, box):
        project: BasicProject = shape.chain[0]
        keep = [src for _out, src in project.columns]
        rename = {out: src for out, src in project.columns if out != src}
        return Modify(keep=keep, rename=rename, name=_box_label(graph, box))


def _equi_keys(
    condition: Expr, left_name: str, right_name: str
) -> Optional[List[Tuple[str, str]]]:
    """Extract (left col, right col) pairs from a conjunction of
    equalities between the two inputs; None when not an equi-join."""
    keys = []
    for conjunct in split_conjuncts(condition):
        if not (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            return None
        refs = {conjunct.left.qualifier: conjunct.left.name,
                conjunct.right.qualifier: conjunct.right.name}
        if set(refs) != {left_name, right_name}:
            return None
        keys.append((refs[left_name], refs[right_name]))
    return keys or None


class JoinRp(RpOperator):
    """Join stage: a JOIN, optionally merged with the BASIC PROJECT that
    implements DataStage's key-merging output plan."""

    name = "Join"
    priority = 30

    def matches(self, graph, shape):
        return self._analyze(graph, shape) is not None

    @staticmethod
    def _is_placeholder(join: Join) -> bool:
        return join.condition == TRUE and "placeholder" in join.annotations

    def _analyze(self, graph, shape):
        if shape.kind != "join":
            return None
        join: Join = shape.head
        in_edges = graph.in_edges(join.uid)
        if len(in_edges) != 2:
            return None
        left, right = in_edges[0].schema, in_edges[1].schema
        if not shape.chain:
            if self._is_placeholder(join):
                # a bare placeholder box is valid (so planning can start);
                # the greedy merge then pulls in the projection that
                # resolves the collision columns
                return {"mode": "placeholder", "join": join, "keys": []}
            return {"mode": "condition", "join": join}
        if len(shape.chain) != 1 or type(shape.chain[0]) is not BasicProject:
            return None
        if self._is_placeholder(join):
            keys = []
            tentative = JoinStage(join_type=join.kind)  # placeholder
            mode = "placeholder"
        else:
            keys = _equi_keys(join.condition, left.name, right.name)
            if keys is None:
                return None
            tentative = JoinStage(keys=keys, join_type=join.kind)
            mode = "keys"
        plan = tentative.merged_columns(left, right)
        collisions = set(left.attribute_names) & set(right.attribute_names)
        expected = []
        for out_name, side, source in plan:
            rel = left if side == "left" else right
            src = f"{rel.name}.{source}" if source in collisions else source
            expected.append((out_name, src))
        actual = list(shape.chain[0].columns)
        if sorted(expected) != sorted(actual):
            return None
        return {"mode": mode, "join": join, "keys": keys}

    def build(self, graph, shape, box):
        info = self._analyze(graph, shape)
        join: Join = info["join"]
        if info["mode"] == "placeholder":
            # an unresolved FastTrack join: deploy the empty placeholder
            # stage for the ETL programmer to complete
            return JoinStage(join_type=join.kind, name=_box_label(graph, box))
        if info["mode"] == "keys":
            return JoinStage(
                keys=info["keys"],
                join_type=join.kind,
                name=_box_label(graph, box),
            )
        return JoinStage(
            condition=join.condition,
            join_type=join.kind,
            name=_box_label(graph, box),
        )


class LookupRp(JoinRp):
    """Lookup stage — an alternative implementation of the same equi-join
    boxes (inner/left only); registered at lower priority so the choice
    step prefers the Join stage, demonstrating the "multiple
    alternatives" situation of section VI-B."""

    name = "Lookup"
    priority = 10

    def matches(self, graph, shape):
        info = self._analyze(graph, shape)
        return (
            info is not None
            and info["mode"] == "keys"
            and info["join"].kind in ("inner", "left")
        )

    def build(self, graph, shape, box):
        info = self._analyze(graph, shape)
        join: Join = info["join"]
        on_failure = "continue" if join.kind == "left" else "drop"
        return LookupStage(
            keys=info["keys"],
            on_failure=on_failure,
            name=_box_label(graph, box),
        )


class AggregatorRp(RpOperator):
    """Aggregator stage: a GROUP at the box entry — never a box that
    starts with anything else (the paper's merge counter-example)."""

    name = "Aggregator"
    priority = 30

    SQL_AGGREGATES = ("SUM", "COUNT", "AVG", "MIN", "MAX")

    def matches(self, graph, shape):
        if shape.kind != "linear" or len(shape.chain) != 1:
            return False
        op = shape.chain[0]
        if type(op) is not Group:
            return False
        for _out, agg in op.aggregates:
            if agg.func not in self.SQL_AGGREGATES:
                return False
            if agg.arg is not None and not isinstance(agg.arg, ColumnRef):
                return False
        return True

    def build(self, graph, shape, box):
        op: Group = shape.chain[0]
        aggregations = []
        for out, agg in op.aggregates:
            col = None if agg.arg is None else agg.arg.name
            aggregations.append((out, agg.func.lower(), col))
        return AggregatorStage(
            group_keys=list(op.keys),
            aggregations=aggregations,
            name=_box_label(graph, box),
        )


class RemoveDuplicatesRp(RpOperator):
    """RemoveDuplicates stage: a GROUP whose aggregates are all FIRST (or
    all LAST) passthroughs — the image of duplicate removal."""

    name = "RemoveDuplicates"
    priority = 35  # beats Aggregator for pure dedup shapes

    def matches(self, graph, shape):
        info = self._analyze(graph, shape)
        return info is not None

    def _analyze(self, graph, shape):
        if shape.kind != "linear" or len(shape.chain) != 1:
            return None
        op = shape.chain[0]
        if type(op) is not Group:
            return None
        funcs = {agg.func for _o, agg in op.aggregates}
        if funcs and funcs not in ({"FIRST"}, {"LAST"}):
            return None
        for out, agg in op.aggregates:
            if not (isinstance(agg.arg, ColumnRef) and agg.arg.name == out):
                return None
        in_edge = graph.in_edges(op.uid)[0]
        covered = set(op.keys) | {out for out, _a in op.aggregates}
        if covered != set(in_edge.schema.attribute_names):
            return None
        retain = "last" if funcs == {"LAST"} else "first"
        return {"keys": list(op.keys), "retain": retain}

    def build(self, graph, shape, box):
        info = self._analyze(graph, shape)
        return RemoveDuplicatesStage(
            info["keys"], retain=info["retain"], name=_box_label(graph, box)
        )


class FunnelRp(RpOperator):
    """Funnel stage: a bag UNION."""

    name = "Funnel"
    priority = 30

    def matches(self, graph, shape):
        return (
            shape.kind == "union"
            and not shape.chain
            and not shape.head.distinct
        )

    def build(self, graph, shape, box):
        return FunnelStage(name=_box_label(graph, box))


class SurrogateKeyRp(RpOperator):
    """SurrogateKey stage: a lone KEYGEN."""

    name = "SurrogateKey"
    priority = 40

    def matches(self, graph, shape):
        return (
            shape.kind == "linear"
            and len(shape.chain) == 1
            and isinstance(shape.chain[0], KeyGen)
        )

    def build(self, graph, shape, box):
        op: KeyGen = shape.chain[0]
        return SurrogateKey(
            op.key_column, start=op.start, name=_box_label(graph, box)
        )


class CombineRecordsRp(RpOperator):
    """CombineRecords stage: a lone NEST operator."""

    name = "CombineRecords"
    priority = 30

    def matches(self, graph, shape):
        from repro.ohm.operators import Nest

        return (
            shape.kind == "linear"
            and len(shape.chain) == 1
            and isinstance(shape.chain[0], Nest)
        )

    def build(self, graph, shape, box):
        op = shape.chain[0]
        return CombineRecords(
            op.keys, op.nested, into=op.into, name=_box_label(graph, box)
        )


class PromoteSubrecordRp(RpOperator):
    """PromoteSubrecord stage: a lone UNNEST operator."""

    name = "PromoteSubrecord"
    priority = 30

    def matches(self, graph, shape):
        from repro.ohm.operators import Unnest

        return (
            shape.kind == "linear"
            and len(shape.chain) == 1
            and isinstance(shape.chain[0], Unnest)
        )

    def build(self, graph, shape, box):
        op = shape.chain[0]
        return PromoteSubrecord(op.attr, name=_box_label(graph, box))


class CustomRp(RpOperator):
    """Custom stage: UNKNOWN operators deploy back as black boxes."""

    name = "Custom"
    priority = 30

    def matches(self, graph, shape):
        return shape.kind == "opaque"

    def build(self, graph, shape, box):
        op: Unknown = shape.head
        return CustomStage(
            list(op.output_schemas),
            reference=op.reference,
            implementation=op.executor,
            name=_box_label(graph, box),
            annotations=dict(op.annotations),
        )


_label_counter = itertools.count(1)


def _box_label(graph: OhmGraph, box: Box) -> str:
    """Stage name for a box: the first informative member label, members
    taken in the graph's topological order (not the order of the
    ``box.uids`` set, which varies with the process's hash seed)."""
    labels = [
        op.label
        for op in graph.topological_order()
        if op.uid in box.uids and op.label and op.label != op.KIND
    ]
    base = labels[0] if labels else "stage"
    return f"{base}_{next(_label_counter)}"


def build_datastage_platform() -> RuntimePlatform:
    """The registered DataStage runtime platform."""
    platform = RuntimePlatform("DataStage")
    for rp in (
        FilterRp(),
        TransformerRp(),
        CopyRp(),
        ModifyRp(),
        JoinRp(),
        LookupRp(),
        AggregatorRp(),
        RemoveDuplicatesRp(),
        FunnelRp(),
        SurrogateKeyRp(),
        CombineRecordsRp(),
        PromoteSubrecordRp(),
        CustomRp(),
    ):
        platform.register(rp)
    return platform


#: The default DataStage platform instance.
DATASTAGE = build_datastage_platform()


# --- normalization + the deployer ----------------------------------------------


def _normalize_distinct_unions(graph: OhmGraph) -> None:
    """Rewrite UNION(distinct) into UNION + GROUP(all columns) so the
    standard RP repertoire covers it (Funnel + RemoveDuplicates)."""
    for op in list(graph.operators):
        if not (isinstance(op, Union) and op.distinct):
            continue
        out_edge = graph.out_edges(op.uid)[0]
        replacement = Union(distinct=False, label=op.label)
        group = Group(
            keys=list(out_edge.schema.attribute_names), label=op.label
        )
        graph.add(replacement)
        graph.add(group)
        for edge in graph.in_edges(op.uid):
            graph.remove_edge(edge)
            graph.add_edge_object(
                Edge(edge.src, edge.src_port, replacement.uid, edge.dst_port,
                     edge.name, edge.schema)
            )
        graph.remove_edge(out_edge)
        graph.connect(replacement, group, name=f"{out_edge.name}~u")
        graph.add_edge_object(
            Edge(group.uid, 0, out_edge.dst, out_edge.dst_port,
                 out_edge.name, out_edge.schema)
        )
        graph.remove_node(op.uid)
    graph.propagate_schemas()


def build_minimal_platform() -> RuntimePlatform:
    """A deliberately lean runtime platform — a hypothetical engine whose
    only row-wise operator is the Transformer (no Filter/Copy/Modify
    stages). Registering it exercises the paper's extensibility claim:
    adding a platform requires only declaring its runtime operators; the
    choice step then picks Transformer where DataStage would pick Filter.
    """
    platform = RuntimePlatform("MinimalEtl")
    for rp in (
        TransformerRp(),
        JoinRp(),
        AggregatorRp(),
        RemoveDuplicatesRp(),
        FunnelRp(),
        SurrogateKeyRp(),
        CustomRp(),
    ):
        platform.register(rp)
    return platform


def deploy_to_job(
    graph: OhmGraph,
    platform: Optional[RuntimePlatform] = None,
    name: Optional[str] = None,
    merge: bool = True,
    obs: Optional[Observability] = None,
) -> Tuple[Job, DeploymentPlan]:
    """Deploy an OHM instance as an ETL job on the given platform
    (DataStage by default). Returns the job and the plan that produced
    it. The input graph is not modified. ``merge=False`` disables the
    greedy box merging (the one-stage-per-operator ablation).

    With an :class:`~repro.obs.Observability`, records where operators
    were placed: ``deploy.<platform>.operators_placed`` / ``.boxes`` /
    ``.stages`` plus one ``deploy.rp.<rp-operator>.boxes`` counter per
    chosen runtime operator, under a ``deploy.job`` span."""
    obs = obs or NULL_OBS
    platform = platform or DATASTAGE
    with obs.tracer.span(
        "deploy.job", graph=graph.name, platform=platform.name
    ) as span, obs.metrics.timer(f"deploy.{platform.name}.seconds"):
        job, plan = _deploy_to_job_impl(graph, platform, name, merge)
        if obs.enabled:
            placed = sum(len(box.uids) for box in plan.boxes)
            obs.metrics.count(
                f"deploy.{platform.name}.operators_placed", placed
            )
            obs.metrics.count(f"deploy.{platform.name}.boxes", len(plan.boxes))
            obs.metrics.count(f"deploy.{platform.name}.stages", len(job.stages))
            for box in plan.boxes:
                obs.metrics.count(f"deploy.rp.{box.chosen.name}.boxes")
            span.set(
                boxes=len(plan.boxes),
                stages=len(job.stages),
                operators_placed=placed,
            )
    return job, plan


def _deploy_to_job_impl(
    graph: OhmGraph,
    platform: RuntimePlatform,
    name: Optional[str],
    merge: bool,
) -> Tuple[Job, DeploymentPlan]:
    work = graph.shallow_copy()
    work.propagate_schemas()
    _normalize_distinct_unions(work)
    plan = plan_deployment(work, platform, merge=merge)
    job = Job(name or f"{graph.name}_deployed")

    used_names: Set[str] = set()

    def unique(label: str) -> str:
        candidate = label
        suffix = 2
        while candidate in used_names:
            candidate = f"{label}_{suffix}"
            suffix += 1
        used_names.add(candidate)
        return candidate

    endpoint_out: Dict[Tuple[str, int], Tuple[str, int]] = {}
    endpoint_in: Dict[Tuple[str, int], Tuple[str, int]] = {}

    for op in work.sources():
        stage = TableSource(op.relation, name=unique(op.label))
        stage.annotations.update(op.annotations)
        if op.provider is not None:
            stage.annotations.setdefault(
                "generated-data",
                "source data was produced by a generator; rebind before running",
            )
        job.add(stage)
        for edge in work.out_edges(op.uid):
            endpoint_out[(op.uid, edge.src_port)] = (stage.name, 0)
    for op in work.targets():
        stage = TableTarget(op.relation, name=unique(op.label))
        stage.annotations.update(op.annotations)
        job.add(stage)
        endpoint_in[(op.uid, 0)] = (stage.name, 0)

    for box in plan.boxes:
        shape = analyze_box(work, box.uids)
        stage = box.chosen.build(work, shape, box)
        stage.name = unique(stage.name)
        for uid in box.uids:  # annotation pass-through (business rules)
            for key, value in work.operator(uid).annotations.items():
                stage.annotations.setdefault(key, value)
        job.add(stage)
        for port, edge in enumerate(box_in_edges(work, shape, box.uids)):
            endpoint_in[(edge.dst, edge.dst_port)] = (stage.name, port)
        for port, edge in enumerate(box_out_edges(work, shape, box.uids)):
            endpoint_out[(edge.src, edge.src_port)] = (stage.name, port)

    for edge in plan.boundary_edges():
        src = endpoint_out.get((edge.src, edge.src_port))
        dst = endpoint_in.get((edge.dst, edge.dst_port))
        if src is None or dst is None:
            raise DeploymentError(
                f"boundary edge {edge!r} has no stage endpoints"
            )
        job.link(src[0], dst[0], name=edge.name,
                 src_port=src[1], dst_port=dst[1])

    job.propagate_schemas()
    return job, plan


__all__ = [
    "DATASTAGE",
    "build_datastage_platform",
    "build_minimal_platform",
    "deploy_to_job",
    "box_in_edges",
    "box_out_edges",
    "FilterRp",
    "TransformerRp",
    "CopyRp",
    "ModifyRp",
    "JoinRp",
    "LookupRp",
    "AggregatorRp",
    "RemoveDuplicatesRp",
    "FunnelRp",
    "SurrogateKeyRp",
    "CustomRp",
]

"""Generic port-based dataflow graphs.

Both layers of Orchid that hold dataflows — OHM instances (abstract
layer) and ETL jobs (intermediate layer) — are DAGs of nodes connected
through ordered input/output ports, with a schema annotation per edge.
This module holds the machinery common to both;
:class:`repro.ohm.graph.OhmGraph` and :class:`repro.etl.model.Job`
specialize it.

A node is a :class:`GraphNode`:

* ``uid`` — graph-unique identifier,
* ``KIND`` — display name for diagnostics,
* ``check_port_counts(n_in, n_out)`` — multiplicity validation,
* ``validate(input_schemas)`` and
  ``output_relations(input_schemas, out_names)`` — schema propagation,
* ``supports_reject_link`` and ``reject_relation(name)`` — the
  out-of-band reject channel,
* ``reads(out_required, inputs)`` — column liveness: given the columns
  consumers read on each data output, the columns it reads on each input
  (``None`` is every column).

:meth:`DataflowGraph.validate_structure` and
:meth:`DataflowGraph.propagate_schemas` raise on the first failure. Given
an error sink ``on_error(uid, exc)`` they *collect* instead: every
node's wiring failures are reported, a node whose ``validate`` or
``output_relations`` raises is reported and its downstream cone is
skipped, and the derived schemas come back in a map without being
written onto the edges. The static analyzer (:mod:`repro.analysis`) is
the collecting caller; runs use the raising form.
:meth:`DataflowGraph.live_columns` is the one backward liveness walk,
shared by the analyzer's dead-column lint and dead-column pruning.

Schema propagation reuses what has not changed. A graph keeps its
topological order and the verdict of its wiring checks until an edge or
a node is added or removed. A node deriving from :class:`Node` keeps the
result of its last ``validate`` + ``output_relations``, and
:meth:`DataflowGraph.propagate_schemas` hands it back while the node's
input relations are the same objects, its out-edge names and kinds are
the same, and nothing has been assigned to the node since. That rests
on the **node contract**: ``check_port_counts``, ``validate`` and
``output_relations`` are pure functions of the node's properties and
its inputs, and a property is *replaced* (``op.condition = ...``),
never mutated in place (``op.derivations.append(...)`` after
construction is a bug: the node would keep a stale result).
"""

from __future__ import annotations

import itertools
from typing import (
    Any, Callable, Dict, Generic, Iterable, List, Optional,
    Protocol, Sequence, Set, Tuple, TypeVar,
)

from repro.errors import GraphError, OrchidError, ValidationError
from repro.schema.model import Relation

_edge_counter = itertools.count(1)

#: a live-column set; ``None`` means every column.
Live = Optional[Set[str]]

#: the collecting form's error sink: ``on_error(uid, exc)``.
ErrorSink = Callable[[str, OrchidError], None]


def union_live(parts: Iterable[Live]) -> Live:
    """The union of live sets, where ``None`` (every column) absorbs."""
    out: Set[str] = set()
    for part in parts:
        if part is None:
            return None
        out |= part
    return out


def columns_read(exprs: Iterable[Any], relation: Relation) -> Set[str]:
    """The columns of ``relation`` that ``exprs`` reference. A qualified
    reference is first the dotted ``qualifier.name`` column a JOIN leaves
    on a name collision, then the plain name; a reference that is
    neither names something else (another input's column, a stage
    variable) and is skipped."""
    names: Set[str] = set()
    for expr in exprs:
        for ref in expr.column_refs():
            if ref.qualifier is not None:
                dotted = f"{ref.qualifier}.{ref.name}"
                if relation.has_attribute(dotted):
                    names.add(dotted)
                    continue
            if relation.has_attribute(ref.name):
                names.add(ref.name)
    return names


class GraphNode(Protocol):
    """What a :class:`DataflowGraph` needs of its nodes."""

    @property
    def uid(self) -> str: ...

    @property
    def KIND(self) -> str: ...  # noqa: N802 - the node protocol's name

    @property
    def supports_reject_link(self) -> bool: ...

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None: ...

    def validate(self, inputs: Sequence[Relation]) -> None: ...

    def output_relations(
        self, inputs: Sequence[Relation], out_names: Sequence[str]
    ) -> List[Relation]: ...

    def reject_relation(self, name: str) -> Relation: ...

    def reads(
        self, out_required: Sequence[Live], inputs: Sequence[Relation]
    ) -> List[Live]: ...


NodeT = TypeVar("NodeT", bound=GraphNode)

#: the ``__dict__`` slot where a :class:`Node` keeps its last
#: propagation result: ``(inputs, out-edge (name, kind) pairs, schemas)``.
_MEMO = "_propagated"

_Memo = Tuple[
    List[Relation], Tuple[Tuple[str, str], ...], List[Optional[Relation]]
]


class Node:
    """Base of OHM operators and ETL stages: the defaults of the node
    protocol, and the propagation memo.

    Assigning any attribute drops the node's memo, so the next
    :meth:`DataflowGraph.propagate_schemas` validates it again. This is
    the node contract's other half: a rewrite replaces a property
    instead of mutating it in place."""

    #: Nodes that may carry an out-of-band reject edge.
    supports_reject_link = False

    def __setattr__(self, name: str, value: Any) -> None:
        self.__dict__.pop(_MEMO, None)
        object.__setattr__(self, name, value)

    def reject_relation(self, name: str) -> Relation:
        """Schema of a reject edge leaving this node: the standard
        reject-channel relation (see :mod:`repro.resilience`)."""
        from repro.resilience import reject_relation

        return reject_relation(name)

    def reads(
        self, out_required: Sequence[Live], inputs: Sequence[Relation]
    ) -> List[Live]:
        """The columns this node reads on each input, given the columns
        its consumers read on each data output (``None``: every
        column). The default keeps every input column live."""
        return [None] * len(inputs)


class Edge:
    """A schema-annotated dataflow edge between two node ports. Each edge
    carries a name (e.g. a DataStage link name like ``DSLink10``) which
    doubles as the name of the relation flowing along it.

    ``kind`` distinguishes ordinary data edges (``"data"``) from reject
    channels (``"reject"``): a reject edge is out-of-band for its
    *producer* (it does not count toward the producer's declared output
    ports, and its schema is the standard reject relation rather than a
    stage-computed one) but is a perfectly ordinary input for its
    consumer."""

    __slots__ = ("src", "src_port", "dst", "dst_port", "name", "schema", "kind")

    def __init__(
        self,
        src: str,
        src_port: int,
        dst: str,
        dst_port: int,
        name: Optional[str] = None,
        schema: Optional[Relation] = None,
        kind: str = "data",
    ):
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.name = name or f"Link{next(_edge_counter)}"
        self.schema = schema
        self.kind = kind

    @property
    def is_reject(self) -> bool:
        return self.kind == "reject"

    def __repr__(self) -> str:
        schema = "" if self.schema is None else f" :: {self.schema!r}"
        kind = "" if self.kind == "data" else f" [{self.kind}]"
        return (
            f"{self.src}[{self.src_port}] -> {self.dst}[{self.dst_port}] "
            f"({self.name}){kind}{schema}"
        )


def _insort(edges: List[Edge], edge: Edge, port: Callable[[Edge], int]) -> None:
    """Insert ``edge`` after every edge whose port is not greater, so the
    list stays sorted by port and in insertion order among equals (what
    a stable sort of the appended list gives)."""
    at = len(edges)
    key = port(edge)
    while at and port(edges[at - 1]) > key:
        at -= 1
    edges.insert(at, edge)


def _output_schemas(
    node: GraphNode, inputs: List[Relation], out_edges: Sequence[Edge]
) -> List[Optional[Relation]]:
    """The schema of each of ``node``'s out-edges, in port order
    (``None`` where the node computed fewer schemas than it has data
    edges: that edge keeps the one it has)."""
    if not out_edges:
        return []
    data_edges = [e for e in out_edges if not e.is_reject]
    data = iter(
        node.output_relations(inputs, [e.name for e in data_edges])
        if data_edges
        else ()
    )
    return [
        node.reject_relation(e.name) if e.is_reject else next(data, None)
        for e in out_edges
    ]


def _dst_port(edge: Edge) -> int:
    return edge.dst_port


def _src_port(edge: Edge) -> int:
    return edge.src_port


class DataflowGraph(Generic[NodeT]):
    """A directed acyclic multigraph of nodes wired port-to-port."""

    #: what nodes are called in diagnostics ("operator", "stage").
    node_noun = "node"

    def _locate(self, uid: str) -> Dict[str, str]:
        """The :class:`~repro.errors.GraphError` location kwarg naming
        ``uid`` under this graph's noun (``stage=`` or ``operator=``)."""
        field = "stage" if self.node_noun == "stage" else "operator"
        return {field: uid}

    def _relocate(self, exc: GraphError, uid: str) -> GraphError:
        """Rebuild a located copy of ``exc`` (same type and message) when
        it carries no location of its own, so every error escaping a
        ``validate()`` hook names the node it came from."""
        if exc.location():
            return exc
        return type(exc)(str(exc), **self._locate(uid))

    def __init__(self, name: str):
        self.name = name
        self._nodes: Dict[str, NodeT] = {}
        self._edges: List[Edge] = []
        # adjacency indexes so neighbourhood lookups stay O(degree); each
        # list is kept sorted by port as edges are inserted
        self._out: Dict[str, List[Edge]] = {}
        self._in: Dict[str, List[Edge]] = {}
        # wiring caches, dropped by every change to nodes or edges
        self._order: Optional[List[NodeT]] = None
        self._wiring_checked = False

    def _rewired(self) -> None:
        self._order = None
        self._wiring_checked = False

    # -- construction -------------------------------------------------------

    def add(self, node: NodeT) -> NodeT:
        if node.uid in self._nodes:
            raise GraphError(f"duplicate {self.node_noun} uid {node.uid!r}")
        self._nodes[node.uid] = node
        self._rewired()
        return node

    def connect(
        self,
        src: Any,
        dst: Any,
        src_port: int = 0,
        dst_port: int = 0,
        name: Optional[str] = None,
        kind: str = "data",
    ) -> Edge:
        src_id = src if isinstance(src, str) else src.uid
        dst_id = dst if isinstance(dst, str) else dst.uid
        for node_id in (src_id, dst_id):
            if node_id not in self._nodes:
                raise GraphError(f"unknown {self.node_noun} {node_id!r}")
        for edge in self._out.get(src_id, ()):
            if edge.src_port == src_port:
                raise GraphError(
                    f"output port {src_id}[{src_port}] already connected"
                )
        for edge in self._in.get(dst_id, ()):
            if edge.dst_port == dst_port:
                raise GraphError(
                    f"input port {dst_id}[{dst_port}] already connected"
                )
        edge = Edge(src_id, src_port, dst_id, dst_port, name, kind=kind)
        self._insert_edge(edge)
        return edge

    def _insert_edge(self, edge: Edge) -> None:
        self._edges.append(edge)
        _insort(self._out.setdefault(edge.src, []), edge, _src_port)
        _insort(self._in.setdefault(edge.dst, []), edge, _dst_port)
        self._rewired()

    def _delete_edge(self, edge: Edge) -> None:
        self._edges.remove(edge)
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)
        self._rewired()

    def chain(self, *nodes: NodeT, names: Sequence[str] = ()) -> List[Edge]:
        """Add (if absent) and connect nodes in a linear pipeline."""
        edges = []
        for node in nodes:
            if node.uid not in self._nodes:
                self.add(node)
        for i in range(len(nodes) - 1):
            name = names[i] if i < len(names) else None
            edges.append(self.connect(nodes[i], nodes[i + 1], name=name))
        return edges

    def remove_node(self, uid: str) -> None:
        """Remove a node and all its edges."""
        if uid not in self._nodes:
            raise GraphError(f"unknown {self.node_noun} {uid!r}")
        del self._nodes[uid]
        for edge in list(self._out.get(uid, ())) + list(self._in.get(uid, ())):
            if edge in self._edges:
                self._delete_edge(edge)
        self._out.pop(uid, None)
        self._in.pop(uid, None)
        self._rewired()

    def remove_edge(self, edge: Edge) -> None:
        self._delete_edge(edge)

    def add_edge_object(self, edge: Edge) -> Edge:
        """Insert a pre-built edge (rewrites use this for fine control)."""
        self._insert_edge(edge)
        return edge

    def shallow_copy(self) -> "DataflowGraph[NodeT]":
        """A structural copy: nodes are shared, edges are fresh objects.
        Used where a transformation must not disturb the original graph's
        wiring (deployment normalization, optimization what-ifs)."""
        clone = type(self)(self.name)
        clone._nodes = dict(self._nodes)
        for e in self._edges:
            clone._insert_edge(
                Edge(
                    e.src, e.src_port, e.dst, e.dst_port, e.name, e.schema,
                    kind=e.kind,
                )
            )
        return clone

    def splice_out(self, uid: str) -> None:
        """Remove a 1-in/1-out node, reconnecting producer to consumer.

        The *outgoing* edge's name and schema survive: consumers may
        reference their input edge by name (qualified conditions, a
        JOIN's dotted collision columns), while producers never reference
        their output edge — so the consumer-facing identity is the one
        that must be preserved."""
        incoming = self.in_edges(uid)
        outgoing = self.out_edges(uid)
        if len(incoming) != 1 or len(outgoing) != 1:
            raise GraphError(
                f"cannot splice {uid!r}: needs exactly one input and one "
                f"output edge, has {len(incoming)}/{len(outgoing)}"
            )
        before, after = incoming[0], outgoing[0]
        del self._nodes[uid]
        self._delete_edge(before)
        self._delete_edge(after)
        self._insert_edge(
            Edge(
                before.src,
                before.src_port,
                after.dst,
                after.dst_port,
                after.name,
                after.schema,
                kind=after.kind,
            )
        )

    # -- lookup -------------------------------------------------------------

    @property
    def nodes(self) -> List[NodeT]:
        return list(self._nodes.values())

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def node(self, uid: str) -> NodeT:
        try:
            return self._nodes[uid]
        except KeyError:
            raise GraphError(f"unknown {self.node_noun} {uid!r}") from None

    def __contains__(self, uid: str) -> bool:
        return uid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def in_edges(self, uid: str) -> List[Edge]:
        """Edges into ``uid``, by input port."""
        return list(self._in.get(uid, ()))

    def out_edges(self, uid: str) -> List[Edge]:
        """Edges out of ``uid``, by output port."""
        return list(self._out.get(uid, ()))

    def predecessors(self, uid: str) -> List[NodeT]:
        return [self._nodes[e.src] for e in self._in.get(uid, ())]

    def successors(self, uid: str) -> List[NodeT]:
        return [self._nodes[e.dst] for e in self._out.get(uid, ())]

    def edge_between(self, src_uid: str, dst_uid: str) -> Edge:
        for edge in self._edges:
            if edge.src == src_uid and edge.dst == dst_uid:
                return edge
        raise GraphError(f"no edge {src_uid} -> {dst_uid}")

    def find_edge(self, name: str) -> Edge:
        for edge in self._edges:
            if edge.name == name:
                return edge
        raise GraphError(f"no edge named {name!r}")

    # -- analysis -----------------------------------------------------------

    def topological_order(self) -> List[NodeT]:
        """Nodes in dataflow order; raises :class:`GraphError` on cycles.
        The order is kept until the wiring changes."""
        if self._order is None:
            self._order = self._sort_topologically()
        return list(self._order)

    def _sort_topologically(self) -> List[NodeT]:
        indegree: Dict[str, int] = {uid: 0 for uid in self._nodes}
        for edge in self._edges:
            indegree[edge.dst] += 1
        ready = sorted(uid for uid, deg in indegree.items() if deg == 0)
        order: List[NodeT] = []
        while ready:
            uid = ready.pop(0)
            order.append(self._nodes[uid])
            for edge in self._out.get(uid, ()):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self._nodes):
            stuck = sorted(set(self._nodes) - {n.uid for n in order})
            raise GraphError(f"graph has a cycle involving {stuck}")
        return order

    def _structure_errors(
        self, uid: str, node: NodeT, wiring: bool
    ) -> List[GraphError]:
        """``node``'s structural failures, as raised and unlocated, in the
        order the raising form meets them: its declared multiplicities
        against its wired edges (reject edges do not count on the
        producer side), then, with ``wiring``, reject support, contiguous
        ports and reject placement."""
        incoming = self._in.get(uid, ())
        outgoing = self._out.get(uid, ())
        errors: List[GraphError] = []
        try:
            node.check_port_counts(
                len(incoming), sum(1 for e in outgoing if not e.is_reject)
            )
        except GraphError as exc:
            errors.append(exc)
        if not wiring:
            return errors

        def fail(message: str) -> None:
            errors.append(ValidationError(f"{node.KIND} {uid}: {message}"))

        rejects = [e for e in outgoing if e.is_reject]
        if rejects and not node.supports_reject_link:
            fail("does not support a reject link")
        for kind, ports in (
            ("input", [e.dst_port for e in incoming]),
            ("output", [e.src_port for e in outgoing]),
        ):
            if ports != list(range(len(ports))):
                fail(f"non-contiguous {kind} ports {ports}")
        if rejects and any(
            not e.is_reject and e.src_port > rejects[0].src_port
            for e in outgoing
        ):
            fail("reject port must follow all data output ports")
        return errors

    def validate_structure(self, on_error: Optional[ErrorSink] = None) -> None:
        """Port multiplicities honoured, contiguous ports, acyclic.

        Reject edges are out-of-band on the producer side: they do not
        count toward the producer's declared output multiplicity (their
        ports must still be contiguous *after* the data ports), but they
        are ordinary inputs on the consumer side.

        The wiring half (acyclic, contiguous, reject placement) is kept
        until the wiring changes; port multiplicities depend on node
        properties as well and are checked on every call.

        Without ``on_error`` the first failure raises, located at its
        node. With it, every failure of every node goes to
        ``on_error(uid, exc)`` as raised; a cycle still raises
        :class:`GraphError`, as no node order exists."""
        wiring_checked = self._wiring_checked
        if not wiring_checked:
            self.topological_order()
        clean = True
        for uid, node in self._nodes.items():
            for exc in self._structure_errors(uid, node, not wiring_checked):
                if on_error is None:
                    raise self._relocate(exc, uid) from None
                on_error(uid, exc)
                clean = False
        self._wiring_checked = clean

    def propagate_schemas(
        self, on_error: Optional[ErrorSink] = None
    ) -> Dict[Edge, Relation]:
        """Compute every edge's schema annotation source→target order,
        validating each node against its input schemas; returns the
        schemas by edge.

        A :class:`Node` is not validated again while its input relations
        equal the ones it was last validated against and nobody has
        assigned to it since; if its out-edges also carry the same names
        and kinds, its last output schemas go back on them unchanged. A
        node whose recomputed schemas equal its last ones hands on the
        old objects, so that its consumers find their inputs as before.

        Without ``on_error`` the first failure raises and each schema is
        written onto its edge. With it, no edge is written: a node whose
        ``validate`` or ``output_relations`` raises goes to
        ``on_error(uid, exc)`` with the exception as raised, and it and
        its downstream cone are left out of the map, as is the cone of a
        node whose wiring fails (:meth:`validate_structure` reports
        those). Node memos are read and filled alike in both forms."""
        skipped: Set[str] = set()
        if on_error is not None:
            self.validate_structure(lambda uid, _exc: skipped.add(uid))
            recheck_ports = False
        else:
            recheck_ports = self._wiring_checked
            if not recheck_ports:
                self.validate_structure()
        derived: Dict[Edge, Relation] = {}
        for node in self.topological_order():
            uid = node.uid
            in_edges = self._in.get(uid, ())
            if skipped and (
                uid in skipped or any(e.src in skipped for e in in_edges)
            ):
                skipped.add(uid)
                continue
            out_edges = self._out.get(uid, ())
            try:
                inputs: List[Relation] = []
                for edge in in_edges:
                    schema = derived.get(edge, edge.schema)
                    if schema is None:
                        raise GraphError(
                            f"edge {edge!r} has no schema after propagation; "
                            "graph is not connected to sources",
                            link=edge.name,
                            **self._locate(uid),
                        )
                    inputs.append(schema)
                wiring = tuple((e.name, e.kind) for e in out_edges)
                memoized = isinstance(node, Node)
                memo: Optional[_Memo] = (
                    node.__dict__.get(_MEMO) if memoized else None
                )
                validated = memo is not None and memo[0] == inputs
                if memo is not None and validated and memo[1] == wiring:
                    outputs = memo[2]
                else:
                    if recheck_ports:
                        errors = self._structure_errors(uid, node, wiring=False)
                        if errors:
                            raise self._relocate(errors[0], uid) from None
                    if not validated:
                        try:
                            node.validate(inputs)
                        except GraphError as exc:
                            if on_error is not None:
                                raise
                            raise self._relocate(exc, uid) from None
                    outputs = _output_schemas(node, inputs, out_edges)
                    if memo is not None and outputs == memo[2]:
                        outputs = memo[2]
                    if memoized:
                        node.__dict__[_MEMO] = (inputs, wiring, outputs)
            except OrchidError as exc:
                if on_error is None:
                    raise
                on_error(uid, exc)
                skipped.add(uid)
                continue
            for edge, schema in zip(out_edges, outputs):
                if schema is not None:
                    derived[edge] = schema
                    if on_error is None:
                        edge.schema = schema
        return derived

    def live_columns(
        self, schema_of: Callable[[Edge], Optional[Relation]]
    ) -> Dict[Edge, Live]:
        """Backward column liveness: the columns some consumer reads on
        every edge (``None``: every column), walking targets → sources
        through each node's ``reads``.

        ``schema_of`` gives an edge's schema, ``None`` where it is
        unknown. A node reads every input column when one of its edges
        has no schema (it failed to derive, or lies downstream of a
        failure), when it is not wired as its port counts declare, and
        when it has a reject out-edge: a reject row carries the whole
        input row."""
        live: Dict[Edge, Live] = {}
        for node in reversed(self.topological_order()):
            uid = node.uid
            in_edges = self._in.get(uid, ())
            out_edges = self._out.get(uid, ())
            inputs = [schema_of(e) for e in in_edges]
            known = [schema for schema in inputs if schema is not None]
            reads: List[Live] = [None] * len(in_edges)
            if (
                len(known) == len(inputs)
                and all(
                    not e.is_reject and schema_of(e) is not None
                    for e in out_edges
                )
                # a node with out-edges that breaks its port counts has
                # no output schemas; only a sink needs the check here
                and (
                    out_edges
                    or not self._structure_errors(uid, node, wiring=False)
                )
            ):
                reads = node.reads([live[e] for e in out_edges], known)
            live.update(zip(in_edges, reads))
        return live

    def kinds_in_order(self) -> List[str]:
        """Node kinds in topological order — handy in tests asserting a
        graph's shape against the paper's figures."""
        return [node.KIND for node in self.topological_order()]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, {len(self._nodes)} "
            f"{self.node_noun}s, {len(self._edges)} edges)"
        )


__all__ = [
    "DataflowGraph",
    "Edge",
    "ErrorSink",
    "GraphNode",
    "Live",
    "Node",
    "columns_read",
    "union_live",
]

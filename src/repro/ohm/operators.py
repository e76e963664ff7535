"""The Operator Hub Model's abstract operators (paper section IV, Figure 2).

"The set of operators currently defined in OHM includes well-known
generalizations of the traditional relational algebra operators such as
selection (FILTER), PROJECT, JOIN, UNION, and GROUP ..., but also supports
nested data structures through the NEST and UNNEST operators ... OHM
includes a SPLIT operator, whose only task is to copy the input data to
one or more outputs" — plus the catch-all UNKNOWN for ETL stages whose
semantics mapping systems cannot express.

Operator *subtypes* (BASIC PROJECT, KEYGEN, COLUMN SPLIT, COLUMN MERGE)
live in :mod:`repro.ohm.subtypes`; SOURCE/TARGET access operators anchor a
graph to named external relations.

Each operator:

* declares its input/output port multiplicity,
* validates its properties against the input schemas (``validate``),
* computes its output schemas (``output_relations``) — this is what
  annotates OHM edges with "the schema of the data flowing along it".

Execution semantics live in :mod:`repro.ohm.engine` so the model stays a
pure description, as in the paper.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dataflow import Live, Node, columns_read, union_live
from repro.errors import ValidationError
from repro.expr.ast import AggregateCall, ColumnRef, Expr
from repro.expr.parser import parse
from repro.expr.typecheck import TypeContext, check_boolean, infer_type
from repro.schema.model import Attribute, Relation
from repro.schema.types import BOOLEAN, INTEGER, RecordType, SetType

_id_counter = itertools.count(1)


def _fresh_id(prefix: str) -> str:
    return f"{prefix.lower()}_{next(_id_counter)}"


def _as_expr(expr: Union[Expr, str]) -> Expr:
    return expr if isinstance(expr, Expr) else parse(expr)


class Operator(Node):
    """Base class of all OHM operators.

    An operator is a graph node under :mod:`repro.dataflow`'s node
    contract: ``validate`` / ``output_relations`` are pure in the
    operator's properties and its inputs, and rewrites replace a
    property (``op.condition = conjoin(...)``) rather than mutate it,
    so that the assignment drops the operator's propagation memo.

    :ivar uid: graph-unique identifier (auto-generated when omitted).
    :ivar label: human-readable label, typically inherited from the ETL
        stage or mapping the operator was compiled from.
    :ivar annotations: free-form key→string metadata; FastTrack uses this
        to carry business-rule text onto generated stages (paper §I).
    """

    #: OHM operator kind, UPPERCASE as the paper writes them.
    KIND = "ABSTRACT"
    min_inputs = 1
    max_inputs: Optional[int] = 1
    min_outputs = 1
    max_outputs: Optional[int] = 1

    def __init__(
        self,
        uid: Optional[str] = None,
        label: Optional[str] = None,
        annotations: Optional[Dict[str, str]] = None,
    ):
        self.uid = uid or _fresh_id(self.KIND.replace(" ", "_"))
        self.label = label or self.KIND
        self.annotations: Dict[str, str] = dict(annotations or {})

    # -- multiplicity -------------------------------------------------------

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        if n_inputs < self.min_inputs or (
            self.max_inputs is not None and n_inputs > self.max_inputs
        ):
            raise ValidationError(
                f"{self.KIND} {self.uid}: {n_inputs} inputs out of range "
                f"[{self.min_inputs}, {self.max_inputs}]"
            )
        if n_outputs < self.min_outputs or (
            self.max_outputs is not None and n_outputs > self.max_outputs
        ):
            raise ValidationError(
                f"{self.KIND} {self.uid}: {n_outputs} outputs out of range "
                f"[{self.min_outputs}, {self.max_outputs}]"
            )

    # -- schema interface ---------------------------------------------------

    def validate(self, inputs: Sequence[Relation]) -> None:
        """Check operator properties against the input schemas; raises
        :class:`ValidationError` when ill-formed."""

    def output_relations(
        self, inputs: Sequence[Relation], out_names: Sequence[str]
    ) -> List[Relation]:
        """Schemas of each output edge, named by ``out_names`` (edge/link
        names, e.g. ``DSLink10``)."""
        raise NotImplementedError

    def describe_properties(self) -> Dict[str, object]:
        """Displayable summary of the operator's properties."""
        return {}

    def __repr__(self) -> str:
        props = self.describe_properties()
        inner = ", ".join(f"{k}={v}" for k, v in props.items())
        return f"{self.KIND}[{self.uid}]({inner})"


class Source(Operator):
    """Access operator anchoring the graph to an external source relation.

    ``provider`` optionally supplies the data directly (a zero-argument
    callable returning a :class:`~repro.data.dataset.Dataset`); the engine
    uses it when the run instance does not contain the relation — this is
    how generated-data stages (RowGenerator) compile.
    """

    KIND = "SOURCE"
    min_inputs = 0
    max_inputs = 0

    def __init__(self, relation: Relation, provider=None, **kwargs):
        kwargs.setdefault("label", relation.name)
        super().__init__(**kwargs)
        self.relation = relation
        self.provider = provider

    def output_relations(self, inputs, out_names):
        return [self.relation.renamed(name) for name in out_names]

    def describe_properties(self):
        return {"relation": self.relation.name}


class Target(Operator):
    """Access operator delivering data into an external target relation."""

    KIND = "TARGET"
    min_outputs = 0
    max_outputs = 0

    def __init__(self, relation: Relation, **kwargs):
        kwargs.setdefault("label", relation.name)
        super().__init__(**kwargs)
        self.relation = relation

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for attr in self.relation:
            if not incoming.has_attribute(attr.name):
                raise ValidationError(
                    f"TARGET {self.relation.name!r}: incoming data lacks "
                    f"column {attr.name!r} (has {list(incoming.attribute_names)})"
                )
            incoming_attr = incoming.attribute(attr.name)
            if not attr.dtype.accepts(incoming_attr.dtype):
                raise ValidationError(
                    f"TARGET {self.relation.name}.{attr.name}: cannot accept "
                    f"{incoming_attr.dtype!r}"
                )

    def output_relations(self, inputs, out_names):
        return []

    def reads(self, out_required, inputs) -> List[Live]:
        return [set(self.relation.attribute_names)]

    def describe_properties(self):
        return {"relation": self.relation.name}


class Filter(Operator):
    """Selection: passes rows whose condition evaluates to true."""

    KIND = "FILTER"

    def __init__(self, condition: Union[Expr, str], **kwargs):
        super().__init__(**kwargs)
        self.condition = _as_expr(condition)

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        check_boolean(self.condition, context)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [incoming.renamed(out_names[0])]

    def reads(self, out_required, inputs) -> List[Live]:
        (incoming,) = inputs
        condition = columns_read([self.condition], incoming)
        return [union_live([*out_required, condition])]

    def describe_properties(self):
        return {"condition": self.condition.to_sql()}


class Project(Operator):
    """Generalized projection: each output column is derived from an
    arbitrary scalar expression over the input columns ("similar to the
    expressions supported in the select-list of a SQL select statement")."""

    KIND = "PROJECT"

    #: whether dropping a derivation nobody reads keeps the operator's
    #: meaning; refined subtypes with extra semantics (KEYGEN et al.)
    #: say no, and read every derivation.
    prunable = True

    def __init__(
        self,
        derivations: Sequence[Tuple[str, Union[Expr, str]]],
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not derivations:
            raise ValidationError("PROJECT requires at least one derivation")
        self.derivations: List[Tuple[str, Expr]] = []
        seen = set()
        for out_name, expr in derivations:
            if out_name in seen:
                raise ValidationError(
                    f"PROJECT: duplicate output column {out_name!r}"
                )
            seen.add(out_name)
            self.derivations.append((out_name, _as_expr(expr)))

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        for out_name, expr in self.derivations:
            infer_type(expr, context)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        attrs = []
        for out_name, expr in self.derivations:
            source = self._resolve_plain_ref(expr, incoming)
            if source is not None:
                # a pure column passthrough keeps its nullability/key data
                attrs.append(source.renamed(out_name))
            else:
                attrs.append(Attribute(out_name, infer_type(expr, context)))
        return [Relation(out_names[0], attrs)]

    def reads(self, out_required, inputs) -> List[Live]:
        (live,) = out_required
        (incoming,) = inputs
        return [
            columns_read(
                (
                    expr
                    for col, expr in self.derivations
                    if live is None or col in live or not self.prunable
                ),
                incoming,
            )
        ]

    @staticmethod
    def _resolve_plain_ref(expr, incoming: Relation):
        """The input attribute a ColumnRef derivation copies, or None."""
        if not isinstance(expr, ColumnRef):
            return None
        candidates = [expr.name]
        if expr.qualifier is not None:
            candidates.insert(0, f"{expr.qualifier}.{expr.name}")
        for name in candidates:
            if incoming.has_attribute(name):
                return incoming.attribute(name)
        return None

    def describe_properties(self):
        return {
            "derivations": {
                name: expr.to_sql() for name, expr in self.derivations
            }
        }

    def is_identity_for(self, incoming: Relation) -> bool:
        """True when this projection just passes every input column
        through unchanged — the "redundant (i.e., empty) operators" the
        paper lets stage compilers generate and a rewrite later removes."""
        if len(self.derivations) != len(incoming.attributes):
            return False
        return all(
            isinstance(expr, ColumnRef)
            and expr.name == out_name
            and out_name == attr.name
            for (out_name, expr), attr in zip(
                self.derivations, incoming.attributes
            )
        )


class Join(Operator):
    """Binary join with a boolean condition. ``kind`` is one of
    ``inner``/``left``/``right``/``full`` (DataStage's Join stage offers
    all four)."""

    KIND = "JOIN"
    min_inputs = 2
    max_inputs = 2

    JOIN_KINDS = ("inner", "left", "right", "full")

    def __init__(self, condition: Union[Expr, str], kind: str = "inner", **kwargs):
        super().__init__(**kwargs)
        self.condition = _as_expr(condition)
        kind = kind.lower()
        if kind not in self.JOIN_KINDS:
            raise ValidationError(f"unknown join kind {kind!r}")
        self.kind = kind

    def validate(self, inputs: Sequence[Relation]) -> None:
        left, right = inputs
        context = TypeContext()
        context.bind(left.name, left)
        context.bind(right.name, right)
        check_boolean(self.condition, context)

    @staticmethod
    def joined_attributes(
        left: Relation, right: Relation
    ) -> List[Tuple[Attribute, str, str]]:
        """Concatenated ``(attribute, side, source column)`` triples; name
        collisions become dotted names qualified by the input relation
        names (``Customers.customerID``), which the expression layer
        resolves transparently. ``source column`` is the column's name in
        its input relation (it differs from the attribute name exactly
        when the collision renaming applied)."""
        collisions = set(left.attribute_names) & set(right.attribute_names)
        attrs: List[Tuple[Attribute, str, str]] = []
        for rel, side in ((left, "left"), (right, "right")):
            for attr in rel:
                if attr.name in collisions:
                    attrs.append(
                        (attr.renamed(f"{rel.name}.{attr.name}"), side, attr.name)
                    )
                else:
                    attrs.append((attr, side, attr.name))
        return attrs

    def output_relations(self, inputs, out_names):
        left, right = inputs
        nullable_sides = {
            "inner": (),
            "left": ("right",),
            "right": ("left",),
            "full": ("left", "right"),
        }[self.kind]
        attrs = [
            attr.as_nullable() if side in nullable_sides else attr
            for attr, side, _source in self.joined_attributes(left, right)
        ]
        return [Relation(out_names[0], attrs)]

    def reads(self, out_required, inputs) -> List[Live]:
        """Precise per side: the sources of the live output columns,
        plus what the condition reads of each side."""
        (live,) = out_required
        left, right = inputs
        if live is None:
            return [None, None]
        sides: Dict[str, set] = {"left": set(), "right": set()}
        for attr, side, source in self.joined_attributes(left, right):
            if attr.name in live:
                sides[side].add(source)
        return [
            sides["left"] | columns_read([self.condition], left),
            sides["right"] | columns_read([self.condition], right),
        ]

    def describe_properties(self):
        return {"condition": self.condition.to_sql(), "kind": self.kind}


class Union(Operator):
    """N-ary bag union of union-compatible inputs; ``distinct`` adds
    duplicate elimination (an operation that, like GROUP, blocks mapping
    composition)."""

    KIND = "UNION"
    min_inputs = 2
    max_inputs = None

    def __init__(self, distinct: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.distinct = bool(distinct)

    def validate(self, inputs: Sequence[Relation]) -> None:
        first = inputs[0]
        for other in inputs[1:]:
            if not first.is_union_compatible(other):
                raise ValidationError(
                    f"UNION inputs {first.name!r} and {other.name!r} are not "
                    "union-compatible"
                )

    def output_relations(self, inputs, out_names):
        return [inputs[0].renamed(out_names[0])]

    def reads(self, out_required, inputs) -> List[Live]:
        return list(out_required) * len(inputs)

    def describe_properties(self):
        return {"distinct": self.distinct}


class Group(Operator):
    """Grouping with aggregation (and, with no aggregates, duplicate
    elimination). Output columns are the grouping keys followed by the
    aggregate result columns."""

    KIND = "GROUP"

    def __init__(
        self,
        keys: Sequence[str],
        aggregates: Sequence[Tuple[str, Union[AggregateCall, str]]] = (),
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.keys = list(keys)
        self.aggregates: List[Tuple[str, AggregateCall]] = []
        for out_name, agg in aggregates:
            if isinstance(agg, str):
                agg = parse(agg)
            if not isinstance(agg, AggregateCall):
                raise ValidationError(
                    f"GROUP aggregate {out_name!r} must be an aggregate call, "
                    f"got {agg!r}"
                )
            self.aggregates.append((out_name, agg))
        if not self.keys and not self.aggregates:
            raise ValidationError("GROUP requires keys and/or aggregates")
        out_cols = self.keys + [name for name, _ in self.aggregates]
        if len(set(out_cols)) != len(out_cols):
            raise ValidationError(f"GROUP output columns collide: {out_cols}")

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for key in self.keys:
            incoming.attribute(key)
        context = TypeContext(incoming).bind(incoming.name, incoming)
        for _name, agg in self.aggregates:
            infer_type(agg, context, allow_aggregates=True)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        attrs = [incoming.attribute(k) for k in self.keys]
        for name, agg in self.aggregates:
            dtype = infer_type(agg, context, allow_aggregates=True)
            # groups are never empty, so an aggregate is only nullable
            # when its argument can be NULL (COUNT never is)
            if agg.func == "COUNT":
                nullable = False
            elif isinstance(agg.arg, ColumnRef) and incoming.has_attribute(
                agg.arg.name
            ):
                nullable = incoming.attribute(agg.arg.name).nullable
            else:
                nullable = True
            attrs.append(Attribute(name, dtype, nullable=nullable))
        return [Relation(out_names[0], attrs)]

    def reads(self, out_required, inputs) -> List[Live]:
        """Every key (dropping one changes the grouping) and every
        aggregate's argument, live or not."""
        (incoming,) = inputs
        args = columns_read((agg for _name, agg in self.aggregates), incoming)
        return [set(self.keys) | args]

    @property
    def eliminates_duplicates(self) -> bool:
        return True

    def describe_properties(self):
        return {
            "keys": self.keys,
            "aggregates": {n: a.to_sql() for n, a in self.aggregates},
        }


class Split(Operator):
    """Copies its input unchanged to each of its outputs — "the same data
    in a complex data flow may need to be processed by multiple subsequent
    operators"."""

    KIND = "SPLIT"
    min_outputs = 1
    max_outputs = None

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [incoming.renamed(name) for name in out_names]

    def reads(self, out_required, inputs) -> List[Live]:
        return [union_live(out_required)]


class Nest(Operator):
    """NF² nest: groups by ``keys`` and packs the remaining ``nested``
    columns of each group into a set-valued attribute ``into``."""

    KIND = "NEST"

    def __init__(
        self, keys: Sequence[str], nested: Sequence[str], into: str, **kwargs
    ):
        super().__init__(**kwargs)
        self.keys = list(keys)
        self.nested = list(nested)
        self.into = into
        if not self.keys:
            raise ValidationError("NEST requires at least one key column")
        if not self.nested:
            raise ValidationError("NEST requires at least one nested column")
        if into in self.keys:
            raise ValidationError(f"NEST: {into!r} collides with a key column")

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for col in self.keys + self.nested:
            incoming.attribute(col)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        element = RecordType(
            (c, incoming.attribute(c).dtype) for c in self.nested
        )
        attrs = [incoming.attribute(k) for k in self.keys]
        attrs.append(Attribute(self.into, SetType(element), nullable=False))
        return [Relation(out_names[0], attrs)]

    def describe_properties(self):
        return {"keys": self.keys, "nested": self.nested, "into": self.into}


class Unnest(Operator):
    """NF² unnest: flattens the set-valued attribute ``attr`` — one output
    row per element, carrying the other columns alongside the element's
    fields. Rows with an empty (or NULL) set produce no output rows."""

    KIND = "UNNEST"

    def __init__(self, attr: str, **kwargs):
        super().__init__(**kwargs)
        self.attr = attr

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        set_attr = incoming.attribute(self.attr)
        if not isinstance(set_attr.dtype, SetType) or not isinstance(
            set_attr.dtype.element_type, RecordType
        ):
            raise ValidationError(
                f"UNNEST: {self.attr!r} must be a set of records, "
                f"got {set_attr.dtype!r}"
            )

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        element: RecordType = incoming.attribute(self.attr).dtype.element_type
        attrs = [a for a in incoming if a.name != self.attr]
        attrs += [Attribute(name, dtype) for name, dtype in element.fields]
        return [Relation(out_names[0], attrs)]

    def describe_properties(self):
        return {"attr": self.attr}


class Unknown(Operator):
    """Catch-all for complex/custom ETL operations that have no mapping
    counterpart; "we may not know the transformation semantics of the
    operator but we at least know what are the input and output types".

    ``reference`` names the original ETL stage; ``executor`` optionally
    carries the stage's original behaviour so OHM graphs containing
    UNKNOWN remain executable for verification.
    """

    KIND = "UNKNOWN"
    min_inputs = 1
    max_inputs = None
    min_outputs = 1
    max_outputs = None

    def __init__(
        self,
        output_schemas: Sequence[Relation],
        reference: str,
        executor=None,
        **kwargs,
    ):
        kwargs.setdefault("label", reference)
        super().__init__(**kwargs)
        if not output_schemas:
            raise ValidationError("UNKNOWN requires declared output schemas")
        self.output_schemas = list(output_schemas)
        self.reference = reference
        self.executor = executor

    def output_relations(self, inputs, out_names):
        if len(out_names) != len(self.output_schemas):
            raise ValidationError(
                f"UNKNOWN {self.reference!r} declares "
                f"{len(self.output_schemas)} outputs, graph wires "
                f"{len(out_names)}"
            )
        return [
            schema.renamed(name)
            for schema, name in zip(self.output_schemas, out_names)
        ]

    def describe_properties(self):
        return {"reference": self.reference}


__all__ = [
    "Operator",
    "Source",
    "Target",
    "Filter",
    "Project",
    "Join",
    "Union",
    "Group",
    "Split",
    "Nest",
    "Unnest",
    "Unknown",
]

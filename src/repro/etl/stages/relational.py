"""Relational stages: Join, Lookup, Aggregator, Sort, RemoveDuplicates.

These are the DataStage stages with counterparts in relational algebra —
the "common intersection of mappings and ETL transformation capabilities"
OHM is built around. The Aggregator also matters for deployment: its
template starts with GROUP, which is why Orchid must not merge a
BASIC PROJECT into an Aggregator box (paper section VI-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.dataset import Dataset
from repro.dataflow import Live
from repro.errors import ExecutionError, ValidationError
from repro.etl.model import Stage
from repro.exec import block, fuse, kernels, ops
from repro.expr.algebra import conjoin
from repro.expr.ast import AggregateCall, BinaryOp, ColumnRef, Expr
from repro.expr.parser import parse
from repro.expr.typecheck import TypeContext, check_boolean, infer_type
from repro.ohm.operators import Join as OhmJoin
from repro.schema.model import Attribute, Relation


#: Aggregation functions the Aggregator stage supports.
AGG_FUNCTIONS = ("sum", "count", "avg", "min", "max")


class JoinStage(Stage):
    """Two-input join. Configure either ``keys`` — ``(left column, right
    column)`` equality pairs — or an explicit ``condition`` whose column
    references are qualified by the input link names. A join with *neither*
    is a placeholder: FastTrack generates such "empty join" stages from
    incomplete mappings for an ETL programmer to finish (paper section I).
    """

    STAGE_TYPE = "Join"
    min_inputs = 2
    max_inputs = 2

    def __init__(
        self,
        keys: Optional[Sequence[Tuple[str, str]]] = None,
        condition: Union[Expr, str, None] = None,
        join_type: str = "inner",
        **kwargs,
    ):
        super().__init__(**kwargs)
        if keys is not None and condition is not None:
            raise ValidationError("Join takes keys or a condition, not both")
        self.keys = None if keys is None else [(str(l), str(r)) for l, r in keys]
        if isinstance(condition, str):
            condition = parse(condition)
        self.condition = condition
        join_type = join_type.lower()
        if join_type not in OhmJoin.JOIN_KINDS:
            raise ValidationError(f"unknown join type {join_type!r}")
        self.join_type = join_type
        if self.is_placeholder:
            self.annotations.setdefault(
                "placeholder", "join predicate not yet specified"
            )

    @property
    def is_placeholder(self) -> bool:
        return self.keys is None and self.condition is None

    def effective_condition(self, left: Relation, right: Relation) -> Expr:
        """The join predicate as an expression over the two input links."""
        if self.condition is not None:
            return self.condition
        if self.keys is None:
            raise ValidationError(
                f"Join {self.name!r} is an unresolved placeholder; "
                "set keys or a condition before running"
            )
        return conjoin(
            BinaryOp(
                "=",
                ColumnRef(l, qualifier=left.name),
                ColumnRef(r, qualifier=right.name),
            )
            for l, r in self.keys
        )

    def merged_columns(
        self, left: Relation, right: Relation
    ) -> List[Tuple[str, str, str]]:
        """In keys mode, the output column plan as ``(output name, side,
        source column)`` triples: all left columns, then right columns
        minus the right key columns and minus any collision (left wins —
        DataStage Join merges key columns and keeps the left copy of
        duplicated non-key columns). In condition mode, collisions become
        dotted names on both sides (OHM JOIN behaviour). A *placeholder*
        join uses the merged plan (with no keys yet), so the skeleton's
        output schema stays stable when a programmer later fills the keys
        in."""
        plan: List[Tuple[str, str, str]] = []
        if self.keys is not None or self.is_placeholder:
            keys = self.keys or []
            for attr in left:
                plan.append((attr.name, "left", attr.name))
            dropped = {r for _l, r in keys} | set(left.attribute_names)
            for attr in right:
                if attr.name not in dropped:
                    plan.append((attr.name, "right", attr.name))
            return plan
        collisions = set(left.attribute_names) & set(right.attribute_names)
        for rel, side in ((left, "left"), (right, "right")):
            for attr in rel:
                if attr.name in collisions:
                    plan.append((f"{rel.name}.{attr.name}", side, attr.name))
                else:
                    plan.append((attr.name, side, attr.name))
        return plan

    def validate(self, inputs: Sequence[Relation]) -> None:
        left, right = inputs
        if self.is_placeholder:
            # a FastTrack skeleton: structurally valid, not yet runnable
            return
        if self.keys is not None:
            for l, r in self.keys:
                left.attribute(l)
                right.attribute(r)
        else:
            context = TypeContext()
            context.bind(left.name, left)
            context.bind(right.name, right)
            check_boolean(self.condition, context)

    def output_relations(self, inputs, out_names):
        left, right = inputs
        nullable_sides = {
            "inner": (),
            "left": ("right",),
            "right": ("left",),
            "full": ("left", "right"),
        }[self.join_type]
        attrs = []
        for out_name, side, source in self.merged_columns(left, right):
            attr = (left if side == "left" else right).attribute(source)
            attr = attr.renamed(out_name)
            if side in nullable_sides:
                attr = attr.as_nullable()
            attrs.append(attr)
        return [Relation(out_names[0], attrs)]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        left, right = inputs
        condition = self.effective_condition(left.relation, right.relation)
        plan = self.merged_columns(left.relation, right.relation)
        return [
            ops.join(
                left, right, condition, self.join_type, plan,
                out_relations[0], planner, obs, errors,
            )
        ]

    def to_config(self):
        return {
            "keys": self.keys,
            "condition": None if self.condition is None else self.condition.to_sql(),
            "join_type": self.join_type,
        }


class LookupStage(Stage):
    """Enriches a stream (input 0) from a reference input (input 1) by
    equality keys. ``on_failure`` mirrors DataStage's lookup-failure
    actions: ``continue`` null-fills (left-join behaviour), ``drop``
    discards the row, ``fail`` raises."""

    STAGE_TYPE = "Lookup"
    min_inputs = 2
    max_inputs = 2

    def __init__(
        self,
        keys: Sequence[Tuple[str, str]],
        on_failure: str = "continue",
        return_columns: Optional[Sequence[str]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not keys:
            raise ValidationError("Lookup needs at least one key pair")
        self.keys = [(str(s), str(r)) for s, r in keys]
        on_failure = on_failure.lower()
        if on_failure not in ("continue", "drop", "fail"):
            raise ValidationError(f"unknown lookup failure action {on_failure!r}")
        self.on_failure = on_failure
        self.return_columns = (
            None if return_columns is None else list(return_columns)
        )

    def _returned(self, reference: Relation) -> List[str]:
        if self.return_columns is not None:
            return list(self.return_columns)
        key_cols = {r for _s, r in self.keys}
        return [a.name for a in reference if a.name not in key_cols]

    def validate(self, inputs: Sequence[Relation]) -> None:
        stream, reference = inputs
        for s, r in self.keys:
            stream.attribute(s)
            reference.attribute(r)
        for col in self._returned(reference):
            reference.attribute(col)
            if stream.has_attribute(col):
                raise ValidationError(
                    f"Lookup {self.name!r}: returned column {col!r} collides "
                    "with a stream column"
                )

    def output_relations(self, inputs, out_names):
        stream, reference = inputs
        attrs = list(stream.attributes)
        nullable = self.on_failure == "continue"
        for col in self._returned(reference):
            attr = reference.attribute(col)
            attrs.append(attr.as_nullable() if nullable else attr)
        return [Relation(out_names[0], attrs)]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        stream, reference = inputs
        returned = self._returned(reference.relation)

        def columnar():
            if not planner.compiled:
                return None
            enriched = block.lookup_block(
                stream.as_block(),
                reference.as_block(),
                self.keys,
                returned,
                self.on_failure,
                label=self.name,
                obs=obs,
            )
            return [planner.materialize_block(out_relations[0], enriched)]

        def rows():
            index: Dict[tuple, dict] = {}
            for row in reference:
                key = tuple(row[r] for _s, r in self.keys)
                index.setdefault(key, row)  # first match wins
            enriched: List[dict] = []
            for row in stream:
                key = tuple(row[s] for s, _r in self.keys)
                hit = index.get(key)
                if hit is None:
                    if self.on_failure == "drop":
                        continue
                    if self.on_failure == "fail":
                        raise ExecutionError(
                            f"Lookup {self.name!r} failed for key {key!r}"
                        )
                    out_row = dict(row)
                    out_row.update({c: None for c in returned})
                else:
                    out_row = dict(row)
                    out_row.update({c: hit[c] for c in returned})
                enriched.append(out_row)
            return [planner.materialize(out_relations[0], enriched, fresh=True)]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {
            "keys": self.keys,
            "on_failure": self.on_failure,
            "return_columns": self.return_columns,
        }


class AggregatorStage(Stage):
    """Grouping + aggregation. ``aggregations`` are ``(output column,
    function, input column)`` triples; with an empty list the stage
    performs pure duplicate grouping (each distinct key once)."""

    STAGE_TYPE = "Aggregator"

    def __init__(
        self,
        group_keys: Sequence[str],
        aggregations: Sequence[Tuple[str, str, Optional[str]]] = (),
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not group_keys:
            raise ValidationError("Aggregator needs at least one group key")
        self.group_keys = list(group_keys)
        self.aggregations: List[Tuple[str, str, Optional[str]]] = []
        for out, func, col in aggregations:
            func = func.lower()
            if func not in AGG_FUNCTIONS:
                raise ValidationError(f"unknown aggregation {func!r}")
            if col is None and func != "count":
                raise ValidationError(f"{func} needs an input column")
            self.aggregations.append((str(out), func, col))

    def aggregate_calls(self) -> List[Tuple[str, AggregateCall]]:
        """The aggregations as OHM-level aggregate expressions."""
        calls = []
        for out, func, col in self.aggregations:
            arg = None if col is None else ColumnRef(col)
            calls.append((out, AggregateCall(func.upper(), arg)))
        return calls

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for key in self.group_keys:
            incoming.attribute(key)
        for _out, _func, col in self.aggregations:
            if col is not None:
                incoming.attribute(col)

    def reads(self, out_required, inputs) -> List[Live]:
        """Every group key, and the input column of each live
        aggregation."""
        (live,) = out_required
        if live is None:
            return [None]
        return [
            set(self.group_keys) | {
                col for out, _func, col in self.aggregations
                if col is not None and out in live
            }
        ]

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        attrs = [incoming.attribute(k) for k in self.group_keys]
        for (out, call), (_o, func, col) in zip(
            self.aggregate_calls(), self.aggregations
        ):
            dtype = infer_type(call, context, allow_aggregates=True)
            # groups are never empty: COUNT is never NULL, other
            # aggregates inherit their input column's nullability
            if func == "count":
                nullable = False
            else:
                nullable = incoming.attribute(col).nullable
            attrs.append(Attribute(out, dtype, nullable=nullable))
        return [Relation(out_names[0], attrs)]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        return [
            ops.group(
                data, self.group_keys, self.aggregate_calls(),
                out_relations[0], planner, obs, errors,
            )
        ]

    def to_config(self):
        return {
            "group_keys": self.group_keys,
            "aggregations": [list(a) for a in self.aggregations],
        }

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            config["group_keys"],
            [tuple(a) for a in config.get("aggregations", [])],
            name=name,
            annotations=annotations,
        )


class SortStage(Stage):
    """Stable multi-key sort; NULLs sort last in both directions."""

    STAGE_TYPE = "Sort"

    def __init__(self, keys: Sequence[Tuple[str, str]], **kwargs):
        super().__init__(**kwargs)
        if not keys:
            raise ValidationError("Sort needs at least one key")
        self.keys = []
        for col, direction in keys:
            direction = direction.lower()
            if direction not in ("asc", "desc"):
                raise ValidationError(f"bad sort direction {direction!r}")
            self.keys.append((str(col), direction))

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for col, _direction in self.keys:
            incoming.attribute(col)

    def reads(self, out_required, inputs) -> List[Live]:
        (live,) = out_required
        if live is None:
            return [None]
        return [live | {col for col, _direction in self.keys}]

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [incoming.renamed(out_names[0])]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs

        def columnar():
            chain = planner.fused_chain(data, obs)
            if chain is None:
                return None
            # the row kernel's permutation, applied as a selection: only
            # the key columns gather here
            order = block.sort_permutation(
                chain.view([col for col, _direction in self.keys]),
                self.keys,
                obs,
            )
            fuse.fused_op(chain, chain.length)
            return [
                Dataset.adopt_fused(out_relations[0], chain.narrow(order))
            ]

        def rows():
            ordered = kernels.sort_rows(data.rows, self.keys, obs=obs)
            return [planner.materialize(out_relations[0], ordered, fresh=True)]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {"keys": [list(k) for k in self.keys]}

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            [tuple(k) for k in config["keys"]],
            name=name,
            annotations=annotations,
        )


class RemoveDuplicatesStage(Stage):
    """Keeps one row per key (first or last occurrence) — a
    duplicate-eliminating stage, hence a composition blocker on the
    mapping side, like GROUP."""

    STAGE_TYPE = "RemoveDuplicates"

    def __init__(self, keys: Sequence[str], retain: str = "first", **kwargs):
        super().__init__(**kwargs)
        if not keys:
            raise ValidationError("RemoveDuplicates needs at least one key")
        self.keys = list(keys)
        retain = retain.lower()
        if retain not in ("first", "last"):
            raise ValidationError(f"bad retain mode {retain!r}")
        self.retain = retain

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for key in self.keys:
            incoming.attribute(key)

    def reads(self, out_required, inputs) -> List[Live]:
        (live,) = out_required
        if live is None:
            return [None]
        return [live | set(self.keys)]

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [incoming.renamed(out_names[0])]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs

        def columnar():
            chain = planner.fused_chain(data, obs)
            if chain is None:
                return None
            # pick over a key-columns-only view, as a GROUP of FIRST /
            # LAST does; the survivors narrow the selection
            survivors = block.group_picks(
                chain.view(self.keys),
                self.keys,
                -1 if self.retain == "last" else 0,
            )
            fuse.fused_op(chain, len(survivors))
            return [
                Dataset.adopt_fused(
                    out_relations[0], chain.narrow(survivors)
                )
            ]

        def rows():
            kept = kernels.dedup_rows(data.rows, self.keys, self.retain, obs=obs)
            return [planner.materialize(out_relations[0], kept, fresh=True)]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {"keys": self.keys, "retain": self.retain}


__all__ = [
    "JoinStage",
    "LookupStage",
    "AggregatorStage",
    "SortStage",
    "RemoveDuplicatesStage",
    "AGG_FUNCTIONS",
]

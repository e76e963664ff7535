"""Restructure stages: nesting and flattening (NF²).

DataStage's restructure stages (Combine Records, Promote Subrecord, Make
Vector, …) move between flat and nested record layouts. These two stages
give the OHM NEST/UNNEST operators (paper section IV: "OHM ... supports
nested data structures through the NEST and UNNEST operators, similar to
operators defined in the NF² data model") a genuine ETL counterpart:

* :class:`CombineRecords` groups rows by key columns and packs the
  remaining columns of each group into a set-valued subrecord column,
* :class:`PromoteSubrecord` flattens such a column back into rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ValidationError
from repro.etl.model import Stage
from repro.exec import ops
from repro.schema.model import Attribute, Relation
from repro.schema.types import RecordType, SetType


class CombineRecords(Stage):
    """Nest: group by ``keys``, pack ``nested`` columns into ``into``."""

    STAGE_TYPE = "CombineRecords"

    def __init__(
        self,
        keys: Sequence[str],
        nested: Sequence[str],
        into: str,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not keys:
            raise ValidationError("CombineRecords needs at least one key")
        if not nested:
            raise ValidationError(
                "CombineRecords needs at least one nested column"
            )
        self.keys = list(keys)
        self.nested = list(nested)
        self.into = into
        if into in self.keys:
            raise ValidationError(
                f"CombineRecords: {into!r} collides with a key column"
            )

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

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        return [
            ops.nest(
                data, self.keys, self.nested, self.into, out_relations[0],
                planner, obs,
            )
        ]

    def to_config(self):
        return {"keys": self.keys, "nested": self.nested, "into": self.into}


class PromoteSubrecord(Stage):
    """Unnest: flatten the set-valued column ``attr`` into rows; rows
    whose set is empty (or NULL) produce no output rows."""

    STAGE_TYPE = "PromoteSubrecord"

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
                f"PromoteSubrecord: {self.attr!r} must be a set of records"
            )

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        element: RecordType = incoming.attribute(self.attr).dtype.element_type
        attrs = [a for a in incoming if a.name != self.attr]
        attrs += [Attribute(name, dtype) for name, dtype in element.fields]
        return [Relation(out_names[0], attrs)]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        return [ops.unnest(data, self.attr, out_relations[0], planner, obs)]

    def to_config(self):
        return {"attr": self.attr}


__all__ = ["CombineRecords", "PromoteSubrecord"]

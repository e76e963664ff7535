"""Refined PROJECT variants — OHM operator subtyping (paper section IV).

"An operator subtype may introduce additional semantics by defining how
new properties are reflected into inherited properties ... a refined
operator must be a specialization of its more generic base operator. That
is, its behavior must be realizable by the base operator. Consequently,
rewrite rules that apply to a base operator also apply to any refined
variant."

Each subtype here constructs the derivations of its PROJECT base from its
own refined properties, so the OHM engine, schema propagation, rewrites,
and the mapping generator all treat it as a PROJECT; ``as_base_project``
materializes the generalization explicitly (used by a property test to
assert behavioural equality).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.expr.ast import ColumnRef, Expr, FunctionCall, Literal
from repro.expr.functions import DEFAULT_REGISTRY, register
from repro.ohm.operators import Project
from repro.schema.model import Relation
from repro.schema.types import INTEGER, STRING

# SPLIT_PART / surrogate-key support functions used by the subtypes'
# inherited derivations. Registered once at import.
if not DEFAULT_REGISTRY.knows("SPLIT_PART"):
    register(
        "SPLIT_PART",
        lambda s, delim, n: (s.split(delim) + [""] * n)[n - 1],
        STRING,
        3,
    )

_keygen_sequences = {}


def _next_key(sequence: str, start: int) -> int:
    value = _keygen_sequences.get(sequence, start)
    _keygen_sequences[sequence] = value + 1
    return value


def reset_keygen_sequences() -> None:
    """Reset all surrogate-key counters (tests and repeated runs)."""
    _keygen_sequences.clear()


class BasicProject(Project):
    """"BASIC PROJECT permits only renaming and dropping columns, and does
    not support complex transformations or data type changes."

    ``columns`` is a list of ``(output_name, input_name)`` pairs.
    """

    KIND = "BASIC PROJECT"

    def __init__(self, columns: Sequence[Tuple[str, str]], **kwargs):
        if not columns:
            raise ValidationError("BASIC PROJECT requires at least one column")
        self.columns = [(str(out), str(src)) for out, src in columns]
        derivations = [
            (out, ColumnRef(src)) for out, src in self.columns
        ]
        super().__init__(derivations, **kwargs)

    @classmethod
    def identity(cls, relation: Relation, **kwargs) -> "BasicProject":
        """The pass-everything-through projection over ``relation`` — the
        'redundant (i.e., empty) operator' shape stage compilers may emit."""
        return cls([(a.name, a.name) for a in relation], **kwargs)

    @classmethod
    def keep(cls, names: Sequence[str], **kwargs) -> "BasicProject":
        """Keep exactly ``names``, unrenamed."""
        return cls([(n, n) for n in names], **kwargs)

    def as_base_project(self) -> Project:
        """The PROJECT generalization with identical behaviour."""
        return Project(list(self.derivations), label=self.label)

    def describe_properties(self):
        return {"columns": dict(self.columns)}


class KeyGen(Project):
    """"KEYGEN introduces and populates a new surrogate key column in the
    output dataset."

    All input columns pass through; ``key_column`` is appended and
    populated from a named monotone sequence starting at ``start``.
    Schema-wise this is a PROJECT whose extra derivation is the opaque
    ``NEXT_SURROGATE_KEY(sequence)`` function; the OHM engine recognizes
    and executes it, and deployment maps it onto a SurrogateKey stage.
    """

    KIND = "KEYGEN"
    prunable = False

    def __init__(
        self,
        key_column: str,
        sequence: Optional[str] = None,
        start: int = 1,
        passthrough: Optional[Sequence[str]] = None,
        **kwargs,
    ):
        self.key_column = key_column
        self.sequence = sequence or key_column
        self.start = int(start)
        self._passthrough = list(passthrough) if passthrough is not None else None
        derivations: List[Tuple[str, Expr]] = []
        if self._passthrough is not None:
            derivations = [(name, ColumnRef(name)) for name in self._passthrough]
        derivations.append(
            (
                key_column,
                FunctionCall("NEXT_SURROGATE_KEY", [Literal(self.sequence)]),
            )
        )
        super().__init__(derivations, **kwargs)
        _keygen_sequences.setdefault(self.sequence, self.start)

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        if incoming.has_attribute(self.key_column):
            raise ValidationError(
                f"KEYGEN: input already has column {self.key_column!r}"
            )
        if self._passthrough is None:
            # late-bind passthrough to the actual input columns
            self.derivations = [
                (a.name, ColumnRef(a.name)) for a in incoming
            ] + [self.derivations[-1]]
            self._passthrough = list(incoming.attribute_names)
        super().validate(inputs)

    def as_base_project(self) -> Project:
        return Project(list(self.derivations), label=self.label)

    def describe_properties(self):
        return {"key_column": self.key_column, "sequence": self.sequence}


if not DEFAULT_REGISTRY.knows("NEXT_SURROGATE_KEY"):
    register(
        "NEXT_SURROGATE_KEY",
        lambda sequence: _next_key(sequence, 1),
        INTEGER,
        1,
        null_propagating=False,
    )


class ColumnSplit(Project):
    """"COLUMN SPLIT ... split[s] the content of a single column into
    multiple output columns" by a delimiter; all other columns pass
    through, the source column is replaced by its parts."""

    KIND = "COLUMN SPLIT"
    prunable = False

    def __init__(
        self,
        source: str,
        targets: Sequence[str],
        delimiter: str,
        passthrough: Sequence[str] = (),
        **kwargs,
    ):
        if len(targets) < 2:
            raise ValidationError("COLUMN SPLIT needs at least two targets")
        self.source = source
        self.targets = list(targets)
        self.delimiter = delimiter
        self.passthrough = list(passthrough)
        derivations: List[Tuple[str, Expr]] = [
            (name, ColumnRef(name)) for name in self.passthrough
        ]
        derivations += [
            (
                target,
                FunctionCall(
                    "SPLIT_PART",
                    [ColumnRef(source), Literal(delimiter), Literal(i + 1)],
                ),
            )
            for i, target in enumerate(self.targets)
        ]
        super().__init__(derivations, **kwargs)

    def as_base_project(self) -> Project:
        return Project(list(self.derivations), label=self.label)

    def describe_properties(self):
        return {
            "source": self.source,
            "targets": self.targets,
            "delimiter": self.delimiter,
        }


class ColumnMerge(Project):
    """"COLUMN MERGE" — the inverse pair of COLUMN SPLIT: concatenates
    several input columns into one output column with a delimiter."""

    KIND = "COLUMN MERGE"
    prunable = False

    def __init__(
        self,
        sources: Sequence[str],
        target: str,
        delimiter: str,
        passthrough: Sequence[str] = (),
        **kwargs,
    ):
        if len(sources) < 2:
            raise ValidationError("COLUMN MERGE needs at least two sources")
        self.sources = list(sources)
        self.target = target
        self.delimiter = delimiter
        self.passthrough = list(passthrough)
        merged: Expr = ColumnRef(self.sources[0])
        for source in self.sources[1:]:
            merged = FunctionCall(
                "CONCAT", [merged, Literal(delimiter), ColumnRef(source)]
            )
        derivations: List[Tuple[str, Expr]] = [
            (name, ColumnRef(name)) for name in self.passthrough
        ]
        derivations.append((target, merged))
        super().__init__(derivations, **kwargs)

    def as_base_project(self) -> Project:
        return Project(list(self.derivations), label=self.label)

    def describe_properties(self):
        return {
            "sources": self.sources,
            "target": self.target,
            "delimiter": self.delimiter,
        }


__all__ = [
    "BasicProject",
    "KeyGen",
    "ColumnSplit",
    "ColumnMerge",
    "reset_keygen_sequences",
]

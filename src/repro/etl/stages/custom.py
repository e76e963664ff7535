"""Custom (black-box) stages.

"ETL systems allow users to plug-in their own custom stages or operators
which are frequently written in a separate host language and executed as
an external procedure call" — these compile to OHM's UNKNOWN operator and
induce materialization points on the mapping side (paper sections IV, V-B).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.data.dataset import Dataset
from repro.errors import ExecutionError, ValidationError
from repro.etl.model import Stage
from repro.etl.stages.access import _relation_from_config, _relation_to_config
from repro.schema.model import Relation


class CustomStage(Stage):
    """A user-supplied stage with declared output schemas and an opaque
    implementation.

    :ivar output_schemas: declared relation per output link (the "we at
        least know what are the input and output types" contract).
    :ivar implementation: optional Python callable
        ``fn(inputs: List[Dataset]) -> List[List[row]]`` standing in for
        the external procedure; without it the stage (and any OHM graph
        containing its UNKNOWN image) cannot be executed.
    :ivar reference: external name recorded in generated mappings.
    """

    STAGE_TYPE = "Custom"
    min_inputs = 1
    max_inputs = None
    min_outputs = 1
    max_outputs = None

    def __init__(
        self,
        output_schemas: Sequence[Relation],
        reference: Optional[str] = None,
        implementation: Optional[Callable] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not output_schemas:
            raise ValidationError("Custom stage needs declared output schemas")
        self.output_schemas = list(output_schemas)
        self.reference = reference or self.name
        self.implementation = implementation

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        super().check_port_counts(n_inputs, n_outputs)
        if n_outputs != len(self.output_schemas):
            raise ValidationError(
                f"Custom {self.name!r}: {n_outputs} links wired but "
                f"{len(self.output_schemas)} output schemas declared"
            )

    def output_relations(self, inputs, out_names):
        return [
            schema.renamed(name)
            for schema, name in zip(self.output_schemas, out_names)
        ]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        if self.implementation is None:
            raise ExecutionError(
                f"Custom stage {self.reference!r} has no implementation bound"
            )
        produced = self.implementation(list(inputs))
        if len(produced) != len(out_relations):
            raise ExecutionError(
                f"Custom stage {self.reference!r} produced {len(produced)} "
                f"outputs, expected {len(out_relations)}"
            )
        return [
            Dataset(rel, [dict(r) for r in rows], validate=False)
            for rel, rows in zip(out_relations, produced)
        ]

    def to_config(self):
        return {
            "output_schemas": [
                _relation_to_config(rel) for rel in self.output_schemas
            ],
            "reference": self.reference,
        }

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            [_relation_from_config(c) for c in config["output_schemas"]],
            config.get("reference"),
            name=name,
            annotations=annotations,
        )


__all__ = ["CustomStage"]

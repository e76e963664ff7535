"""Access stages: table/file sources and targets, row generation.

These anchor a job to external data, like DataStage's database connector
and Sequential File stages. Table sources/targets resolve against the
:class:`~repro.data.dataset.Instance` the engine is run with; file stages
read/write CSV on disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.csvio import read_csv, write_csv
from repro.data.dataset import Dataset, Instance
from repro.dataflow import Live
from repro.errors import ExecutionError, ValidationError
from repro.etl.model import Stage
from repro.exec import ops
from repro.schema.model import Attribute, Relation, relation as make_relation


def _relation_to_config(rel: Relation) -> Dict[str, object]:
    return {
        "name": rel.name,
        "columns": [
            {
                "name": a.name,
                "type": getattr(a.dtype, "name", repr(a.dtype)),
                "nullable": a.nullable,
                "key": a.is_key,
            }
            for a in rel
        ],
    }


def _relation_from_config(config: Dict[str, object]) -> Relation:
    attrs = [
        Attribute(
            c["name"], c["type"], nullable=c.get("nullable", True),
            is_key=c.get("key", False),
        )
        for c in config["columns"]
    ]
    return Relation(config["name"], attrs)


class TableSource(Stage):
    """Reads a named relation from the run's input instance."""

    STAGE_TYPE = "TableSource"
    min_inputs = 0
    max_inputs = 0

    def __init__(self, relation: Relation, **kwargs):
        kwargs.setdefault("name", f"src_{relation.name}")
        super().__init__(**kwargs)
        self.relation = relation

    def output_relations(self, inputs, out_names):
        return [self.relation.renamed(name) for name in out_names]

    def extract(self, instance: Instance) -> Dataset:
        if self.relation.name not in instance:
            raise ExecutionError(
                f"source table {self.relation.name!r} not in instance",
                stage=self.name,
            )
        return instance.dataset(self.relation.name).with_relation(self.relation)

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        raise ExecutionError(
            "TableSource is executed by the engine via extract()",
            stage=self.name,
        )

    def to_config(self):
        return {"relation": _relation_to_config(self.relation)}

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            _relation_from_config(config["relation"]),
            name=name,
            annotations=annotations,
        )


class TableTarget(Stage):
    """Delivers rows into a named target relation."""

    STAGE_TYPE = "TableTarget"
    min_outputs = 0
    max_outputs = 0

    def __init__(self, relation: Relation, **kwargs):
        kwargs.setdefault("name", f"tgt_{relation.name}")
        super().__init__(**kwargs)
        self.relation = relation

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for attr in self.relation:
            if not incoming.has_attribute(attr.name):
                raise ValidationError(
                    f"target {self.relation.name!r}: input link lacks column "
                    f"{attr.name!r} (has {list(incoming.attribute_names)})"
                )

    def output_relations(self, inputs, out_names):
        return []

    def reads(self, out_required, inputs) -> List[Live]:
        return [set(self.relation.attribute_names)]

    def load(
        self, data: Dataset, trusted: bool = False, errors=None
    ) -> Dataset:
        """Deliver ``data`` into the target relation
        (:func:`repro.exec.ops.deliver`): ``trusted`` skips the per-row
        type re-validation, an active ``errors`` context forces it."""
        return ops.deliver(data, self.relation, trusted, errors)

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        raise ExecutionError(
            "TableTarget is executed by the engine via load()",
            stage=self.name,
        )

    def to_config(self):
        return {"relation": _relation_to_config(self.relation)}

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            _relation_from_config(config["relation"]),
            name=name,
            annotations=annotations,
        )


class SequentialFileSource(TableSource):
    """Reads a CSV file from disk (DataStage "Sequential File" source)."""

    STAGE_TYPE = "SequentialFileSource"

    def __init__(self, relation: Relation, path: str, **kwargs):
        super().__init__(relation, **kwargs)
        self.path = path

    def extract(self, instance: Instance) -> Dataset:
        return read_csv(self.path, self.relation)

    def to_config(self):
        return {"relation": _relation_to_config(self.relation), "path": self.path}

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            _relation_from_config(config["relation"]),
            config["path"],
            name=name,
            annotations=annotations,
        )


class SequentialFileTarget(TableTarget):
    """Writes a CSV file to disk (DataStage "Sequential File" target)."""

    STAGE_TYPE = "SequentialFileTarget"

    def __init__(self, relation: Relation, path: str, **kwargs):
        super().__init__(relation, **kwargs)
        self.path = path

    def load(
        self, data: Dataset, trusted: bool = False, errors=None
    ) -> Dataset:
        result = super().load(data, trusted=trusted, errors=errors)
        write_csv(result, self.path)
        return result

    def to_config(self):
        return {"relation": _relation_to_config(self.relation), "path": self.path}

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            _relation_from_config(config["relation"]),
            config["path"],
            name=name,
            annotations=annotations,
        )


class RowGenerator(Stage):
    """Generates ``count`` synthetic rows from per-column generator specs.

    Spec forms (per column): ``{"cycle": [v1, v2, ...]}``,
    ``{"initial": i, "increment": d}``, or ``{"constant": v}``.
    """

    STAGE_TYPE = "RowGenerator"
    min_inputs = 0
    max_inputs = 0

    def __init__(
        self,
        relation: Relation,
        count: int,
        generators: Optional[Dict[str, Dict[str, object]]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.relation = relation
        self.count = int(count)
        self.generators = dict(generators or {})
        for column in self.generators:
            relation.attribute(column)

    def output_relations(self, inputs, out_names):
        return [self.relation.renamed(name) for name in out_names]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        rows = []
        for i in range(self.count):
            row = {}
            for attr in self.relation:
                spec = self.generators.get(attr.name)
                if spec is None:
                    row[attr.name] = None
                elif "cycle" in spec:
                    values = spec["cycle"]
                    row[attr.name] = values[i % len(values)]
                elif "constant" in spec:
                    row[attr.name] = spec["constant"]
                else:
                    initial = spec.get("initial", 0)
                    increment = spec.get("increment", 1)
                    row[attr.name] = initial + i * increment
            rows.append(row)
        return [Dataset(out, rows, validate=False) for out in out_relations]

    def to_config(self):
        return {
            "relation": _relation_to_config(self.relation),
            "count": self.count,
            "generators": self.generators,
        }

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            _relation_from_config(config["relation"]),
            config["count"],
            config.get("generators"),
            name=name,
            annotations=annotations,
        )


__all__ = [
    "TableSource",
    "TableTarget",
    "SequentialFileSource",
    "SequentialFileTarget",
    "RowGenerator",
]

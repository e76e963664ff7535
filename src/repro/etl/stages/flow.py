"""Flow stages: Filter, Switch, Copy, Funnel, Peek.

The Filter stage implements exactly the semantics the paper devotes
Figure 6 to: "a Filter stage can produce multiple output datasets, with
separate predicates for each output. An input row may therefore
potentially be copied to zero, one, or multiple outputs. Alternatively,
the Filter stage can operate in a so-called row-only-once mode, which
causes the evaluation of the output predicates in the order that the
corresponding output datasets are specified, and does not reconsider a
row for further processing once the row meets one of the conditions. In
addition ..., the Filter stage supports simple projection for each output
dataset."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.dataset import Dataset
from repro.errors import ValidationError
from repro.etl.model import Stage
from repro.exec import block, fuse, kernels, ops
from repro.exec.block import relation_resolver
from repro.expr.ast import Expr
from repro.expr.parser import parse
from repro.expr.typecheck import TypeContext, check_boolean
from repro.schema.model import Relation


class FilterOutput:
    """One Filter output dataset: a predicate plus an optional simple
    projection (a subset of input columns, possibly renamed).

    :ivar where: boolean predicate; ``None`` on a reject output.
    :ivar columns: ``(output name, input name)`` pairs, or ``None`` to
        pass all input columns through.
    :ivar reject: when True the output receives rows that matched no
        predicate output (DataStage Filter reject link).
    """

    def __init__(
        self,
        where: Union[Expr, str, None] = None,
        columns: Optional[Sequence[Tuple[str, str]]] = None,
        reject: bool = False,
    ):
        if isinstance(where, str):
            where = parse(where)
        self.where = where
        self.columns = None if columns is None else [
            (str(o), str(i)) for o, i in columns
        ]
        self.reject = bool(reject)
        if reject and where is not None:
            raise ValidationError("a reject output cannot carry a predicate")
        if not reject and where is None:
            raise ValidationError("a non-reject output needs a predicate")

    def to_config(self) -> Dict[str, object]:
        return {
            "where": None if self.where is None else self.where.to_sql(),
            "columns": self.columns,
            "reject": self.reject,
        }

    @classmethod
    def from_config(cls, config: Dict[str, object]) -> "FilterOutput":
        columns = config.get("columns")
        return cls(
            config.get("where"),
            None if columns is None else [(o, i) for o, i in columns],
            config.get("reject", False),
        )


class FilterStage(Stage):
    """Multi-output predicate routing with optional row-only-once mode."""

    STAGE_TYPE = "Filter"
    min_outputs = 1
    max_outputs = None
    supports_reject_link = True

    def __init__(
        self,
        outputs: Sequence[FilterOutput],
        row_only_once: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not outputs:
            raise ValidationError("Filter needs at least one output")
        self.outputs = list(outputs)
        self.row_only_once = bool(row_only_once)
        rejects = [o for o in self.outputs if o.reject]
        if len(rejects) > 1:
            raise ValidationError("at most one reject output")
        if rejects and self.outputs[-1] is not rejects[0]:
            raise ValidationError("the reject output must be last")

    @classmethod
    def single(
        cls, where: Union[Expr, str], columns=None, **kwargs
    ) -> "FilterStage":
        return cls([FilterOutput(where, columns)], **kwargs)

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        super().check_port_counts(n_inputs, n_outputs)
        if n_outputs != len(self.outputs):
            raise ValidationError(
                f"Filter {self.name!r}: {n_outputs} links wired but "
                f"{len(self.outputs)} output specs configured"
            )

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        for output in self.outputs:
            if output.where is not None:
                check_boolean(output.where, context)
            if output.columns is not None:
                for _out, source in output.columns:
                    incoming.attribute(source)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        relations = []
        for output, name in zip(self.outputs, out_names):
            if output.columns is None:
                relations.append(incoming.renamed(name))
            else:
                attrs = [
                    incoming.attribute(source).renamed(out)
                    for out, source in output.columns
                ]
                relations.append(Relation(name, attrs))
        return relations

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        return ops.route(
            data,
            [(output.where, output.columns) for output in self.outputs],
            out_relations,
            self.row_only_once,
            planner,
            obs,
            errors,
        )

    def to_config(self):
        return {
            "outputs": [o.to_config() for o in self.outputs],
            "row_only_once": self.row_only_once,
        }

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            [FilterOutput.from_config(o) for o in config["outputs"]],
            config.get("row_only_once", False),
            name=name,
            annotations=annotations,
        )


class SwitchStage(Stage):
    """Routes each row to exactly one output by the value of a selector
    expression; an optional default output catches unmatched rows."""

    STAGE_TYPE = "Switch"
    min_outputs = 1
    max_outputs = None
    supports_reject_link = True

    def __init__(
        self,
        selector: Union[Expr, str],
        cases: Sequence[object],
        has_default: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.selector = parse(selector) if isinstance(selector, str) else selector
        self.cases = list(cases)
        self.has_default = bool(has_default)
        if not self.cases:
            raise ValidationError("Switch needs at least one case")

    @property
    def n_outputs(self) -> int:
        return len(self.cases) + (1 if self.has_default else 0)

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        super().check_port_counts(n_inputs, n_outputs)
        if n_outputs != self.n_outputs:
            raise ValidationError(
                f"Switch {self.name!r}: {n_outputs} links wired but "
                f"{self.n_outputs} outputs configured"
            )

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        context = TypeContext(incoming).bind(incoming.name, incoming)
        from repro.expr.typecheck import infer_type

        infer_type(self.selector, context)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [incoming.renamed(name) for name in out_names]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs

        def columnar():
            chain = planner.fused_chain(data, obs)
            if chain is None:
                return None
            resolve = relation_resolver(data.relation.name, chain.handles)
            selector = planner.block_scalar(self.selector, resolve)
            if selector is None:
                return None
            reads = fuse.read_set([self.selector], resolve)
            routed = block.switch_block(
                chain.view(reads), selector, self.cases, self.has_default,
                obs=obs,
            )
            survivors = sum(len(indices) for indices in routed)
            results = [
                Dataset.adopt_fused(rel, chain.narrow(indices))
                for indices, rel in zip(routed, out_relations)
            ]
            fuse.fused_op(chain, survivors)
            return results

        def rows():
            routed = kernels.switch_rows(
                data.rows,
                planner.scalar(self.selector),
                self.cases,
                self.has_default,
                kernels.row_binder(data.relation.name),
                obs=obs,
                on_error=errors.kernel_handler() if errors is not None else None,
            )
            return [
                planner.materialize(rel, [dict(row) for row in selected], fresh=True)
                for selected, rel in zip(routed, out_relations)
            ]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {
            "selector": self.selector.to_sql(),
            "cases": self.cases,
            "has_default": self.has_default,
        }


class CopyStage(Stage):
    """Copies the input to each output, optionally keeping only a subset
    of columns per output."""

    STAGE_TYPE = "Copy"
    min_outputs = 1
    max_outputs = None

    def __init__(
        self,
        keep_columns: Optional[Sequence[Optional[Sequence[str]]]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        # one entry per output; None = all columns
        self.keep_columns = (
            None if keep_columns is None else [
                None if cols is None else list(cols) for cols in keep_columns
            ]
        )

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        super().check_port_counts(n_inputs, n_outputs)
        if self.keep_columns is not None and n_outputs != len(self.keep_columns):
            raise ValidationError(
                f"Copy {self.name!r}: {n_outputs} links wired but "
                f"{len(self.keep_columns)} column specs configured"
            )

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for cols in self.keep_columns or []:
            for col in cols or []:
                incoming.attribute(col)

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        relations = []
        for i, name in enumerate(out_names):
            cols = None
            if self.keep_columns is not None:
                cols = self.keep_columns[i]
            if cols is None:
                relations.append(incoming.renamed(name))
            else:
                relations.append(incoming.project(cols, name))
        return relations

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        return ops.fan_out(data, out_relations, planner, obs)

    def to_config(self):
        return {"keep_columns": self.keep_columns}


class FunnelStage(Stage):
    """Bag union of several union-compatible inputs (continuous funnel)."""

    STAGE_TYPE = "Funnel"
    min_inputs = 2
    max_inputs = None

    def validate(self, inputs: Sequence[Relation]) -> None:
        first = inputs[0]
        for other in inputs[1:]:
            if not first.is_union_compatible(other):
                raise ValidationError(
                    f"Funnel {self.name!r}: inputs {first.name!r} and "
                    f"{other.name!r} are not union-compatible"
                )

    def output_relations(self, inputs, out_names):
        return [inputs[0].renamed(out_names[0])]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        return [ops.union(inputs, out_relations[0], False, planner, obs)]


class PeekStage(Stage):
    """Passes rows through unchanged while retaining the first ``sample``
    rows for inspection (DataStage Peek — a monitoring stage with no
    transformation semantics; compiles to an identity)."""

    STAGE_TYPE = "Peek"

    def __init__(self, sample: int = 10, **kwargs):
        super().__init__(**kwargs)
        self.sample = int(sample)
        self.peeked: List[dict] = []

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [incoming.renamed(out_names[0])]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs

        def columnar():
            chain = planner.fused_chain(data, obs)
            if chain is None:
                return None
            # identity: the chain passes straight through; the sample
            # gathers only its first rows
            self.peeked = chain.head_rows(
                self.sample, data.relation.attribute_names
            )
            return [Dataset.adopt_fused(out_relations[0], chain)]

        def rows():
            self.peeked = [dict(r) for r in data.rows[: self.sample]]
            return [
                Dataset(
                    out_relations[0], [dict(r) for r in data], validate=False
                )
            ]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {"sample": self.sample}


__all__ = [
    "FilterOutput",
    "FilterStage",
    "SwitchStage",
    "CopyStage",
    "FunnelStage",
    "PeekStage",
]

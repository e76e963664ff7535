"""Transformation stages: Transformer, Modify, SurrogateKey.

The Transformer is DataStage's workhorse stage: per-output column
derivations, per-output constraints, stage variables, and an "otherwise"
link catching rows no constrained output accepted. The paper's example
uses it as the "Prepare Customers" stage computing agegroup/endDate/years
(Figure 3 / Figure 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.data.dataset import Dataset
from repro.dataflow import Live, columns_read
from repro.errors import ValidationError
from repro.etl.model import Stage
from repro.exec import block, fuse, kernels, ops
from repro.exec.block import RowBlock, relation_resolver
from repro.expr.ast import Expr
from repro.expr.evaluator import Environment
from repro.expr.parser import parse
from repro.expr.typecheck import TypeContext, check_boolean, infer_type
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, atomic


class OutputLink:
    """One Transformer output: derivations plus an optional constraint.

    :ivar derivations: ``(output column, expression)`` pairs.
    :ivar constraint: boolean expression gating the output, or ``None``.
    :ivar otherwise: when True the link receives rows that satisfied no
        constrained link (DataStage "otherwise" link).
    """

    def __init__(
        self,
        derivations: Sequence[Tuple[str, Union[Expr, str]]],
        constraint: Union[Expr, str, None] = None,
        otherwise: bool = False,
    ):
        if not derivations:
            raise ValidationError("Transformer output link needs derivations")
        self.derivations: List[Tuple[str, Expr]] = [
            (name, parse(expr) if isinstance(expr, str) else expr)
            for name, expr in derivations
        ]
        names = [n for n, _ in self.derivations]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate output columns in link: {names}")
        if isinstance(constraint, str):
            constraint = parse(constraint)
        self.constraint = constraint
        self.otherwise = bool(otherwise)
        if otherwise and constraint is not None:
            raise ValidationError("an otherwise link cannot carry a constraint")

    def to_config(self) -> Dict[str, object]:
        return {
            "derivations": [[n, e.to_sql()] for n, e in self.derivations],
            "constraint": None if self.constraint is None else self.constraint.to_sql(),
            "otherwise": self.otherwise,
        }

    @classmethod
    def from_config(cls, config: Dict[str, object]) -> "OutputLink":
        return cls(
            [(n, e) for n, e in config["derivations"]],
            config.get("constraint"),
            config.get("otherwise", False),
        )


class Transformer(Stage):
    """Row-wise transformation with derivations, constraints, stage
    variables, and multiple outputs."""

    STAGE_TYPE = "Transformer"
    min_outputs = 1
    max_outputs = None
    supports_reject_link = True

    def __init__(
        self,
        outputs: Sequence[OutputLink],
        stage_variables: Sequence[Tuple[str, Union[Expr, str]]] = (),
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not outputs:
            raise ValidationError("Transformer needs at least one output link")
        self.outputs = list(outputs)
        self.stage_variables: List[Tuple[str, Expr]] = [
            (name, parse(expr) if isinstance(expr, str) else expr)
            for name, expr in stage_variables
        ]
        if sum(1 for o in self.outputs if o.otherwise) > 1:
            raise ValidationError("at most one otherwise link")

    @classmethod
    def single(
        cls,
        derivations: Sequence[Tuple[str, Union[Expr, str]]],
        constraint: Union[Expr, str, None] = None,
        **kwargs,
    ) -> "Transformer":
        """The common one-output Transformer."""
        return cls([OutputLink(derivations, constraint)], **kwargs)

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        super().check_port_counts(n_inputs, n_outputs)
        if n_outputs != len(self.outputs):
            raise ValidationError(
                f"Transformer {self.name!r}: {n_outputs} links wired but "
                f"{len(self.outputs)} output specs configured"
            )

    def _context(self, incoming: Relation) -> TypeContext:
        context = TypeContext(incoming).bind(incoming.name, incoming)
        # stage variables become pseudo-columns for downstream typing
        var_attrs = []
        for name, expr in self.stage_variables:
            var_attrs.append(Attribute(name, infer_type(expr, context)))
            context = TypeContext(
                Relation(incoming.name, list(incoming.attributes) + var_attrs)
            ).bind(incoming.name, incoming)
        return context

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        context = self._context(incoming)
        for link in self.outputs:
            for _name, expr in link.derivations:
                infer_type(expr, context)
            if link.constraint is not None:
                check_boolean(link.constraint, context)

    def output_relations(self, inputs, out_names):
        from repro.expr.ast import ColumnRef

        (incoming,) = inputs
        context = self._context(incoming)
        relations = []
        for link, name in zip(self.outputs, out_names):
            attrs = []
            for col, expr in link.derivations:
                if isinstance(expr, ColumnRef) and incoming.has_attribute(
                    expr.name
                ):
                    # passthrough columns keep nullability/key metadata
                    attrs.append(incoming.attribute(expr.name).renamed(col))
                else:
                    attrs.append(Attribute(col, infer_type(expr, context)))
            relations.append(Relation(name, attrs))
        return relations

    def reads(self, out_required, inputs) -> List[Live]:
        """What the stage variables, each constraint and each live
        derivation read (a stage variable is not an input column)."""
        (incoming,) = inputs
        exprs: List[Expr] = [expr for _name, expr in self.stage_variables]
        for link, live in zip(self.outputs, out_required):
            if link.constraint is not None:
                exprs.append(link.constraint)
            exprs.extend(
                expr for col, expr in link.derivations
                if live is None or col in live
            )
        return [columns_read(exprs, incoming)]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        return ops.columnar_or_rows(
            lambda: self._execute_chain(data, out_relations, planner, obs),
            lambda: self._execute_rows(
                data, out_relations, planner, obs, errors
            ),
            errors,
            obs,
        )

    def _execute_rows(self, data, out_relations, planner, obs, errors):
        relation_name = data.relation.name
        handling = errors is not None and errors.handling
        var_fns = [
            (name, planner.scalar(expr)) for name, expr in self.stage_variables
        ]

        # one environment per row: the anonymous binding is a copy of the
        # row augmented with the stage variables (computed top-down, so a
        # variable may reference earlier ones); the link-qualified binding
        # stays the raw input row
        envs = []
        for index, row in enumerate(data.rows):
            env = Environment(dict(row)).bind(relation_name, row)
            anon = env.bindings[None]
            try:
                for name, fn in var_fns:
                    anon[name] = fn(env)
            except Exception as exc:
                if not handling:
                    raise
                errors.record(index, row, exc)
                continue
            envs.append(env)

        row_of = lambda env: env.bindings[relation_name]  # noqa: E731
        on_error = errors.kernel_handler(row_of=row_of) if handling else None
        specs = []
        for link in self.outputs:
            if link.otherwise:
                specs.append(("fallback", None))
            elif link.constraint is None:
                specs.append(("always", None))
            else:
                specs.append(("pred", planner.predicate(link.constraint)))
        routed = kernels.route_rows(envs, specs, obs=obs, on_error=on_error)
        return [
            planner.materialize(
                rel,
                kernels.project_rows(
                    link_envs,
                    [
                        (col, planner.scalar(expr))
                        for col, expr in link.derivations
                    ],
                    obs=obs,
                    on_error=(
                        errors.kernel_handler(row_of=row_of, link=rel.name)
                        if handling
                        else None
                    ),
                ),
                fresh=True,
            )
            for link, link_envs, rel in zip(
                self.outputs, routed, out_relations
            )
        ]

    def _execute_chain(self, data, out_relations, planner, obs):
        """Columnar execution, or ``None`` when the planner is the
        oracle or any stage variable, constraint, or derivation cannot
        be lowered column-wise (all or nothing per stage).

        The environment is a handle overlay on the chain mirroring the
        row path's per-row environment: plain names are the anonymous
        row (input columns, shadowed by stage variables), while
        ``link.column`` aliases keep the raw input columns — exactly
        what a link-qualified reference resolves to first. Stage
        variables and derivations evaluate eagerly, so errors surface
        at this stage, but only over read-set views of the surviving
        selection; each link's derivations are a PROJECT's
        (:func:`repro.exec.ops.lower_projection`)."""
        chain = planner.fused_chain(data, obs)
        if chain is None:
            return None
        relation_name = data.relation.name
        env = chain.with_handles(
            {
                f"{relation_name}.{name}": handle
                for name, handle in chain.handles.items()
            }
        )
        # stage variables compute top-down; each sees the ones before it
        for name, expr in self.stage_variables:
            resolve = relation_resolver(None, env.handles)
            fn = planner.block_scalar(expr, resolve)
            if fn is None:
                return None
            reads = fuse.read_set([expr], resolve)
            env = env.with_handles({name: fn(env.view(reads))})
        resolve = relation_resolver(None, env.handles)
        specs = []
        constraints = []
        for link in self.outputs:
            if link.otherwise:
                specs.append(("fallback", None))
            elif link.constraint is None:
                specs.append(("always", None))
            else:
                predicate = planner.block_predicate(link.constraint, resolve)
                if predicate is None:
                    return None
                specs.append(("pred", predicate))
                constraints.append(link.constraint)
        # lower every link up front — the body is all-or-nothing
        projections = []
        for link in self.outputs:
            project = ops.lower_projection(link.derivations, resolve, planner)
            if project is None:
                return None
            projections.append(project)
        routed = block.route_block(
            env.view(fuse.read_set(constraints, resolve)), specs, obs=obs
        )
        results = [
            Dataset.adopt_fused(rel, project(env.narrow(indices)))
            for project, indices, rel in zip(projections, routed, out_relations)
        ]
        fuse.fused_op(chain, sum(map(len, routed)))
        return results

    def to_config(self):
        return {
            "outputs": [o.to_config() for o in self.outputs],
            "stage_variables": [
                [n, e.to_sql()] for n, e in self.stage_variables
            ],
        }

    @classmethod
    def from_config(cls, name, config, annotations=None):
        return cls(
            [OutputLink.from_config(o) for o in config["outputs"]],
            [(n, e) for n, e in config.get("stage_variables", [])],
            name=name,
            annotations=annotations,
        )


class Modify(Stage):
    """Column surgery: keep/drop/rename/convert (DataStage Modify stage).

    Operations apply in this order: ``keep`` (when given), then ``drop``,
    then ``rename`` (new ← old), then ``convert`` (column → type name).
    """

    STAGE_TYPE = "Modify"
    supports_reject_link = True

    def __init__(
        self,
        keep: Optional[Sequence[str]] = None,
        drop: Sequence[str] = (),
        rename: Optional[Dict[str, str]] = None,
        convert: Optional[Dict[str, str]] = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.keep = list(keep) if keep is not None else None
        self.drop = list(drop)
        self.rename = dict(rename or {})
        self.convert = dict(convert or {})

    def _result_attributes(self, incoming: Relation) -> List[Attribute]:
        names = list(self.keep) if self.keep is not None else list(
            incoming.attribute_names
        )
        for name in self.drop:
            if name in names:
                names.remove(name)
        old_to_new = {old: new for new, old in self.rename.items()}
        attrs = []
        for name in names:
            attr = incoming.attribute(name)
            if name in old_to_new:
                attr = attr.renamed(old_to_new[name])
            if attr.name in self.convert:
                attr = attr.with_type(atomic(self.convert[attr.name]))
            attrs.append(attr)
        return attrs

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        for name in (self.keep or []) + list(self.drop):
            incoming.attribute(name)
        for _new, old in self.rename.items():
            incoming.attribute(old)
        self._result_attributes(incoming)

    def reads(self, out_required, inputs) -> List[Live]:
        (live,) = out_required
        if live is None:
            return [None]
        return [{self.rename.get(col, col) for col in live}]

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        return [Relation(out_names[0], self._result_attributes(incoming))]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs
        out = out_relations[0]
        old_of = {}
        old_to_new = {old: new for new, old in self.rename.items()}
        for attr in data.relation:
            new_name = old_to_new.get(attr.name, attr.name)
            old_of[new_name] = attr.name

        def columnar():
            if not planner.compiled:
                return None
            blk = data.as_block()
            columns = {}
            for attr in out:
                col = blk.columns[old_of[attr.name]]
                if attr.name in self.convert:
                    type_name = self.convert[attr.name]
                    col = [
                        None if v is None else _convert_value(v, type_name)
                        for v in col
                    ]
                columns[attr.name] = col
            return [
                planner.materialize_block(out, RowBlock(columns, blk.length))
            ]

        def rows():
            result = Dataset(out, validate=False)
            for index, row in enumerate(data):
                try:
                    new_row = {}
                    for attr in out:
                        value = row[old_of[attr.name]]
                        if attr.name in self.convert and value is not None:
                            value = _convert_value(
                                value, self.convert[attr.name]
                            )
                        new_row[attr.name] = value
                # a missing column, or a conversion int() / float() / str() refuses
                except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                    if errors is not None and errors.handling:
                        errors.record(index, dict(row), exc)
                        continue
                    raise
                result.append(new_row, validate=False)
            return [result]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {
            "keep": self.keep,
            "drop": self.drop,
            "rename": self.rename,
            "convert": self.convert,
        }


def _convert_value(value, type_name: str):
    target = atomic(type_name)
    from repro.schema.types import FLOAT, DECIMAL, INTEGER, STRING

    if target is INTEGER:
        return int(value)
    if target in (FLOAT, DECIMAL):
        return float(value)
    if target is STRING:
        return str(value)
    return value


class SurrogateKey(Stage):
    """Appends a generated monotone key column (DataStage Surrogate Key
    Generator stage)."""

    STAGE_TYPE = "SurrogateKey"

    def __init__(self, generated_column: str, start: int = 1, **kwargs):
        super().__init__(**kwargs)
        self.generated_column = generated_column
        self.start = int(start)

    def validate(self, inputs: Sequence[Relation]) -> None:
        (incoming,) = inputs
        if incoming.has_attribute(self.generated_column):
            raise ValidationError(
                f"SurrogateKey: column {self.generated_column!r} already exists"
            )

    def output_relations(self, inputs, out_names):
        (incoming,) = inputs
        attrs = list(incoming.attributes)
        attrs.append(Attribute(self.generated_column, INTEGER, nullable=False))
        return [Relation(out_names[0], attrs)]

    def reads(self, out_required, inputs) -> List[Live]:
        (live,) = out_required
        if live is None:
            return [None]
        return [live - {self.generated_column}]

    def execute(self, inputs, out_relations, planner, obs=None, errors=None):
        (data,) = inputs

        def columnar():
            chain = planner.fused_chain(data, obs)
            if chain is None:
                return None
            generated = list(range(self.start, self.start + chain.length))
            out = chain.with_handles({self.generated_column: generated})
            fuse.fused_op(chain)
            return [Dataset.adopt_fused(out_relations[0], out)]

        def rows():
            result = Dataset(out_relations[0], validate=False)
            for i, row in enumerate(data):
                new_row = dict(row)
                new_row[self.generated_column] = self.start + i
                result.append(new_row, validate=False)
            return [result]

        return ops.columnar_or_rows(columnar, rows, errors, obs)

    def to_config(self):
        return {"generated_column": self.generated_column, "start": self.start}


__all__ = ["OutputLink", "Transformer", "Modify", "SurrogateKey"]

"""The DataStage-like ETL substrate: stages, links, jobs.

The paper's ETL side is IBM WebSphere DataStage: "users construct a
directed graph of ... stages with the source schemas appearing on one
side of the graph and the target schemas appearing on the other side".
This module defines the vendor model this reproduction compiles from and
deploys to. Stage semantics follow the DataStage stages the paper names
(Transformer, Filter, Lookup, Funnel, Join, Aggregator, Copy, Switch,
SurrogateKey, ...), including the details the paper leans on — e.g. the
Filter stage's multiple output datasets and row-only-once mode
(Figure 6).

Like OHM operators, stages validate themselves against their input
schemas and compute their output schemas; unlike OHM operators they also
carry *runtime* semantics (``execute``), because this substrate doubles
as the ETL engine that runs jobs (see :mod:`repro.etl.engine`). Every
stage runs through one signature, ``execute(inputs, out_relations,
planner, obs=None, errors=None)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.data.dataset import Dataset
from repro.dataflow import DataflowGraph, Edge, Node
from repro.errors import ValidationError
from repro.expr.functions import DEFAULT_REGISTRY, FunctionRegistry
from repro.schema.model import Relation

_stage_counter = itertools.count(1)

#: Links in generated jobs are named ``DSLink<n>`` as in DataStage.
_link_counter = itertools.count(1)


def next_link_name() -> str:
    return f"DSLink{next(_link_counter)}"


class Stage(Node):
    """Base class of all ETL stages.

    A stage is a graph node under :mod:`repro.dataflow`'s node contract:
    ``validate`` / ``output_relations`` are pure in the stage's
    properties and its inputs, and a property is replaced, never mutated
    in place, so that assigning it drops the stage's propagation memo.

    :ivar name: stage name as shown on the canvas (unique per job; doubles
        as the graph uid).
    :ivar annotations: free-form metadata. FastTrack stores business-rule
        text and placeholder markers here (key ``placeholder`` marks an
        unresolved stage generated from an incomplete mapping).
    """

    STAGE_TYPE = "Abstract"
    min_inputs = 1
    max_inputs: Optional[int] = 1
    min_outputs = 1
    max_outputs: Optional[int] = 1

    #: Stages that may carry an out-of-band reject link
    #: (:meth:`Job.reject_link`). The engine routes the stage's rejected
    #: rows onto that link as a dataset of the standard reject relation.
    supports_reject_link = False

    def __init__(
        self,
        name: Optional[str] = None,
        annotations: Optional[Dict[str, str]] = None,
        on_error: Optional[str] = None,
    ):
        self.name = name or f"{self.STAGE_TYPE}_{next(_stage_counter)}"
        self.annotations: Dict[str, str] = dict(annotations or {})
        if on_error is not None:
            from repro.resilience import check_policy

            check_policy(on_error)
        #: per-stage error policy override (``fail_fast``/``skip``/
        #: ``reject``); ``None`` defers to the engine-level policy.
        self.on_error = on_error

    # graph-node interface ----------------------------------------------------

    @property
    def uid(self) -> str:
        return self.name

    @property
    def KIND(self) -> str:  # noqa: N802 - matches the node protocol
        return self.STAGE_TYPE

    @property
    def label(self) -> str:
        return self.name

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        if n_inputs < self.min_inputs or (
            self.max_inputs is not None and n_inputs > self.max_inputs
        ):
            raise ValidationError(
                f"{self.STAGE_TYPE} {self.name!r}: {n_inputs} input links out "
                f"of range [{self.min_inputs}, {self.max_inputs}]"
            )
        if n_outputs < self.min_outputs or (
            self.max_outputs is not None and n_outputs > self.max_outputs
        ):
            raise ValidationError(
                f"{self.STAGE_TYPE} {self.name!r}: {n_outputs} output links "
                f"out of range [{self.min_outputs}, {self.max_outputs}]"
            )

    # schema interface ----------------------------------------------------------

    def validate(self, inputs: Sequence[Relation]) -> None:
        """Check stage properties against input link schemas."""

    def output_relations(
        self, inputs: Sequence[Relation], out_names: Sequence[str]
    ) -> List[Relation]:
        """Schemas of each output link."""
        raise NotImplementedError

    # runtime interface ----------------------------------------------------------

    def execute(
        self,
        inputs: Sequence[Dataset],
        out_relations: Sequence[Relation],
        planner,
        obs=None,
        errors=None,
    ) -> List[Dataset]:
        """Row semantics of the stage; one dataset per output link.

        ``planner`` (an :class:`~repro.exec.ExpressionPlanner`) lowers
        the stage's expressions at the run's tier — a stage that lowers
        none ignores it, and may be handed ``None``. ``obs`` records
        kernel metrics, and ``errors`` (an :class:`~repro.resilience.
        ErrorContext`) is the row policy that takes the stage's bad
        rows; without it a row error raises."""
        raise NotImplementedError

    # serialization interface ------------------------------------------------------

    def to_config(self) -> Dict[str, object]:
        """Stage properties as a JSON-able dict (expressions rendered to
        their SQL text) — the payload of the external XML format."""
        return {}

    @classmethod
    def from_config(
        cls,
        name: str,
        config: Dict[str, object],
        annotations: Optional[Dict[str, str]] = None,
    ) -> "Stage":
        """Rebuild a stage from its external-format configuration."""
        return cls(name=name, annotations=annotations, **config)

    def __repr__(self) -> str:
        return f"{self.STAGE_TYPE}({self.name!r})"


class Job(DataflowGraph[Stage]):
    """An ETL job: a DAG of stages connected by named links.

    The job also carries a function registry so user-defined functions
    (the paper's "complex transformation functions written in a host
    language") can be scoped to a job.
    """

    node_noun = "stage"

    def __init__(self, name: str = "job", registry: Optional[FunctionRegistry] = None):
        super().__init__(name)
        self.registry = registry or DEFAULT_REGISTRY

    # stage-flavoured aliases -----------------------------------------------------

    @property
    def stages(self) -> List[Stage]:
        return self.nodes

    def stage(self, name: str) -> Stage:
        return self.node(name)

    def link(
        self,
        src,
        dst,
        name: Optional[str] = None,
        src_port: int = 0,
        dst_port: int = 0,
        kind: str = "data",
    ) -> Edge:
        """Connect two stages with a named link (``DSLink<n>`` default)."""
        return self.connect(
            src, dst, src_port=src_port, dst_port=dst_port,
            name=name or next_link_name(), kind=kind,
        )

    def reject_link(
        self,
        src,
        dst,
        name: Optional[str] = None,
        dst_port: int = 0,
    ) -> Edge:
        """Attach a reject channel from ``src`` to ``dst``.

        The link is out-of-band for ``src`` (it occupies the port after
        the stage's data outputs and does not count toward its declared
        output multiplicity); the engine routes rows rejected by ``src``
        under the ``reject`` error policy onto it as a dataset of the
        standard reject relation. ``dst`` consumes it like any other
        input link. At most one reject link per stage."""
        src_id = src if isinstance(src, str) else src.uid
        stage = self.node(src_id)
        if not getattr(stage, "supports_reject_link", False):
            raise ValidationError(
                f"{stage.STAGE_TYPE} {stage.name!r} does not support a "
                "reject link"
            )
        existing = self.out_edges(src_id)
        if any(e.is_reject for e in existing):
            raise ValidationError(
                f"stage {stage.name!r} already has a reject link"
            )
        return self.link(
            src, dst,
            name=name or next_link_name(),
            src_port=len(existing),
            dst_port=dst_port,
            kind="reject",
        )

    @property
    def links(self) -> List[Edge]:
        return self.edges

    @property
    def reject_links(self) -> List[Edge]:
        return [e for e in self.edges if e.is_reject]

    def stages_of_type(self, stage_type: str) -> List[Stage]:
        return [s for s in self.nodes if s.STAGE_TYPE == stage_type]

    def source_stages(self) -> List[Stage]:
        return [s for s in self.nodes if s.min_inputs == 0 and s.max_inputs == 0]

    def target_stages(self) -> List[Stage]:
        return [s for s in self.nodes if s.min_outputs == 0 and s.max_outputs == 0]


__all__ = ["Stage", "Job", "next_link_name"]

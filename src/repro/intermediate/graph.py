"""Intermediate-layer graph: product-specific stages wrapped in nodes."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataflow import DataflowGraph, Edge
from repro.etl.model import Job, Stage
from repro.etl.xmlio import job_from_xml


class StageNode:
    """A node wrapping one vendor-specific stage."""

    def __init__(self, stage: Stage):
        self.stage = stage

    @property
    def uid(self) -> str:
        return self.stage.uid

    @property
    def KIND(self) -> str:  # noqa: N802 - node protocol
        return self.stage.STAGE_TYPE

    @property
    def label(self) -> str:
        return self.stage.name

    def check_port_counts(self, n_inputs: int, n_outputs: int) -> None:
        self.stage.check_port_counts(n_inputs, n_outputs)

    def validate(self, inputs) -> None:
        self.stage.validate(inputs)

    def output_relations(self, inputs, out_names):
        return self.stage.output_relations(inputs, out_names)

    @property
    def supports_reject_link(self) -> bool:
        return self.stage.supports_reject_link

    def reject_relation(self, name: str):
        return self.stage.reject_relation(name)

    def reads(self, out_required, inputs):
        return self.stage.reads(out_required, inputs)

    def __repr__(self) -> str:
        return f"StageNode({self.stage!r})"


class IntermediateGraph(DataflowGraph[StageNode]):
    """The simple directed graph over wrapped stages that the stage
    compilers traverse. Structurally isomorphic to the ETL job graph
    (as the paper notes for the Figure 3 example)."""

    node_noun = "stage node"

    def __init__(self, name: str, job: Optional[Job] = None):
        super().__init__(name)
        self.job = job

    def wrapped_stages(self) -> List[Stage]:
        return [node.stage for node in self.nodes]


def from_job(job: Job) -> IntermediateGraph:
    """Wrap an in-memory job (the object-model import path)."""
    graph = IntermediateGraph(job.name, job)
    for stage in job.stages:
        graph.add(StageNode(stage))
    for link in job.links:
        graph.connect(
            link.src, link.dst,
            src_port=link.src_port, dst_port=link.dst_port, name=link.name,
        )
    return graph


def from_xml(text: str) -> IntermediateGraph:
    """Parse the external XML exchange format and wrap the result (the
    serialized-exchange import path of older DataStage versions)."""
    return from_job(job_from_xml(text))


__all__ = ["StageNode", "IntermediateGraph", "from_job", "from_xml"]

"""The ETL→OHM compilation driver (paper section V-A, step 2).

"Orchid traverses the Intermediate layer graph and, for each node,
invokes a specific compiler for the stage wrapped by the node. ...
Compilation proceeds by connecting together the OHM subgraphs created by
compiling each stage visited during the traversal."

Boundary edges between stage subgraphs inherit the ETL link names
(``DSLink10`` in the job stays ``DSLink10`` in the OHM instance — that is
how the paper's materialization point gets its name); edges internal to a
stage's subgraph carry stage-derived names.

Passing an :class:`~repro.obs.Observability` profiles compilation per
phase — wrap, propagate, stage compilation, output propagation, cleanup —
as both ``compile.phase.<phase>.seconds`` timers and a nested span tree
under ``compile.job``, with one ``compile.stage.<STAGE_TYPE>`` span (and
``compile.stage.<name>.seconds`` timer) per compiled stage.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.compile.registry import (
    CompiledStage,
    CompilerRegistry,
    DEFAULT_COMPILERS,
    Port,
)
import repro.compile.stages  # noqa: F401 — registers the built-in compilers
from repro.errors import CompilationError
from repro.etl.model import Job
from repro.exec.parallel import graph_waves, max_wavefront
from repro.intermediate import IntermediateGraph, from_job
from repro.obs import NULL_OBS, Observability
from repro.ohm.graph import OhmGraph
from repro.rewrite.optimizer import cleanup as cleanup_pass


def compile_intermediate(
    graph: IntermediateGraph,
    cleanup: bool = True,
    registry: Optional[CompilerRegistry] = None,
    obs: Optional[Observability] = None,
) -> OhmGraph:
    """Compile an intermediate-layer graph into an OHM instance."""
    obs = obs or NULL_OBS
    tracer = obs.tracer
    metrics = obs.metrics
    registry = registry or DEFAULT_COMPILERS
    with tracer.span("compile.job", job=graph.name) as job_span:
        with tracer.span("compile.phase.propagate"), metrics.timer(
            "compile.phase.propagate.seconds"
        ):
            graph.propagate_schemas()
        ohm = OhmGraph(graph.name)
        # producing OHM port for each ETL link, filled as stages are compiled
        producers: Dict[str, Port] = {}
        with tracer.span("compile.phase.stages"), metrics.timer(
            "compile.phase.stages.seconds"
        ):
            for node in graph.topological_order():
                stage = node.stage
                in_edges = graph.in_edges(node.uid)
                out_edges = graph.out_edges(node.uid)
                metrics.count("compile.stages")
                with tracer.span(
                    f"compile.stage.{stage.STAGE_TYPE}", stage=stage.name
                ), metrics.timer(f"compile.stage.{stage.name}.seconds"):
                    compiled = registry.lookup(stage).compile(
                        stage,
                        [e.schema for e in in_edges],
                        [e.name for e in in_edges],
                        [e.name for e in out_edges],
                        ohm,
                    )
                if compiled.is_passthrough:
                    if len(in_edges) != 1 or len(out_edges) != 1:
                        raise CompilationError(
                            f"stage {stage.name!r} compiled to a pass-through "
                            f"but has {len(in_edges)} inputs / "
                            f"{len(out_edges)} outputs"
                        )
                    producers[out_edges[0].name] = producers[in_edges[0].name]
                    continue
                if len(compiled.inputs) != len(in_edges):
                    raise CompilationError(
                        f"stage {stage.name!r}: compiler wired "
                        f"{len(compiled.inputs)} inputs for "
                        f"{len(in_edges)} links"
                    )
                if len(compiled.outputs) != len(out_edges):
                    raise CompilationError(
                        f"stage {stage.name!r}: compiler produced "
                        f"{len(compiled.outputs)} outputs for "
                        f"{len(out_edges)} links"
                    )
                for edge, (operator, port) in zip(in_edges, compiled.inputs):
                    src_operator, src_port = producers[edge.name]
                    ohm.connect(
                        src_operator,
                        operator,
                        src_port=src_port,
                        dst_port=port,
                        name=edge.name,
                    )
                for edge, producer in zip(out_edges, compiled.outputs):
                    producers[edge.name] = producer
        with tracer.span("compile.phase.output-propagate"), metrics.timer(
            "compile.phase.output-propagate.seconds"
        ):
            ohm.propagate_schemas()
        if cleanup:
            with tracer.span("compile.phase.cleanup"), metrics.timer(
                "compile.phase.cleanup.seconds"
            ):
                cleanup_pass(ohm, obs=obs)
        # the widest topological wave bounds the stage-level speedup the
        # parallel tier can extract from this graph (docs/execution-model.md)
        width = max_wavefront(graph_waves(ohm))
        metrics.gauge("compile.graph.max_wavefront", width)
        job_span.set(operators=len(ohm.operators), max_wavefront=width)
    return ohm


def compile_job(
    job: Job,
    cleanup: bool = True,
    registry: Optional[CompilerRegistry] = None,
    obs: Optional[Observability] = None,
) -> OhmGraph:
    """Compile an ETL job into an OHM instance (both import steps:
    wrap into the intermediate layer, then compile each stage).

    Reject links are a *runtime* error channel, not transformation
    semantics: a job carrying one is compiled as if the reject channel
    (and anything downstream reachable only through it) were absent."""
    obs = obs or NULL_OBS
    if job.reject_links:
        job = job.without_reject_channel()
    with obs.tracer.span("compile.phase.wrap"), obs.metrics.timer(
        "compile.phase.wrap.seconds"
    ):
        intermediate = from_job(job)
    return compile_intermediate(
        intermediate, cleanup=cleanup, registry=registry, obs=obs
    )


__all__ = ["compile_job", "compile_intermediate"]

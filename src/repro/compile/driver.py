"""The ETL→OHM compilation driver (paper section V-A, step 2).

"Orchid traverses the Intermediate layer graph and, for each node,
invokes a specific compiler for the stage wrapped by the node. ...
Compilation proceeds by connecting together the OHM subgraphs created by
compiling each stage visited during the traversal."

The paper's Intermediate layer is a stand-in object model for ETL tools
that have none; where the tool provides one, Orchid wraps each stage in
a node. Our :class:`~repro.etl.Job` is such an object model, and a graph
of stages already, so it is the graph the driver traverses: no wrapper
graph is built, and the job's own schema propagation (a memo hit when
:func:`repro.analysis.check_plan` ran first) annotates its links.

Boundary edges between stage subgraphs inherit the ETL link names
(``DSLink10`` in the job stays ``DSLink10`` in the OHM instance — that is
how the paper's materialization point gets its name); edges internal to a
stage's subgraph carry stage-derived names.

Passing an :class:`~repro.obs.Observability` profiles compilation per
phase — propagate, stage compilation, output propagation, cleanup — as
both ``compile.phase.<phase>.seconds`` timers and a nested span tree
under ``compile.job``, with one ``compile.stage.<STAGE_TYPE>`` span (and
``compile.stage.<name>.seconds`` timer) per compiled stage.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.compile.registry import CompilerRegistry, DEFAULT_COMPILERS, Port
import repro.compile.stages  # noqa: F401 — registers the built-in compilers
from repro.errors import CompilationError, ValidationError
from repro.etl.model import Job
from repro.obs import NULL_OBS, Observability
from repro.ohm.graph import OhmGraph
from repro.rewrite.optimizer import cleanup as cleanup_pass


def _reject_cone(job: Job) -> Set[str]:
    """The stages every path into which runs through a reject link.

    Reject links are a *runtime* error channel, not transformation
    semantics, so neither they nor this cone are compiled. A stage fed
    both by the reject channel and by live data cannot be compiled
    without it and is refused."""
    cone: Set[str] = set()
    for stage in job.topological_order():
        in_edges = job.in_edges(stage.uid)
        dead = [e for e in in_edges if e.is_reject or e.src in cone]
        if not dead:
            continue
        if len(dead) < len(in_edges):
            raise ValidationError(
                f"stage {stage.uid!r} mixes reject and data inputs; cannot "
                "strip the reject channel cleanly"
            )
        cone.add(stage.uid)
    return cone


def compile_job(
    job: Job,
    cleanup: bool = True,
    registry: Optional[CompilerRegistry] = None,
    obs: Optional[Observability] = None,
) -> OhmGraph:
    """Compile an ETL job into an OHM instance.

    The job's link schemas are (re)derived and written, as before every
    run; its stages, links and names are not changed. Reject links, and
    the stages reachable only through them, are left out."""
    obs = obs or NULL_OBS
    tracer = obs.tracer
    metrics = obs.metrics
    registry = registry or DEFAULT_COMPILERS
    cone = _reject_cone(job)
    with tracer.span("compile.job", job=job.name) as job_span:
        with tracer.span("compile.phase.propagate"), metrics.timer(
            "compile.phase.propagate.seconds"
        ):
            schemas = job.propagate_schemas()
        ohm = OhmGraph(job.name)
        # producing OHM port for each ETL link, filled as stages are compiled
        producers: Dict[str, Port] = {}
        with tracer.span("compile.phase.stages"), metrics.timer(
            "compile.phase.stages.seconds"
        ):
            for stage in job.topological_order():
                if stage.uid in cone:
                    continue
                in_edges = job.in_edges(stage.uid)
                out_edges = [
                    e for e in job.out_edges(stage.uid) if not e.is_reject
                ]
                metrics.count("compile.stages")
                with tracer.span(
                    f"compile.stage.{stage.STAGE_TYPE}", stage=stage.name
                ), metrics.timer(f"compile.stage.{stage.name}.seconds"):
                    compiled = registry.lookup(stage).compile(
                        stage,
                        [schemas[e] for e in in_edges],
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
        job_span.set(operators=len(ohm.operators))
    return ohm


__all__ = ["compile_job"]

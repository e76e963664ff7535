"""The ETL runtime engine: executes a :class:`~repro.etl.model.Job`.

This plays the role of the DataStage runtime: stages run in dataflow
order, each consuming the datasets on its input links and producing one
dataset per output link. Source stages pull from the supplied
:class:`~repro.data.dataset.Instance`; target stages validate and collect
their deliveries.

Runtime statistics (the numbers an ETL monitor would show — paper
section VI) are collected per run into an :class:`EtlRunStats`: rows per
link, seconds per stage. Passing an :class:`~repro.obs.Observability`
additionally records them into the shared metrics registry
(``etl.link.<name>.rows``, ``etl.stage.<name>.seconds``) and emits one
``etl.stage.<type>`` span per executed stage under an ``etl.run`` root.

The engine is an adapter over the shared run harness
(:mod:`repro.exec.run`: option resolution, the pre-run check,
supervised topological loop — ``docs/execution-model.md``). Every stage
runs through one call, ``stage.execute(inputs, out_relations, planner,
obs, errors)``. What is the ETL runtime's own lives here
(``docs/robustness.md``):

* source/target endpoints, retried under a
  :class:`~repro.resilience.RetryPolicy` *inside* a
  :class:`~repro.supervision.CircuitBreaker`;
* a :class:`~repro.resilience.CheckpointStore` snapshot per completed
  stage, so an interrupted run resumes from the last good frontier;
* the reject channel: rows rejected under a stage's row policy flow onto
  its dedicated reject link when one is declared
  (:meth:`Job.reject_link`), otherwise into :attr:`EtlRunStats.rejected`.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

from repro.data.dataset import Dataset, Instance
from repro.errors import ExecutionError
from repro.etl.model import Job
from repro.etl.stages.access import TableSource, TableTarget
from repro.exec.run import Runtime, run_nodes, start_run
from repro.obs import Observability
from repro.resilience import ErrorContext, RejectedRow, rejects_dataset


class EtlRunStats:
    """Statistics for one completed :meth:`EtlEngine.run`.

    :ivar link_counts: link name → rows that flowed over the link.
    :ivar stage_seconds: stage name → wall-clock execution seconds.
    :ivar reject_counts: stage name → rows rejected under ``reject``.
    :ivar skip_counts: stage name → rows dropped under ``skip``.
    :ivar rejected: :class:`~repro.resilience.RejectedRow` records that
        were *not* routed onto an in-job reject link.
    :ivar restored_stages: stage names restored from a checkpoint
        instead of executed.
    """

    __slots__ = (
        "link_counts",
        "stage_seconds",
        "reject_counts",
        "skip_counts",
        "rejected",
        "restored_stages",
    )

    def __init__(self):
        self.link_counts: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {}
        self.reject_counts: Dict[str, int] = {}
        self.skip_counts: Dict[str, int] = {}
        self.rejected: List[RejectedRow] = []
        self.restored_stages: List[str] = []

    @property
    def total_rows(self) -> int:
        """Rows moved across all links (the monitor's headline number)."""
        return sum(self.link_counts.values())

    @property
    def total_rejected(self) -> int:
        """Rows rejected anywhere in the run (on reject links or not)."""
        return sum(self.reject_counts.values())

    def __repr__(self) -> str:
        return (
            f"EtlRunStats({len(self.link_counts)} links, "
            f"{self.total_rows} rows)"
        )


class EtlEngine(Runtime):
    """Executes jobs; collects per-link row counts and per-stage timings
    as runtime statistics.

    Statistics are built per run and published atomically on
    :attr:`last_run` only once the run completes, so an engine shared by
    two callers (or a re-entrant run) never observes a half-filled
    snapshot — each run's numbers replace the previous run's wholesale.

    Keywords are those of :class:`~repro.exec.run.RunOptions` (``None``
    means the process default: ``REPRO_ON_ERROR``, ``REPRO_MAX_RETRIES``,
    ``REPRO_CHECKPOINT_DIR``, …), each readable back as an attribute.
    """

    def __init__(self, obs: Optional[Observability] = None, **options):
        super().__init__(True, obs=obs, **options)
        #: statistics of the most recently *completed* run.
        self.last_run: EtlRunStats = EtlRunStats()

    @property
    def link_counts(self) -> Dict[str, int]:
        """Deprecated: per-link row counts of the most recent run.

        Use :attr:`last_run` (an :class:`EtlRunStats`) or the metrics
        registry (``etl.link.<name>.rows``) instead; this shim returns a
        copy, so mutating it no longer corrupts engine state."""
        warnings.warn(
            "EtlEngine.link_counts is deprecated; read "
            "EtlEngine.last_run.link_counts or the 'etl.link.<name>.rows' "
            "metrics instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return dict(self.last_run.link_counts)

    def _endpoint(self, fn, name: str):
        """Run a source extract / target load: retry absorbs transients
        *inside* the breaker, so only an exhausted retry budget counts
        as one breaker failure — and an open breaker fails fast without
        touching the endpoint (or burning the backoff schedule)."""
        retry, breaker = self.retry, self.breaker
        if retry is not None:
            call = lambda: retry.call(fn, name=name, obs=self._obs)  # noqa: E731
        else:
            call = fn
        if breaker is not None:
            return breaker.call(name, call, obs=self._obs)
        return call()

    def run(
        self, job: Job, instance: Optional[Instance] = None
    ) -> Tuple[Instance, Dict[str, Dataset]]:
        """Run ``job`` against ``instance``.

        Returns ``(targets, link_data)``: datasets delivered to each
        target stage (keyed by target relation name) and the dataset that
        flowed over every link (keyed by link name)."""
        instance = instance or Instance()
        planner = start_run(self.options, job, job.registry)
        job.propagate_schemas()
        run = _JobRun(self, job, instance, planner)
        with self._obs.tracer.span("etl.run", job=job.name):
            run_nodes(job.topological_order(), run, self.options)
        if self.checkpoint is not None:
            self.checkpoint.clear(job)
        if self.catalog is not None:
            # close the feedback loop: the next estimate_graph over the
            # same link names re-plans from these actuals
            self.catalog.observe_instance(instance)
            self.catalog.observe_link_counts(run.stats.link_counts)
        self.last_run = run.stats
        return run.targets, run.link_data

    def execute(self, job: Job, instance: Optional[Instance] = None) -> Instance:
        """Run and return only the target datasets."""
        targets, _links = self.run(job, instance)
        return targets


class _StageState:
    """One stage's wiring for one run, gathered once its inputs exist."""

    __slots__ = ("inputs", "out_edges", "data_edges", "reject_edge",
                 "restored", "ctx")

    def __init__(self, inputs, out_edges, restored, ctx):
        self.inputs = inputs
        self.out_edges = out_edges
        # a reject edge is out-of-band for the producer: data edges
        # carry stage outputs, the (always last) reject edge carries
        # this stage's rejected-row dataset
        self.data_edges = [e for e in out_edges if not e.is_reject]
        self.reject_edge = next((e for e in out_edges if e.is_reject), None)
        #: the checkpointed ``(outputs, delivered)`` to wire in place of
        #: executing the stage (then there is no context), or None
        self.restored = restored
        self.ctx = ctx


class _JobRun:
    """One run of one job: its stages as the loop's nodes
    (:class:`repro.exec.run.Nodes`), plus the run-scoped state their
    bookkeeping fills — never the engine's."""

    def __init__(self, engine: EtlEngine, job: Job, instance: Instance, planner):
        self.engine = engine
        self.job = job
        self.instance = instance
        self.planner = planner
        self.obs = engine.options.obs
        self.stats = EtlRunStats()
        self.targets = Instance()
        self.by_port: Dict[Tuple[str, int], Dataset] = {}
        self.link_data: Dict[str, Dataset] = {}
        checkpoint = engine.checkpoint
        self.frontier = checkpoint.load_frontier(job) if checkpoint else {}

    def name(self, stage) -> str:
        return stage.name

    def prepare(self, stage):
        inputs = [
            self.by_port[(e.src, e.src_port)]
            for e in self.job.in_edges(stage.uid)
        ]
        out_edges = self.job.out_edges(stage.uid)
        restored = self.frontier.get(stage.uid)
        if restored is not None and all(
            e.name in restored[0] for e in out_edges
        ):
            ctx = None
        else:
            restored = None
            ctx = ErrorContext(
                stage.name, stage.on_error or self.engine.on_error
            )
        return ctx, _StageState(inputs, out_edges, restored, ctx)

    def compute(self, stage, state):
        """One stage's pure compute (endpoint retry included): returns
        ``(outputs, delivered)``."""
        engine, ctx = self.engine, state.ctx
        if isinstance(stage, TableTarget):
            delivered = engine._endpoint(
                lambda: stage.load(
                    state.inputs[0],
                    trusted=engine.compiled,
                    errors=ctx if ctx.handling else None,
                ),
                stage.name,
            )
            return [], delivered
        if isinstance(stage, TableSource):
            outputs = engine._endpoint(
                lambda: [
                    stage.extract(self.instance).renamed(e.name)
                    for e in state.data_edges
                ],
                stage.name,
            )
            return outputs, None
        outputs = stage.execute(
            state.inputs,
            [e.schema for e in state.data_edges],
            self.planner,
            self.obs,
            state.ctx,
        )
        if len(outputs) != len(state.data_edges):
            raise ExecutionError(
                f"{stage.STAGE_TYPE} {stage.name!r} produced "
                f"{len(outputs)} outputs for {len(state.data_edges)} links",
                stage=stage.name,
            )
        return outputs, None

    def book(self, stage, state, result) -> None:
        if result is None:
            outputs, delivered = self._restore(stage, state)
        else:
            with self.obs.tracer.span(
                f"etl.stage.{stage.STAGE_TYPE}", stage=stage.name
            ) as span:
                (outputs, delivered), seconds = result()
                outputs = self._finish(
                    stage, state, outputs, delivered, seconds, span
                )
            self._checkpoint(stage, state, outputs, delivered)
        metrics = self.obs.metrics
        for edge, dataset in zip(state.out_edges, outputs):
            self.by_port[(edge.src, edge.src_port)] = dataset
            self.link_data[edge.name] = dataset
            self.stats.link_counts[edge.name] = len(dataset)
            if result is not None:
                metrics.count(f"etl.link.{edge.name}.rows", len(dataset))

    def _restore(self, stage, state):
        """A checkpoint-restored stage's saved outputs, in place of
        executing it."""
        saved_outputs, delivered = state.restored
        if delivered is not None:
            self.targets.put(delivered)
        self.stats.restored_stages.append(stage.name)
        self.obs.metrics.count("exec.checkpoint.restored")
        return [saved_outputs[e.name] for e in state.out_edges], delivered

    def _finish(self, stage, state, outputs, delivered, seconds, span):
        """An executed stage's statistics; returns its outputs with the
        reject-link dataset appended when the stage declares one."""
        metrics, stats, ctx = self.obs.metrics, self.stats, state.ctx
        if isinstance(stage, TableTarget):
            self.targets.put(delivered)
        if state.reject_edge is not None:
            outputs = list(outputs) + [
                rejects_dataset(ctx.rejected, state.reject_edge.name)
            ]
        elif ctx.rejected:
            stats.rejected.extend(ctx.rejected)
        if ctx.rejected:
            stats.reject_counts[stage.name] = len(ctx.rejected)
        if ctx.skipped:
            stats.skip_counts[stage.name] = ctx.skipped
        ctx.publish(metrics, span)
        if self.obs.enabled:
            stats.stage_seconds[stage.name] = seconds
            metrics.observe(f"etl.stage.{stage.name}.seconds", seconds)
            span.set(
                rows_in=sum(len(d) for d in state.inputs),
                rows_out=sum(len(d) for d in outputs),
            )
        return outputs

    def _checkpoint(self, stage, state, outputs, delivered) -> None:
        checkpoint = self.engine.checkpoint
        if checkpoint is not None:
            checkpoint.save_stage(
                self.job,
                stage.uid,
                [(e.name, d) for e, d in zip(state.out_edges, outputs)],
                delivered=delivered,
            )
            self.obs.metrics.count("exec.checkpoint.saved")


def run_job(
    job: Job,
    instance: Optional[Instance] = None,
    obs: Optional[Observability] = None,
    **options,
) -> Instance:
    """Convenience: run ``job`` and return the target datasets
    (``options`` are :class:`EtlEngine`'s keywords)."""
    return EtlEngine(obs, **options).execute(job, instance)


def run_job_with_links(
    job: Job,
    instance: Optional[Instance] = None,
    obs: Optional[Observability] = None,
    **options,
) -> Tuple[Instance, Dict[str, Dataset]]:
    """Run ``job`` returning targets plus every link's dataset."""
    return EtlEngine(obs, **options).run(job, instance)


__all__ = ["EtlEngine", "EtlRunStats", "run_job", "run_job_with_links"]

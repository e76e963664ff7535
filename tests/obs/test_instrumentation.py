"""Integration tests: the observability hooks across the real pipeline.

These run the paper's quickstart scenario (Figure 3 job) with an enabled
:class:`~repro.obs.Observability` and assert that the span tree and the
metrics registry show what actually happened — stage-by-stage
compilation, per-operator row flow, per-link monitor counts, rewrite
activity, deployment placement.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import Orchid
from repro.etl import EtlEngine
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import build_example_job, generate_instance


@pytest.fixture
def obs():
    return Observability(trace=True, stats=True)


class TestCompileTrace:
    def test_span_tree_mirrors_compilation(self, obs):
        job = build_example_job()
        Orchid(obs=obs).import_etl(job)
        compile_span = obs.tracer.find("compile.job")
        assert compile_span is not None
        phases = [c.name for c in compile_span.children]
        assert phases == [
            "compile.phase.propagate",
            "compile.phase.stages",
            "compile.phase.output-propagate",
            "compile.phase.cleanup",
        ]
        stage_spans = [
            s for s in obs.tracer.walk() if s.name.startswith("compile.stage.")
        ]
        assert len(stage_spans) == len(job.stages)
        compiled_names = {s.attrs["stage"] for s in stage_spans}
        assert compiled_names == {stage.name for stage in job.stages}

    def test_compile_phase_timers_recorded(self, obs):
        Orchid(obs=obs).import_etl(build_example_job())
        for phase in ("propagate", "stages", "output-propagate", "cleanup"):
            count, total = obs.metrics.timer_stats(
                f"compile.phase.{phase}.seconds"
            )
            assert count == 1
            assert total >= 0.0
        # the driver walks the job itself: there is no wrap step to time
        assert "compile.phase.wrap.seconds" not in obs.metrics.timers
        assert obs.metrics.counter("compile.stages") == len(
            build_example_job().stages
        )

    def test_rewrite_counters_from_cleanup_pass(self, obs):
        Orchid(obs=obs).import_etl(build_example_job())
        attempted = [
            name
            for name in obs.metrics.counters
            if name.startswith("rewrite.rule.") and name.endswith(".attempted")
        ]
        assert attempted, "cleanup pass should attempt its rules"
        assert obs.metrics.counter("rewrite.passes") >= 1
        span = obs.tracer.find("rewrite.optimize")
        assert span.attrs["operators_before"] >= span.attrs["operators_after"]


class TestOhmExecutionMetrics:
    def test_per_operator_rows_match_dataset_sizes(self, obs):
        orchid = Orchid(obs=obs)
        graph = orchid.import_etl(build_example_job())
        instance = generate_instance(n_customers=60)
        OhmExecutor(obs=obs).execute(graph, instance)
        for source in graph.sources():
            rows_out = obs.metrics.counter(
                f"ohm.operator.{source.uid}.rows_out"
            )
            assert rows_out == len(instance.dataset(source.relation.name))
            _count, seconds = obs.metrics.timer_stats(
                f"ohm.operator.{source.uid}.seconds"
            )
            assert seconds >= 0.0
        run_span = obs.tracer.find("ohm.run")
        op_spans = [
            c for c in run_span.children if c.name.startswith("ohm.op.")
        ]
        assert len(op_spans) == len(graph.operators)
        for span in op_spans:
            assert span.attrs["rows_in"] >= 0
            assert span.attrs["rows_out"] >= 0

    def test_filter_never_grows_its_input(self, obs):
        graph = Orchid(obs=obs).import_etl(build_example_job())
        OhmExecutor(obs=obs).execute(graph, generate_instance(n_customers=40))
        for span in obs.tracer.walk():
            if span.name == "ohm.op.FILTER":
                assert span.attrs["rows_out"] <= span.attrs["rows_in"]


class TestEtlEngineStats:
    def test_per_link_counts_in_metrics_and_stats(self, obs):
        job = build_example_job()
        instance = generate_instance(n_customers=30)
        engine = EtlEngine(obs=obs)
        links = engine.run(job, instance, keep=[e.name for e in job.edges]).edges
        for name, dataset in links.items():
            assert engine.last_run.link_counts[name] == len(dataset)
            assert obs.metrics.counter(f"etl.link.{name}.rows") == len(dataset)
        assert set(engine.last_run.stage_seconds) == {
            stage.name for stage in job.stages
        }

    def test_stats_are_per_run_not_interleaved(self):
        """The bugfix: a second run replaces the snapshot wholesale
        instead of mutating it in place under the first caller."""
        job = build_example_job()
        engine = EtlEngine()
        engine.run(job, generate_instance(n_customers=30))
        first = engine.last_run
        first_counts = dict(first.link_counts)
        engine.run(job, generate_instance(n_customers=80))
        assert engine.last_run is not first
        assert first.link_counts == first_counts  # untouched by run #2
        assert engine.last_run.link_counts["DSLink1"] == 80


class TestDeploymentMetrics:
    def test_placement_counters(self, obs):
        orchid = Orchid(obs=obs)
        graph = orchid.import_etl(build_example_job())
        job, plan = orchid.to_etl(graph)
        assert obs.metrics.counter("deploy.DataStage.boxes") == len(plan.boxes)
        assert obs.metrics.counter("deploy.DataStage.stages") == len(job.stages)
        placed = sum(len(box.uids) for box in plan.boxes)
        assert (
            obs.metrics.counter("deploy.DataStage.operators_placed") == placed
        )

    def test_pushdown_decisions(self, obs):
        orchid = Orchid(obs=obs)
        graph = orchid.import_etl(build_example_job())
        hybrid = orchid.to_hybrid(graph)
        assert obs.metrics.counter("deploy.pushdown.pushed_operators") == len(
            hybrid.pushed_operator_uids
        )
        assert obs.metrics.counter("deploy.pushdown.frontier_edges") == len(
            hybrid.statements
        )
        span = obs.tracer.find("deploy.pushdown")
        assert span.attrs["pushed_operators"] == len(
            hybrid.pushed_operator_uids
        )


class TestDisabledDefault:
    def test_pipeline_records_nothing_by_default(self):
        obs = Observability()  # both disabled
        orchid = Orchid(obs=obs)
        graph = orchid.import_etl(build_example_job())
        OhmExecutor(obs=obs).execute(graph, generate_instance(n_customers=10))
        assert obs.tracer.spans == []
        assert obs.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }


class TestQuickstartStatsJson:
    def test_quickstart_emits_parseable_metrics_document(self):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [
                sys.executable,
                os.path.join(repo, "examples", "quickstart.py"),
                "--stats",
                "json",
            ],
            capture_output=True,
            text=True, encoding="utf-8",
            env=env,
            check=True,
        )
        document = json.loads(result.stdout)
        counters = document["counters"]
        timers = document["timers"]
        assert any(
            k.startswith("ohm.operator.") and k.endswith(".rows_out")
            for k in counters
        )
        assert any(
            k.startswith("ohm.operator.") and k.endswith(".seconds")
            for k in timers
        )
        assert any(k.startswith("etl.link.") for k in counters)
        assert any(k.startswith("rewrite.rule.") for k in counters)
        assert any(k.startswith("compile.phase.") for k in timers)
        # the narrative went to stderr, stdout is pure JSON
        assert "Semantic checks" in result.stderr

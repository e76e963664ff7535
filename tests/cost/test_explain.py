"""The --explain rendering: one aligned row per operator, totals."""

from repro.compile import compile_job
from repro.cost import (
    CardinalityEstimator,
    actuals_from_metrics,
    catalog_for,
    explain_graph,
)
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import build_example_job, generate_instance


class TestExplainGraph:
    def test_renders_every_operator(self):
        graph = compile_job(build_example_job())
        text = explain_graph(graph)
        assert text.startswith("cost plan for 'CustomerBalanceSplit'")
        header = text.splitlines()[1]
        for column in ("operator", "kind", "est in", "est out",
                       "actual", "cost", "source"):
            assert column in header
        assert text.rstrip().splitlines()[-1].lstrip().startswith(
            "total estimated cost:"
        )
        assert text.count("\n") >= len(graph.operators)

    def test_without_actuals_shows_dashes(self):
        graph = compile_job(build_example_job())
        lines = explain_graph(graph).splitlines()[2:-1]
        assert all("  -  " in line or " - " in line for line in lines)

    def test_with_actuals_shows_observed_rows(self):
        instance = generate_instance(50)
        graph = compile_job(build_example_job())
        catalog = catalog_for(instance)
        obs = Observability(stats=True)
        rows = OhmExecutor(obs=obs).run(graph, instance).rows
        actuals = actuals_from_metrics(obs.metrics)
        actuals.update(rows)
        text = explain_graph(
            graph,
            estimator=CardinalityEstimator(catalog),
            actuals=actuals,
        )
        customers = next(
            line for line in text.splitlines() if "Customers " in line
        )
        assert " 50 " in customers  # the actual column, not a dash


class TestActualExtraction:
    def test_actuals_from_metrics_filters_operator_counters(self):
        actuals = actuals_from_metrics({
            "ohm.operator.op3.rows_out": 17,
            "ohm.operator.op4.rows_out": 0,
            "etl.stage.x.rows": 5,
        })
        assert actuals == {"op3": 17.0, "op4": 0.0}

    def test_run_rows_count_every_edge(self):
        instance = generate_instance(30)
        graph = compile_job(build_example_job())
        rows = OhmExecutor().run(graph, instance).rows
        assert set(rows) == {e.name for e in graph.edges}
        assert rows["DSLink10"] >= 0

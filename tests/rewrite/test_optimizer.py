"""Optimizer driver tests: fixpoint behaviour and semantic preservation
on whole compiled jobs."""

import pytest

from repro.compile import compile_job
from repro.ohm import OhmExecutor
from repro.rewrite import CLEANUP_RULES, Optimizer, cleanup, optimize
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)
from repro.etl import EtlEngine


class TestDriver:
    def test_reaches_fixpoint_and_reports(self):
        graph = compile_job(build_example_job(), cleanup=False)
        report = optimize(graph)
        assert report.total >= 0
        # a second run has nothing left to do
        assert optimize(graph).total == 0

    def test_report_counts(self):
        graph = compile_job(build_chain_job(12), cleanup=False)
        report = optimize(graph)
        assert report.count("merge-adjacent-filters") == report.firings.count(
            "merge-adjacent-filters"
        )

    def test_cleanup_uses_only_cleanup_rules(self):
        graph = compile_job(build_chain_job(8), cleanup=False)
        report = cleanup(graph)
        allowed = {rule.name for rule in CLEANUP_RULES}
        assert set(report.firings) <= allowed

    def test_custom_rule_list(self):
        graph = compile_job(build_example_job(), cleanup=False)
        report = Optimizer(rules=[]).optimize(graph)
        assert report.total == 0


class TestSemanticPreservation:
    @pytest.mark.parametrize("n_stages", [4, 12, 24])
    def test_chain_jobs(self, n_stages):
        job = build_chain_job(n_stages)
        instance = generate_chain_instance(120)
        baseline = EtlEngine().execute(job, instance)
        graph = compile_job(job, cleanup=False)
        optimize(graph)
        assert OhmExecutor().execute(graph, instance).same_bags(baseline)

    def test_example_job(self):
        job = build_example_job()
        instance = generate_instance(50)
        baseline = EtlEngine().execute(job, instance)
        graph = compile_job(job)
        optimize(graph)
        assert OhmExecutor().execute(graph, instance).same_bags(baseline)

    def test_star_join(self):
        job = build_star_join_job(3)
        instance = generate_star_instance(3, 150)
        baseline = EtlEngine().execute(job, instance)
        graph = compile_job(job)
        optimize(graph)
        assert OhmExecutor().execute(graph, instance).same_bags(baseline)


class TestOptimizationEffect:
    def test_chain_shrinks(self):
        graph = compile_job(build_chain_job(24), cleanup=False)
        before = len(graph)
        optimize(graph)
        assert len(graph) < before

    def test_filters_merge_along_chain(self):
        # chain jobs alternate filter/transform/modify/sort; after
        # optimization consecutive filters are merged and sorts are gone
        graph = compile_job(build_chain_job(16), cleanup=False)
        optimize(graph)
        kinds = graph.kinds_in_order()
        for a, b in zip(kinds, kinds[1:]):
            assert not (a == "FILTER" and b == "FILTER")

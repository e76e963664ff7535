"""Property-based end-to-end checks: for randomly parameterized jobs and
data, all execution paths agree —

    ETL engine ≡ compiled OHM graph ≡ extracted mappings
              ≡ mappings→OHM round trip ≡ redeployed ETL job
              ≡ hybrid SQL+ETL deployment.

This is the reproduction's strongest evidence that every translation
"captures the same transformation semantics" (paper abstract).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile import compile_job
from repro.deploy import deploy_to_job, plan_pushdown
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.mapping.to_ohm import mappings_to_ohm
from repro.ohm import OhmExecutor
from repro.rewrite import optimize
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)


def all_paths_agree(job, instance):
    baseline = EtlEngine().execute(job, instance)
    graph = compile_job(job)
    assert OhmExecutor().execute(graph, instance).same_bags(
        baseline
    ), "OHM engine diverged"
    mappings = ohm_to_mappings(graph)
    assert MappingExecutor().execute(mappings, instance).same_bags(
        baseline
    ), "mapping executor diverged"
    back = mappings_to_ohm(mappings)
    assert OhmExecutor().execute(back, instance).same_bags(
        baseline
    ), "mappings→OHM round trip diverged"
    redeployed, _plan = deploy_to_job(graph)
    assert EtlEngine().execute(redeployed, instance).same_bags(
        baseline
    ), "redeployed job diverged"
    optimize(graph)
    assert OhmExecutor().execute(graph, instance).same_bags(
        baseline
    ), "optimizer diverged"
    hybrid = plan_pushdown(compile_job(job))
    assert hybrid.execute(instance).same_bags(baseline), "hybrid diverged"


class TestChainJobs:
    @given(
        n_stages=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_chains(self, n_stages, seed, rows):
        all_paths_agree(
            build_chain_job(n_stages, seed=seed),
            generate_chain_instance(rows, seed=seed + 1),
        )


class TestFanoutJobs:
    @given(
        branches=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_fanouts(self, branches, seed):
        all_paths_agree(
            build_fanout_job(branches, seed=seed),
            generate_chain_instance(50, seed=seed),
        )


class TestStarJoins:
    @given(
        dims=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_stars(self, dims, seed):
        all_paths_agree(
            build_star_join_job(dims),
            # small dimensions: the mapping reference reading
            # (REPRO_COMPILED=0) enumerates facts x dim_size ** dims
            generate_star_instance(dims, 80, dim_size=6, seed=seed),
        )


class TestPaperExample:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_example_with_random_data(self, seed):
        all_paths_agree(
            build_example_job(), generate_instance(40, seed=seed)
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=4, deadline=None)
    def test_unknown_scenario_with_random_data(self, seed):
        # pushdown works around the UNKNOWN; all other paths carry the
        # black box behaviour
        job = build_example_job(custom_after_join=True)
        instance = generate_instance(30, seed=seed)
        baseline = EtlEngine().execute(job, instance)
        graph = compile_job(job)
        assert OhmExecutor().execute(graph, instance).same_bags(baseline)
        mappings = ohm_to_mappings(graph)
        assert MappingExecutor().execute(mappings, instance).same_bags(baseline)
        back = mappings_to_ohm(mappings)
        assert OhmExecutor().execute(back, instance).same_bags(baseline)
        hybrid = plan_pushdown(graph)
        assert hybrid.execute(instance).same_bags(baseline)

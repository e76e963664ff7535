"""Workload generator tests: determinism and structural guarantees."""

import pytest

from repro.etl import EtlEngine
from repro.workloads import (
    BIG_BALANCE_THRESHOLD,
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_star_instance,
)


class TestPaperExample:
    def test_deterministic_instances(self):
        a = generate_instance(30, seed=1)
        b = generate_instance(30, seed=1)
        assert a.same_bags(b)
        c = generate_instance(30, seed=2)
        assert not a.same_bags(c)

    def test_loan_accounts_have_negative_balances(self):
        instance = generate_instance(100)
        for row in instance.dataset("Accounts"):
            if row["type"] == "L":
                assert row["balance"] < 0

    def test_some_customers_cross_the_threshold(self):
        instance = generate_instance(200)
        targets = EtlEngine().execute(build_example_job(), instance)
        assert len(targets.dataset("BigCustomers")) > 0
        assert len(targets.dataset("OtherCustomers")) > 0
        for row in targets.dataset("BigCustomers"):
            assert row["totalBalance"] > BIG_BALANCE_THRESHOLD

    def test_schemas_well_formed(self):
        job = build_example_job()
        job.propagate_schemas()  # stages validate against link schemas


class TestGeneratedJobs:
    @pytest.mark.parametrize("n", [1, 8, 40])
    def test_chain_job_has_n_stages(self, n):
        job = build_chain_job(n)
        assert len(job.stages) == n + 2  # + source and target

    def test_chain_job_runs(self):
        job = build_chain_job(12)
        result = EtlEngine().execute(job, generate_chain_instance(100))
        assert "Out" in result.names

    def test_chain_is_deterministic(self):
        from repro.etl import job_to_xml

        assert job_to_xml(build_chain_job(9, seed=4)) == job_to_xml(
            build_chain_job(9, seed=4)
        )

    @pytest.mark.parametrize("branches", [2, 5])
    def test_fanout_job(self, branches):
        job = build_fanout_job(branches)
        result = EtlEngine().execute(job, generate_chain_instance(50))
        assert len(result.names) == branches

    @pytest.mark.parametrize("dims", [1, 3])
    def test_star_join_job(self, dims):
        job = build_star_join_job(dims)
        result = EtlEngine().execute(job, generate_star_instance(dims, 100))
        rollup = result.dataset("Rollup")
        assert len(rollup) > 0
        total = sum(r["total"] for r in rollup)
        facts = generate_star_instance(dims, 100).dataset("Fact")
        assert total == pytest.approx(sum(r["amount"] for r in facts))

"""ETL runtime engine tests: whole-job execution, link statistics."""

import pytest

from repro.data.dataset import Dataset, Instance
from repro.etl import (
    EtlEngine,
    FilterOutput,
    FilterStage,
    Job,
    JoinStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.schema import relation
from repro.workloads import build_example_job, generate_instance


@pytest.fixture
def rel():
    return relation("R", ("id", "int", False), ("v", "float"))


def simple_job(rel):
    job = Job("simple")
    src = job.add(TableSource(rel))
    f = job.add(FilterStage.single("v > 10", name="big"))
    tgt = job.add(TableTarget(rel.renamed("Out")))
    job.link(src, f, name="DSLink1")
    job.link(f, tgt, name="DSLink2")
    return job


class TestExecution:
    def test_run_returns_targets(self, rel):
        job = simple_job(rel)
        instance = Instance(
            [Dataset(rel, [{"id": 1, "v": 5.0}, {"id": 2, "v": 15.0}])]
        )
        result = EtlEngine().execute(job, instance)
        assert result.dataset("Out").column("id") == [2]

    def test_link_data_and_counts(self, rel):
        job = simple_job(rel)
        instance = Instance(
            [Dataset(rel, [{"id": 1, "v": 5.0}, {"id": 2, "v": 15.0}])]
        )
        engine = EtlEngine()
        result = engine.run(job, instance, keep=["DSLink1", "DSLink2"])
        assert len(result.edges["DSLink1"]) == 2
        assert len(result.edges["DSLink2"]) == 1
        assert result.rows == {"DSLink1": 2, "DSLink2": 1}
        assert engine.last_run.link_counts == {"DSLink1": 2, "DSLink2": 1}

    def test_run_keeps_only_the_named_links(self, rel):
        job = simple_job(rel)
        instance = Instance([Dataset(rel, [{"id": 1, "v": 50.0}])])
        result = EtlEngine().run(job, instance, keep=["DSLink2"])
        assert list(result.edges) == ["DSLink2"]
        assert result.rows == {"DSLink1": 1, "DSLink2": 1}
        assert len(result.targets.dataset("Out")) == 1
        assert len(result.rejected) == 0

    def test_multi_path_job(self):
        # diamond: source splits via a 2-output filter, rejoins via a join
        rel = relation("R", ("id", "int", False), ("v", "float"))
        job = Job("diamond")
        src = job.add(TableSource(rel))
        split = job.add(
            FilterStage(
                [FilterOutput("TRUE", columns=[("id", "id"), ("v", "v")]),
                 FilterOutput("TRUE", columns=[("id", "id")])],
                name="fan",
            )
        )
        join = job.add(JoinStage(keys=[("id", "id")], name="rejoin"))
        tgt = job.add(TableTarget(rel.renamed("Out")))
        job.link(src, split)
        job.link(split, join, src_port=0)
        job.link(split, join, src_port=1, dst_port=1)
        job.link(join, tgt)
        instance = Instance([Dataset(rel, [{"id": 1, "v": 3.0}])])
        result = EtlEngine().execute(job, instance)
        assert result.dataset("Out").rows == [{"id": 1, "v": 3.0}]


class TestPaperExampleJob:
    def test_partitions_customers(self):
        job = build_example_job()
        instance = generate_instance(80)
        targets, _rejected, rows, _edges = EtlEngine().run(job, instance)
        big = targets.dataset("BigCustomers")
        other = targets.dataset("OtherCustomers")
        # the final filter partitions DSLink10 exactly
        assert len(big) + len(other) == rows["DSLink10"]
        assert all(r["totalBalance"] > 100000 for r in big)
        assert all(r["totalBalance"] <= 100000 for r in other)

    def test_loan_accounts_excluded(self):
        job = build_example_job()
        instance = generate_instance(80)
        rows = EtlEngine().run(job, instance).rows
        accounts = instance.dataset("Accounts")
        non_loans = [r for r in accounts if r["type"] != "L"]
        assert rows["DSLink4"] == len(non_loans)

    def test_derived_columns_populated(self):
        job = build_example_job()
        targets = EtlEngine().execute(job, generate_instance(30))
        for dataset in targets:
            for row in dataset:
                assert row["agegroup"] in ("young", "adult", "senior")
                assert row["country"] is not None

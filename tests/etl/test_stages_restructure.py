"""Restructure (NF²) stage tests: CombineRecords / PromoteSubrecord."""

import pytest

from repro.data.dataset import Dataset, Instance
from repro.errors import ValidationError
from repro.etl import (
    CombineRecords,
    EtlEngine,
    Job,
    PromoteSubrecord,
    TableSource,
    TableTarget,
)
from repro.schema import relation
from repro.schema.model import Attribute, Relation
from repro.schema.types import FLOAT, INTEGER, RecordType, SetType


@pytest.fixture
def accounts():
    return relation(
        "Accounts",
        ("customerID", "int", False),
        ("accountID", "int", False),
        ("balance", "float"),
    )


ROWS = [
    {"customerID": 1, "accountID": 10, "balance": 5.0},
    {"customerID": 1, "accountID": 11, "balance": 7.0},
    {"customerID": 2, "accountID": 12, "balance": 9.0},
]


class TestCombineRecords:
    def test_nests_groups(self, run, accounts):
        stage = CombineRecords(
            ["customerID"], ["accountID", "balance"], into="accounts"
        )
        (out,) = run(stage, [Dataset(accounts, ROWS)])
        rows = {r["customerID"]: r for r in out}
        assert len(rows[1]["accounts"]) == 2
        assert rows[2]["accounts"] == [{"accountID": 12, "balance": 9.0}]

    def test_output_schema_is_nested(self, accounts):
        stage = CombineRecords(
            ["customerID"], ["accountID", "balance"], into="accounts"
        )
        (out_rel,) = stage.output_relations([accounts], ["o"])
        nested = out_rel.attribute("accounts").dtype
        assert isinstance(nested, SetType)
        assert nested.element_type.field_names == ("accountID", "balance")

    def test_needs_keys_and_nested(self):
        with pytest.raises(ValidationError):
            CombineRecords([], ["x"], into="s")
        with pytest.raises(ValidationError):
            CombineRecords(["k"], [], into="s")

    def test_into_collision_rejected(self):
        with pytest.raises(ValidationError):
            CombineRecords(["k"], ["x"], into="k")


class TestPromoteSubrecord:
    def nested_dataset(self):
        nested_rel = Relation(
            "Nested",
            [
                Attribute("customerID", INTEGER, nullable=False),
                Attribute(
                    "accounts",
                    SetType(RecordType(
                        [("accountID", INTEGER), ("balance", FLOAT)]
                    )),
                    nullable=False,
                ),
            ],
        )
        return Dataset(
            nested_rel,
            [
                {"customerID": 1, "accounts": [
                    {"accountID": 10, "balance": 5.0},
                    {"accountID": 11, "balance": 7.0},
                ]},
                {"customerID": 3, "accounts": []},
            ],
        )

    def test_flattens(self, run):
        stage = PromoteSubrecord("accounts")
        (out,) = run(stage, [self.nested_dataset()])
        assert len(out) == 2
        assert all(r["customerID"] == 1 for r in out)

    def test_requires_set_of_records(self, accounts):
        stage = PromoteSubrecord("balance")
        with pytest.raises(ValidationError):
            stage.validate([accounts])


class TestEndToEnd:
    def build_job(self, accounts):
        job = Job("nf2")
        s = job.add(TableSource(accounts))
        n = job.add(CombineRecords(
            ["customerID"], ["accountID", "balance"], into="accounts",
            name="nest",
        ))
        u = job.add(PromoteSubrecord("accounts", name="flatten"))
        t = job.add(TableTarget(accounts.renamed("Out")))
        job.link(s, n)
        job.link(n, u)
        job.link(u, t)
        return job

    def test_nest_unnest_is_identity(self, accounts):
        job = self.build_job(accounts)
        instance = Instance([Dataset(accounts, ROWS)])
        result = EtlEngine().execute(job, instance)
        assert result.dataset("Out").same_bag(Dataset(accounts, ROWS))

    def test_compiles_to_nest_unnest(self, accounts):
        from repro.compile import compile_job

        graph = compile_job(self.build_job(accounts))
        assert graph.kinds_in_order() == [
            "SOURCE", "NEST", "UNNEST", "TARGET",
        ]

    def test_redeploys_to_restructure_stages(self, accounts):
        from repro.compile import compile_job
        from repro.deploy import deploy_to_job

        graph = compile_job(self.build_job(accounts))
        job, _plan = deploy_to_job(graph)
        types = [s.STAGE_TYPE for s in job.topological_order()]
        assert "CombineRecords" in types
        assert "PromoteSubrecord" in types
        instance = Instance([Dataset(accounts, ROWS)])
        assert EtlEngine().execute(job, instance).same_bags(
            EtlEngine().execute(self.build_job(accounts), instance)
        )

    def test_mapping_extraction_treats_nf2_as_opaque_but_executable(
        self, accounts
    ):
        from repro.compile import compile_job
        from repro.mapping import MappingExecutor, ohm_to_mappings

        job = self.build_job(accounts)
        graph = compile_job(job)
        mappings = ohm_to_mappings(graph)
        assert all(m.is_opaque for m in mappings if m.reference in (
            "NEST", "UNNEST",
        ))
        instance = Instance([Dataset(accounts, ROWS)])
        assert MappingExecutor().execute(mappings, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

    def test_xml_roundtrip(self, accounts):
        from repro.etl import job_from_xml, job_to_xml

        job = self.build_job(accounts)
        restored = job_from_xml(job_to_xml(job))
        instance = Instance([Dataset(accounts, ROWS)])
        assert EtlEngine().execute(restored, instance).same_bags(
            EtlEngine().execute(job, instance)
        )

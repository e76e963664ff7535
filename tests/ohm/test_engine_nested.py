"""NF² (NEST/UNNEST) execution tests — the nested capabilities of the
schema representation (paper section IV)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import Dataset, Instance
from repro.ohm import Nest, OhmExecutor, OhmGraph, Source, Target, Unnest
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


def nested_relation():
    element = RecordType([("accountID", INTEGER), ("balance", FLOAT)])
    return Relation(
        "Nested",
        [
            Attribute("customerID", INTEGER, nullable=False),
            Attribute("accounts", SetType(element), nullable=False),
        ],
    )


ROWS = [
    {"customerID": 1, "accountID": 10, "balance": 5.0},
    {"customerID": 1, "accountID": 11, "balance": 7.0},
    {"customerID": 2, "accountID": 12, "balance": 9.0},
]


class TestNest:
    def test_groups_into_set_attribute(self, accounts):
        g = OhmGraph()
        s = g.add(Source(accounts))
        n = g.add(
            Nest(["customerID"], ["accountID", "balance"], into="accounts")
        )
        t = g.add(Target(nested_relation()))
        g.chain(s, n, t)
        result = OhmExecutor().execute(
            g, Instance([Dataset(accounts, ROWS)])
        )
        rows = {r["customerID"]: r for r in result.dataset("Nested")}
        assert len(rows[1]["accounts"]) == 2
        assert rows[2]["accounts"] == [{"accountID": 12, "balance": 9.0}]


class TestUnnest:
    def test_flattens_set_attribute(self, accounts):
        nested = nested_relation()
        g = OhmGraph()
        s = g.add(Source(nested))
        u = g.add(Unnest("accounts"))
        flat = relation(
            "Flat", ("customerID", "int"), ("accountID", "int"),
            ("balance", "float"),
        )
        t = g.add(Target(flat))
        g.chain(s, u, t)
        nested_rows = [
            {"customerID": 1, "accounts": [
                {"accountID": 10, "balance": 5.0},
                {"accountID": 11, "balance": 7.0},
            ]},
            {"customerID": 3, "accounts": []},
        ]
        data = Dataset(nested, nested_rows)
        result = OhmExecutor().execute(g, Instance([data]))
        flat_rows = result.dataset("Flat").rows
        assert len(flat_rows) == 2  # the empty set produces no rows
        assert all(r["customerID"] == 1 for r in flat_rows)


class TestNestUnnestRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=99),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_unnest_after_nest_restores_rows(self, triples):
        """NEST then UNNEST is the identity on the original bag (every
        customer has ≥1 account by construction, so no rows vanish)."""
        accounts = relation(
            "Accounts",
            ("customerID", "int", False),
            ("accountID", "int", False),
            ("balance", "float"),
        )
        rows = [
            {"customerID": c, "accountID": a, "balance": round(b, 3)}
            for c, a, b in triples
        ]
        g = OhmGraph()
        s = g.add(Source(accounts))
        n = g.add(
            Nest(["customerID"], ["accountID", "balance"], into="accounts")
        )
        u = g.add(Unnest("accounts"))
        flat = relation(
            "Flat", ("customerID", "int"), ("accountID", "int"),
            ("balance", "float"),
        )
        t = g.add(Target(flat))
        g.chain(s, n, u, t)
        result = OhmExecutor().execute(
            g, Instance([Dataset(accounts, rows)])
        )
        original = Dataset(flat, rows)
        assert result.dataset("Flat").same_bag(original)

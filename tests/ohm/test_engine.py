"""OHM execution engine tests: per-operator semantics on data."""

import pytest

from repro.data.dataset import Dataset, Instance
from repro.errors import ExecutionError
from repro.ohm import (
    BasicProject,
    Filter,
    Group,
    Join,
    OhmExecutor,
    OhmGraph,
    Project,
    Source,
    Split,
    Target,
    Union,
    Unknown,
)
from repro.schema import relation


@pytest.fixture
def people():
    return relation(
        "People", ("id", "int", False), ("dept", "varchar"), ("salary", "float")
    )


@pytest.fixture
def depts():
    return relation("Depts", ("dept", "varchar", False), ("site", "varchar"))


def people_data(people):
    return Dataset(
        people,
        [
            {"id": 1, "dept": "eng", "salary": 100.0},
            {"id": 2, "dept": "eng", "salary": 120.0},
            {"id": 3, "dept": "ops", "salary": 80.0},
            {"id": 4, "dept": None, "salary": None},
        ],
    )


def run(graph, *datasets):
    return OhmExecutor().execute(graph, Instance(list(datasets)))


class TestFilterExecution:
    def test_unknown_predicate_drops_row(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        f = g.add(Filter("salary > 90"))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, f, t)
        result = run(g, people_data(people)).dataset("Out")
        # row 4 has NULL salary: neither kept by > 90 nor by its negation
        assert sorted(result.column("id")) == [1, 2]


class TestJoinExecution:
    def _graph(self, people, depts, kind):
        g = OhmGraph()
        s1 = g.add(Source(people))
        s2 = g.add(Source(depts))
        j = g.add(Join("P.dept = D.dept", kind=kind))
        out = relation(
            "Out", ("id", "int"), ("dept", "varchar"),
            ("salary", "float"), ("site", "varchar"),
        )
        bp = g.add(BasicProject(
            [("id", "id"), ("dept", "P.dept"), ("salary", "salary"),
             ("site", "site")]
        ))
        t = g.add(Target(out))
        g.connect(s1, j, name="P")
        g.connect(s2, j, dst_port=1, name="D")
        g.chain(j, bp, t)
        return g

    def depts_data(self, depts):
        return Dataset(
            depts,
            [{"dept": "eng", "site": "SJ"}, {"dept": "sales", "site": "NY"}],
        )

    def test_inner_join(self, people, depts):
        g = self._graph(people, depts, "inner")
        result = run(g, people_data(people), self.depts_data(depts)).dataset("Out")
        assert sorted(result.column("id")) == [1, 2]
        assert set(result.column("site")) == {"SJ"}

    def test_left_join_null_fills(self, people, depts):
        g = self._graph(people, depts, "left")
        result = run(g, people_data(people), self.depts_data(depts)).dataset("Out")
        assert sorted(r["id"] for r in result) == [1, 2, 3, 4]
        unmatched = [r for r in result if r["id"] == 3][0]
        assert unmatched["site"] is None

    def test_full_join_includes_both_sides(self, people, depts):
        g = self._graph(people, depts, "full")
        result = run(g, people_data(people), self.depts_data(depts)).dataset("Out")
        # 2 matches + 2 unmatched people + 1 unmatched dept
        assert len(result) == 5
        sales_row = [r for r in result if r["site"] == "NY"][0]
        assert sales_row["id"] is None

    def test_null_keys_never_match(self, people, depts):
        g = self._graph(people, depts, "inner")
        result = run(g, people_data(people), self.depts_data(depts)).dataset("Out")
        assert all(r["dept"] is not None for r in result)


class TestGroupExecution:
    def test_grouping_with_aggregates(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        gr = g.add(Group(["dept"], [("total", "SUM(salary)"),
                                    ("n", "COUNT(*)")]))
        out = relation("Out", ("dept", "varchar"), ("total", "float"),
                       ("n", "int"))
        t = g.add(Target(out))
        g.chain(s, gr, t)
        result = run(g, people_data(people)).dataset("Out")
        by_dept = {r["dept"]: r for r in result}
        assert by_dept["eng"]["total"] == 220.0
        assert by_dept["eng"]["n"] == 2
        # NULL keys group together (SQL GROUP BY semantics)
        assert by_dept[None]["n"] == 1
        assert by_dept[None]["total"] is None

    def test_group_without_aggregates_dedupes(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        gr = g.add(Group(["dept"]))
        t = g.add(Target(relation("Out", ("dept", "varchar"))))
        g.chain(s, gr, t)
        result = run(g, people_data(people)).dataset("Out")
        assert len(result) == 3  # eng, ops, NULL


class TestSplitAndUnion:
    def test_split_copies_to_all_outputs(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        sp = g.add(Split())
        t1 = g.add(Target(people.renamed("A")))
        t2 = g.add(Target(people.renamed("B")))
        g.connect(s, sp)
        g.connect(sp, t1, src_port=0)
        g.connect(sp, t2, src_port=1)
        result = run(g, people_data(people))
        assert result.dataset("A").same_bag(result.dataset("B"))
        assert len(result.dataset("A")) == 4

    def test_union_all_keeps_duplicates(self, people):
        other = people.renamed("People2")
        g = OhmGraph()
        s1 = g.add(Source(people))
        s2 = g.add(Source(other))
        u = g.add(Union())
        t = g.add(Target(people.renamed("Out")))
        g.connect(s1, u, dst_port=0)
        g.connect(s2, u, dst_port=1)
        g.connect(u, t)
        d1 = people_data(people)
        d2 = Dataset(other, [dict(r) for r in d1.rows])
        result = run(g, d1, d2).dataset("Out")
        assert len(result) == 8

    def test_union_distinct_dedupes(self, people):
        other = people.renamed("People2")
        g = OhmGraph()
        s1 = g.add(Source(people))
        s2 = g.add(Source(other))
        u = g.add(Union(distinct=True))
        t = g.add(Target(people.renamed("Out")))
        g.connect(s1, u, dst_port=0)
        g.connect(s2, u, dst_port=1)
        g.connect(u, t)
        d1 = people_data(people)
        d2 = Dataset(other, [dict(r) for r in d1.rows])
        result = run(g, d1, d2).dataset("Out")
        assert len(result) == 4


class TestUnknownExecution:
    def test_executor_runs(self, people):
        def double_salary(inputs):
            return [[dict(r, salary=(r["salary"] or 0) * 2) for r in inputs[0]]]

        g = OhmGraph()
        s = g.add(Source(people))
        u = g.add(Unknown([people.renamed("u")], "doubler", executor=double_salary))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, u, t)
        result = run(g, people_data(people)).dataset("Out")
        assert sorted(r["salary"] for r in result) == [0, 160.0, 200.0, 240.0]

    def test_returned_dataset_hands_over_its_block(self, people):
        data = people_data(people)
        handed = data.as_block()
        g = OhmGraph()
        s = g.add(Source(people))
        u = g.add(Unknown([people.renamed("u")], "identity", executor=lambda ins: [data]))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, u, t)
        (edge_name,) = [e.name for e in g.edges if e.src == u.uid]
        edges = OhmExecutor().run(
            g, Instance([people_data(people)]), keep=[edge_name]
        ).edges
        (edge,) = [d for d in edges.values() if d.peek_block() is handed]
        assert edge.rows == data.rows

    def test_returned_dataset_off_schema_names_the_operator(self, people, depts):
        g = OhmGraph()
        s = g.add(Source(people))
        u = g.add(
            Unknown(
                [people.renamed("u")],
                "wrong",
                executor=lambda ins: [Dataset(depts, [{"dept": "eng", "site": "x"}])],
            )
        )
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, u, t)
        with pytest.raises(ExecutionError) as raised:
            run(g, people_data(people))
        assert raised.value.stage == u.uid

    def test_without_executor_raises(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        u = g.add(Unknown([people.renamed("u")], "blackbox"))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, u, t)
        with pytest.raises(ExecutionError):
            run(g, people_data(people))


class TestEngineInterface:
    def test_missing_source_relation_raises(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, t)
        with pytest.raises(ExecutionError):
            OhmExecutor().execute(g, Instance())

    def test_source_provider_fallback(self, people):
        provided = people_data(people)
        g = OhmGraph()
        s = g.add(Source(people, provider=lambda: provided))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, t)
        result = OhmExecutor().execute(g, Instance()).dataset("Out")
        assert len(result) == 4

    def test_edge_data_exposed(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        f = g.add(Filter("salary > 90"))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, f, t, names=["in_link", "filtered"])
        result = OhmExecutor().run(
            g, Instance([people_data(people)]), keep=["filtered"]
        )
        assert result.rows == {"in_link": 4, "filtered": 2}
        assert list(result.edges) == ["filtered"]
        assert len(result.edges["filtered"]) == 2

    def test_source_data_is_type_checked(self, people):
        g = OhmGraph()
        s = g.add(Source(people))
        t = g.add(Target(people.renamed("Out")))
        g.chain(s, t)
        bad = Dataset(people, validate=False)
        bad.append({"id": "not-an-int", "dept": 1, "salary": "x"}, validate=False)
        with pytest.raises(Exception):
            OhmExecutor().execute(g, Instance([bad]))

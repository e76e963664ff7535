"""Cost-based pushdown placement: push only when the DBMS wins."""

import pytest

from repro.compile import compile_job
from repro.cost import CostModel, StatisticsCatalog, catalog_for
from repro.data.dataset import Dataset, Instance
from repro.deploy import plan_pushdown, pushdown
from repro.deploy.sql import SqliteRunner
from repro.etl import EtlEngine
from repro.obs import Observability
from repro.ohm import (
    Filter, Join, OhmExecutor, OhmGraph, Project, Source, Target, Union,
)
from repro.schema import relation
from repro.workloads import (
    build_example_job,
    build_star_join_job,
    generate_instance,
    generate_star_instance,
    synthesize_instance,
)


def _pass_through_graph():
    """A fully pushable pass-through projection: SQL pays load +
    transfer on every row for no reduction, while the engine's chain
    never gathers (EXPERIMENTS "PLACE": 0.011 s never-push against
    0.055 s always-push at 20 000 rows), so it stays in the engine."""
    rel = relation(
        "R", ("id", "int", False), ("v", "float"), keys=["id"]
    )
    g = OhmGraph()
    s = g.add(Source(rel))
    p = g.add(Project([("id", "id"), ("v", "v + 1")]))
    t = g.add(Target(relation("Out", ("id", "int"), ("v", "float"))))
    g.chain(s, p, t, names=["in", "out"])
    return g


_PAYLOAD = 4  # payload columns a side: transfer is paid per cell

_LEFT = relation(
    "A", ("id", "int", False), ("k", "int"),
    *((f"a{i}", "float") for i in range(_PAYLOAD)), keys=["id"],
)
_RIGHT = relation(
    "B", ("bid", "int", False), ("kk", "int"),
    *((f"b{i}", "varchar") for i in range(_PAYLOAD)), keys=["bid"],
)


def _fan_out_graph():
    """A fully pushable join that *expands* rows: every key matches
    many rows on both sides, so the frontier carries far more rows than
    the sources. SQL would pay transfer on every expanded row; the
    engine builds them in place, so pure ETL must win (measured 1.24x
    at 400 x 400 rows -> 20 000)."""
    g = OhmGraph()
    left, right = g.add(Source(_LEFT)), g.add(Source(_RIGHT))
    join = g.add(Join("k = kk"))
    out = relation(
        "Out", *((a.name, a.dtype.name) for a in (*_LEFT, *_RIGHT))
    )
    g.connect(left, join, dst_port=0, name="left")
    g.connect(right, join, dst_port=1, name="right")
    g.connect(join, g.add(Target(out)), name="expanded")
    return g


def _fan_out_instance(rows_a_side, distinct_keys):
    return Instance([
        Dataset(_LEFT, [
            dict({"id": i, "k": i % distinct_keys},
                 **{f"a{j}": float(i + j) for j in range(_PAYLOAD)})
            for i in range(rows_a_side)
        ]),
        Dataset(_RIGHT, [
            dict({"bid": i, "kk": i % distinct_keys},
                 **{f"b{j}": f"s{i % 97}" for j in range(_PAYLOAD)})
            for i in range(rows_a_side)
        ]),
    ])


class TestSqlWins:
    """A star of twelve joins and a group: sqlite's evaluation saves
    more than loading the facts costs (EXPERIMENTS "PLACE": the sweep's
    star-12 cells), so the region is pushed."""

    @pytest.fixture
    def catalog(self):
        return catalog_for(generate_star_instance(12, 20000))

    def test_reducing_region_is_pushed(self, catalog):
        graph = compile_job(build_star_join_job(12))
        hybrid = plan_pushdown(graph, catalog=catalog)
        assert len(hybrid.statements) == 1
        assert len(hybrid.pushed_operator_uids) > 0
        assert hybrid.estimate is not None

    def test_decisions_explain_the_placement(self, catalog):
        graph = compile_job(build_star_join_job(12))
        hybrid = plan_pushdown(graph, catalog=catalog)
        sql = [d for d in hybrid.decisions if d.placement == "sql"]
        etl = [d for d in hybrid.decisions if d.placement == "etl"]
        assert len(sql) == 1 and len(etl) == 1
        assert [sql[0].name] == list(hybrid.statements)
        assert sql[0].rows is not None and sql[0].cost is not None
        assert "transfer" in sql[0].reason or "row-units" in sql[0].reason

    def test_describe_reports_rows_and_costs(self, catalog):
        graph = compile_job(build_star_join_job(12))
        text = plan_pushdown(graph, catalog=catalog).describe()
        assert "rows out, cost" in text
        assert "row-units" in text
        assert "rows in, cost" in text  # the residual fragment line

    def test_hybrid_matches_pure_etl(self, catalog):
        job = build_star_join_job(12)
        hybrid = plan_pushdown(compile_job(job), catalog=catalog)
        assert hybrid.statements
        instance = generate_star_instance(12, 300)
        assert hybrid.execute(instance).same_bags(EtlEngine().execute(job, instance))


class TestEngineKeepsTheExample:
    """The paper's job over data that starts in memory: loading both
    sources costs more than the eight operators sqlite would run
    (EXPERIMENTS "PLACE": the example cells), so nothing is pushed."""

    @pytest.fixture
    def catalog(self):
        graph = compile_job(build_example_job())
        relations = [
            op.relation for op in graph.sources() if op.provider is None
        ]
        return catalog_for(synthesize_instance(relations, 5000))

    def test_nothing_is_pushed(self, catalog):
        hybrid = plan_pushdown(compile_job(build_example_job()), catalog=catalog)
        assert hybrid.statements == {}
        assert hybrid.pushed_operator_uids == set()

    def test_reason_names_the_load(self, catalog):
        text = plan_pushdown(
            compile_job(build_example_job()), catalog=catalog
        ).describe()
        assert "nothing pushed to the DBMS" in text
        assert "(load dominates)" in text

    def test_hybrid_matches_pure_etl(self, catalog):
        hybrid = plan_pushdown(compile_job(build_example_job()), catalog=catalog)
        instance = generate_instance(80)
        pure = EtlEngine().execute(build_example_job(), instance)
        assert hybrid.execute(instance).same_bags(pure)

    def test_pass_through_projection_stays_in_the_engine(self):
        graph = _pass_through_graph()
        catalog = catalog_for(
            synthesize_instance([graph.sources()[0].relation], 20000)
        )
        hybrid = plan_pushdown(graph, catalog=catalog)
        assert hybrid.statements == {}


class TestEtlWins:
    """A join fanning 800 rows out to 20 000: keep it in the engine."""

    @pytest.fixture
    def catalog(self):
        return catalog_for(_fan_out_instance(400, 8))

    def test_nothing_is_pushed(self, catalog):
        hybrid = plan_pushdown(_fan_out_graph(), catalog=catalog)
        assert hybrid.statements == {}
        assert hybrid.pushed_operator_uids == set()

    def test_describe_explains_the_all_etl_plan(self, catalog):
        text = plan_pushdown(_fan_out_graph(), catalog=catalog).describe()
        assert "nothing pushed to the DBMS" in text
        assert "(transfer dominates)" in text

    def test_empty_plan_executes_as_pure_etl(self, catalog):
        hybrid = plan_pushdown(_fan_out_graph(), catalog=catalog)
        instance = _fan_out_instance(40, 4)
        expected = [
            {**a, **b}
            for a in instance.dataset("A")
            for b in instance.dataset("B")
            if a["k"] == b["kk"]
        ]
        assert len(expected) == 400

        def key(row):
            return row["id"], row["bid"]

        result = hybrid.execute(instance)
        assert sorted(result.dataset("Out").rows, key=key) == sorted(
            expected, key=key
        )

    def test_cost_false_restores_maximal_pushdown(self):
        """Planned without a catalog, the same join is pushed whole: the
        paper's maximal pushdown."""
        hybrid = plan_pushdown(_fan_out_graph())
        assert list(hybrid.statements) == ["expanded"]


class TestUnionAtTheFrontier:
    def test_a_union_feeding_the_frontier_is_one_union_all(self):
        """The frontier relation is the UNION's own output: the
        statement is the branches' UNION ALL, not a copy of the
        relation onto itself."""
        rel = relation("R", ("id", "int", False), ("v", "float"))
        g = OhmGraph()
        a, b = g.add(Source(rel)), g.add(Source(rel.renamed("R2")))
        union = g.add(Union())
        g.connect(a, union, dst_port=0, name="a")
        g.connect(b, union, dst_port=1, name="b")
        g.connect(union, g.add(Target(rel.renamed("Out"))), name="both")
        hybrid = plan_pushdown(g)
        assert hybrid.statements["both"].count("SELECT") == 2
        instance = Instance([
            Dataset(rel, [{"id": i, "v": i / 2} for i in range(3)]),
            Dataset(rel.renamed("R2"), [{"id": 9, "v": None}]),
        ])
        assert sorted(
            r["id"] for r in hybrid.execute(instance).dataset("Out").rows
        ) == [0, 1, 2, 9]


class TestBackwardCompatibility:
    def test_no_catalog_means_maximal_pushdown(self):
        hybrid = plan_pushdown(_pass_through_graph())
        assert list(hybrid.statements) == ["out"]
        assert hybrid.decisions == []
        assert hybrid.estimate is None

    def test_partial_catalog_coverage_falls_back(self):
        # statistics for a different relation: planning stays blind
        catalog = StatisticsCatalog()
        catalog.observe_rows("SomethingElse", 9)
        hybrid = plan_pushdown(_pass_through_graph(), catalog=catalog)
        assert list(hybrid.statements) == ["out"]

    def test_cost_metrics_emitted_only_in_cost_mode(self):
        graph = _pass_through_graph()
        catalog = catalog_for(
            synthesize_instance([graph.sources()[0].relation], 20000)
        )
        obs = Observability(stats=True)
        plan_pushdown(graph, catalog=catalog, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["deploy.pushdown.cost_candidates"] >= 2
        assert "deploy.pushdown.pushed_operators" in counters

        blind = Observability(stats=True)
        plan_pushdown(graph, obs=blind)
        assert (
            "deploy.pushdown.cost_candidates"
            not in blind.metrics.snapshot()["counters"]
        )


class _MovingRowsDecides(CostModel):
    """A model under which only the rows a region hands back decide:
    the engine pays one unit an input row, the DBMS evaluates and loads
    for free and pays one unit a row it hands back."""

    def etl_operator_cost(self, kind, rows_in, rows_out, width):
        return rows_in

    def sql_operator_cost(self, kind, rows_in, rows_out):
        return 0.0

    def sql_load(self, base_rows, width):
        return 0.0

    def sql_transfer(self, frontier_rows, width):
        return frontier_rows


class TestAdaptiveReplanning:
    def test_feedback_can_flip_the_decision(self):
        """Statistics sampled while the join key was still unique say
        the join keeps the row count: after one observed run shows the
        25x fan-out, the planner stops pushing the (row-expanding)
        region. The search is under test, not the rates, so it runs on
        a model where the rows handed back are all that matter."""
        g = _fan_out_graph()
        model = _MovingRowsDecides()
        catalog = catalog_for(_fan_out_instance(400, 400))
        before = plan_pushdown(g, catalog=catalog, model=model)
        assert list(before.statements) == ["expanded"]  # estimate: 1:1

        catalog.observe_link("expanded", 20000)  # reality: fan-out
        after = plan_pushdown(g, catalog=catalog, model=model)
        assert after.statements == {}


_SELECTIVE = relation("R", ("id", "int", False), ("v", "int", False))


class TestEachPartDecidesAlone:
    """The fan-out join beside a selective filter: two parts of the
    pushable region, priced apart on a model where the rows handed back
    are all that matter. The filter hands back a hundredth of its input
    and goes to the DBMS; the join hands back 25x its input and stays in
    the engine."""

    @pytest.fixture
    def graph(self):
        g = _fan_out_graph()
        g.chain(
            g.add(Source(_SELECTIVE)), g.add(Filter("v < 10")),
            g.add(Target(_SELECTIVE.renamed("Few"))), names=["r", "few"],
        )
        return g

    @pytest.fixture
    def obs(self):
        return Observability(stats=True)

    @pytest.fixture
    def hybrid(self, graph, obs):
        catalog = catalog_for(Instance([
            *_fan_out_instance(400, 400),
            Dataset(_SELECTIVE, [{"id": i, "v": i} for i in range(1000)]),
        ]))
        catalog.observe_link("expanded", 20000)
        return plan_pushdown(
            graph, catalog=catalog, model=_MovingRowsDecides(), obs=obs
        )

    def test_only_the_filter_part_is_pushed(self, graph, hybrid, obs):
        assert list(hybrid.statements) == ["few"]
        assert sorted(
            graph.operator(uid).KIND for uid in hybrid.pushed_operator_uids
        ) == ["FILTER", "SOURCE"]
        counters = obs.metrics.snapshot()["counters"]
        assert counters["deploy.pushdown.cost_candidates"] == 4  # two parts
        assert counters["deploy.pushdown.peeled"] == 3  # the join's part

    def test_only_its_relation_reaches_the_dbms(
        self, graph, hybrid, monkeypatch
    ):
        loaded = []

        class Recording(SqliteRunner):
            def __init__(self, instance, **kwargs):
                loaded.extend(instance.names)
                super().__init__(instance, **kwargs)

        monkeypatch.setattr(pushdown, "SqliteRunner", Recording)
        instance = Instance([
            *_fan_out_instance(40, 4),
            Dataset(_SELECTIVE, [{"id": i, "v": i % 20} for i in range(60)]),
        ])
        result = hybrid.execute(instance)
        assert loaded == ["R"]
        assert result.same_bags(OhmExecutor().execute(graph, instance))

"""CardinalityEstimator: clamping, monotonicity, parity, feedback."""

import math

import pytest

from repro.compile import compile_job
from repro.cost import CardinalityEstimator, StatisticsCatalog, catalog_for
from repro.cost.estimate import RANGE_SELECTIVITY_FLOOR
from repro.data.dataset import Dataset, Instance
from repro.expr.parser import parse
from repro.ohm import (
    Filter, Group, Join, OhmExecutor, OhmGraph, Project, Source, Target,
    Union,
)
from repro.schema import relation
from repro.workloads import (
    build_example_job,
    build_kitchen_sink_job,
    generate_instance,
    generate_kitchen_sink_instance,
)

PREDICATES = [
    "a = 1",
    "a <> 1",
    "a < 5 AND b > 2",
    "a = 1 OR b = 2",
    "NOT (a = 1)",
    "a IS NULL",
    "a IS NOT NULL",
    "a IN (1, 2, 3)",
    "a NOT IN (1, 2, 3)",
    "a BETWEEN 1 AND 5",
    "name LIKE 'x%'",
    "name NOT LIKE 'x%'",
    "a = 1 AND a = 2 AND a = 3 AND b < 9",
    "a = 1 OR a = 2 OR a = 3 OR b < 9",
    "TRUE",
    "FALSE",
    "NULL",
    "a = b",
]


class TestSelectivity:
    @pytest.mark.parametrize("text", PREDICATES)
    def test_clamped_to_unit_interval(self, text):
        estimator = CardinalityEstimator()
        s = estimator.selectivity(parse(text))
        assert 0.0 <= s <= 1.0

    def test_conjunction_never_increases(self):
        estimator = CardinalityEstimator()
        base = estimator.selectivity(parse("a = 1"))
        both = estimator.selectivity(parse("a = 1 AND b = 2"))
        assert both <= base

    def test_disjunction_never_decreases(self):
        estimator = CardinalityEstimator()
        base = estimator.selectivity(parse("a = 1"))
        either = estimator.selectivity(parse("a = 1 OR b = 2"))
        assert either >= base

    def test_negation_complements(self):
        estimator = CardinalityEstimator()
        s = estimator.selectivity(parse("a BETWEEN 1 AND 5"))
        not_s = estimator.selectivity(parse("a NOT BETWEEN 1 AND 5"))
        assert s + not_s == pytest.approx(1.0)


def _chain_graph():
    rel = relation(
        "R", ("id", "int", False), ("v", "float"), ("k", "int"), keys=["id"]
    )
    j_rel = relation("S", ("k2", "int", False), ("w", "float"), keys=["k2"])
    g = OhmGraph()
    s = g.add(Source(rel))
    f = g.add(Filter("v > 10"))
    s2 = g.add(Source(j_rel))
    j = g.add(Join("left.k = right.k2"))
    grp = g.add(Group(["k"], aggregates=[("total", "SUM(v)")]))
    t = g.add(Target(relation("Out", ("k", "int"), ("total", "float"))))
    g.connect(s, f, name="in")
    g.connect(f, j, name="left")
    g.connect(s2, j, dst_port=1, name="right")
    g.chain(j, grp, t, names=["joined", "grouped"])
    g.propagate_schemas()
    return g


class TestGraphEstimates:
    def test_monotone_in_source_cardinality(self):
        graph = _chain_graph()
        previous = None
        for n in (100, 1000, 10000, 100000):
            catalog = StatisticsCatalog()
            catalog.observe_rows("R", n)
            catalog.observe_rows("S", 50)
            estimate = CardinalityEstimator(catalog).estimate_graph(graph)
            rows = [estimate.rows_out(op.uid) for op in graph.operators]
            assert all(r >= 0 for r in rows)
            if previous is not None:
                # growing the source never shrinks any estimate
                assert all(r >= p - 1e-6 for r, p in zip(rows, previous))
            previous = rows

    def test_filter_never_exceeds_input(self):
        graph = _chain_graph()
        catalog = StatisticsCatalog()
        catalog.observe_rows("R", 1000)
        catalog.observe_rows("S", 50)
        estimate = CardinalityEstimator(catalog).estimate_graph(graph)
        for op in graph.operators:
            if op.KIND in ("FILTER", "GROUP"):
                e = estimate.operators[op.uid]
                assert e.rows_out <= e.rows_in

    def test_sources_grounded_by_catalog(self):
        graph = _chain_graph()
        catalog = StatisticsCatalog()
        catalog.observe_rows("R", 777)
        catalog.observe_rows("S", 33)
        estimate = CardinalityEstimator(catalog).estimate_graph(graph)
        by_kind = {
            estimate.operators[op.uid].label: estimate.operators[op.uid]
            for op in graph.operators
        }
        assert by_kind["R"].rows_out == 777
        assert by_kind["R"].source == "catalog"
        assert by_kind["S"].rows_out == 33

    def test_unknown_sources_fall_back_to_default(self):
        graph = _chain_graph()
        estimate = CardinalityEstimator().estimate_graph(graph)
        for op in graph.operators:
            if op.KIND == "SOURCE":
                e = estimate.operators[op.uid]
                assert e.rows_out == CardinalityEstimator().default_rows
                assert e.source == "estimate"


class TestParity:
    """Estimates track reality on the repository's own workloads."""

    @pytest.mark.parametrize(
        "build,generate",
        [
            (build_example_job, lambda: generate_instance(200)),
            (build_kitchen_sink_job, generate_kitchen_sink_instance),
        ],
        ids=["paper-example", "kitchen-sink"],
    )
    def test_estimates_within_an_order_of_magnitude(self, build, generate):
        instance = generate()
        graph = compile_job(build())
        catalog = catalog_for(instance)
        estimate = CardinalityEstimator(catalog).estimate_graph(graph)
        ratios = []
        for name, actual in OhmExecutor().run(graph, instance).rows.items():
            guessed = estimate.edge_rows(name)
            assert guessed > 0, f"edge {name} has no estimate"
            if actual == 0:
                continue
            ratio = max(guessed / actual, actual / guessed)
            assert ratio <= 10.0, (
                f"edge {name}: estimated {guessed:.0f} vs actual {actual}"
            )
            ratios.append(ratio)
        # the typical error is far tighter than the worst case
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        assert geomean <= 3.0


class TestFeedbackLoop:
    def test_observed_actuals_pin_the_estimate(self):
        instance = generate_instance(200)
        graph = compile_job(build_example_job())
        catalog = catalog_for(instance)
        estimator = CardinalityEstimator(catalog)
        before = estimator.estimate_graph(graph)

        from repro.obs import Observability

        obs = Observability(stats=True)
        rows = OhmExecutor(obs=obs, catalog=catalog).run(graph, instance).rows
        after = estimator.estimate_graph(graph)

        pinned = 0
        for name, count in rows.items():
            if catalog.observed(name) is not None:
                assert after.edge_rows(name) == float(count)
                pinned += 1
        assert pinned > 0
        # re-planning with feedback is at least as accurate everywhere
        for name, count in rows.items():
            actual = float(count)
            err_after = abs(after.edge_rows(name) - actual)
            err_before = abs(before.edge_rows(name) - actual)
            assert err_after <= err_before + 1e-9

    def test_operator_estimates_carry_observed_source(self):
        graph = _chain_graph()
        catalog = StatisticsCatalog()
        catalog.observe_rows("R", 1000)
        catalog.observe_rows("S", 50)
        catalog.observe_link("joined", 123)
        estimate = CardinalityEstimator(catalog).estimate_graph(graph)
        joined = [
            e for e in estimate.operators.values() if e.kind == "JOIN"
        ]
        assert joined[0].rows_out == 123.0
        assert joined[0].source == "observed"

    def test_forgetting_restores_pure_estimation(self):
        graph = _chain_graph()
        catalog = StatisticsCatalog()
        catalog.observe_rows("R", 1000)
        catalog.observe_rows("S", 50)
        estimator = CardinalityEstimator(catalog)
        pure = estimator.estimate_graph(graph)
        catalog.observe_link("joined", 123)
        catalog.forget_observations()
        again = estimator.estimate_graph(graph)
        for uid, e in pure.operators.items():
            assert again.operators[uid].rows_out == e.rows_out


class TestRangeBounds:
    """A range against a numeric literal keeps the share of the column's
    sampled ``(low, high)`` it covers; without bounds it keeps 1/3."""

    @pytest.fixture
    def graph_and_catalog(self):
        rel = relation(
            "R", ("id", "int", False), ("v", "float"), ("s", "varchar")
        )
        data = Dataset(rel, [
            {"id": i, "v": float(i % 101), "s": f"x{i}"} for i in range(2000)
        ])
        return rel, catalog_for(Instance([data]))

    def _kept(self, rel, catalog, *ops):
        g = OhmGraph()
        g.chain(g.add(Source(rel)), *(g.add(op) for op in ops),
                g.add(Target(rel.renamed("Out"))),
                names=[f"e{i}" for i in range(len(ops) + 1)])
        g.propagate_schemas()
        estimate = CardinalityEstimator(catalog).estimate_graph(g)
        return estimate.edge_rows(f"e{len(ops)}") / 2000

    def test_share_of_the_sampled_range(self, graph_and_catalog):
        rel, catalog = graph_and_catalog
        kept = self._kept
        assert kept(rel, catalog, Filter("v > 90")) == pytest.approx(0.1, abs=0.02)
        assert kept(rel, catalog, Filter("50 > v")) == pytest.approx(0.5, abs=0.02)
        assert kept(rel, catalog, Filter("v >= 0")) == pytest.approx(1.0)
        # beyond the sampled bounds: a floor, never no rows at all
        assert kept(rel, catalog, Filter("v > 500")) == pytest.approx(
            RANGE_SELECTIVITY_FLOOR
        )
        assert kept(rel, catalog, Filter("v < -1")) == pytest.approx(
            RANGE_SELECTIVITY_FLOOR
        )

    def test_shifted_through_a_projection(self, graph_and_catalog):
        rel, catalog = graph_and_catalog
        shift = Project([("id", "id"), ("v", "v + 100"), ("s", "s")])
        assert self._kept(rel, catalog, shift, Filter("v > 190")) == (
            pytest.approx(0.1, abs=0.02)
        )

    def test_a_union_covers_both_branches(self):
        low = relation("Low", ("id", "int", False), ("amount", "int"))
        high = low.renamed("High")
        catalog = catalog_for(Instance([
            Dataset(low, [{"id": i, "amount": i % 51} for i in range(1000)]),
            Dataset(high, [
                {"id": i, "amount": 51 + i % 50} for i in range(1000)
            ]),
        ]))
        g = OhmGraph()
        union = g.add(Union())
        g.connect(g.add(Source(low)), union, dst_port=0, name="a")
        g.connect(g.add(Source(high)), union, dst_port=1, name="b")
        g.chain(union, g.add(Filter("amount < 40")),
                g.add(Target(low.renamed("Out"))), names=["u", "f"])
        g.propagate_schemas()
        estimate = CardinalityEstimator(catalog).estimate_graph(g)
        # amounts 0-50 and 51-100 together: 40 of 0-100 are below 40
        assert estimate.edge_rows("f") / 2000 == pytest.approx(0.4, abs=0.02)

    def test_no_bounds_keeps_the_default(self, graph_and_catalog):
        rel, catalog = graph_and_catalog
        scaled = Project([("id", "id"), ("v", "v * 2"), ("s", "s")])
        assert self._kept(rel, catalog, scaled, Filter("v > 190")) == (
            pytest.approx(1 / 3)
        )
        assert self._kept(rel, catalog, Filter("s > 'x5'")) == pytest.approx(1 / 3)

"""The lowering of a mapping (Figure 9's left-deep join, run on the OHM
executor) against an oracle the plan cannot reach: a brute-force
``itertools.product`` in the test itself, and against
``MappingExecutor(compiled=False)``, the reference reading that shares
nothing with ``mappings_to_ohm``."""

import itertools
import random

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.errors import (
    EvaluationError,
    FaultInjected,
    MappingError,
    RunCancelled,
    TransientError,
)
from repro.exec import set_kernel_fault_hook
from repro.expr.evaluator import Environment, evaluate
from repro.faults import FaultPlan
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    mappings_to_ohm,
    ohm_to_mappings,
)
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.resilience import format_row
from repro.schema import relation
from repro.workloads import build_example_job
from repro.workloads.paper_example import generate_instance

A = relation("A", ("akey", "int"), ("code", "varchar"), ("balance", "float"))
B = relation("B", ("a_id", "float"), ("bkey", "int"), ("code", "varchar"))
C = relation("C", ("b_id", "int"), ("cap", "float"))

#: tier → ``MappingExecutor`` keywords: the oracle reads the mapping,
#: every other entry lowers it to OHM and runs the graph on the compiled
#: tier. ``block`` and ``parallel`` still name the retired tiers' keyword
#: sets, which the engines drop (with a warning) until the benchmark
#: harness stops passing them; ``rows`` (row kernels) is the oracle's.
TIERS = {
    "oracle": dict(compiled=False),
    "rows": dict(compiled=False),
    "block": dict(compiled=True, batched=True, fused=False),
    "fused": dict(compiled=True),
    "parallel": dict(compiled=True, mode="parallel", workers=2),
}

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*execution tier that is gone:DeprecationWarning"
)


def random_instance(seed, sizes=(7, 9, 6), null_rate=0.2):
    """Small key ranges (duplicates on both sides), NULL keys on either
    side, int keys in A and C against float keys in B."""
    rng = random.Random(seed)

    def key(as_float=False):
        if rng.random() < null_rate:
            return None
        value = rng.randrange(4)
        return float(value) if as_float else value

    n_a, n_b, n_c = sizes
    return Instance([
        Dataset(A, [
            {"akey": key(), "code": rng.choice(["x", "y", "Z", None]),
             "balance": rng.uniform(0, 100)}
            for _ in range(n_a)
        ]),
        Dataset(B, [
            {"a_id": key(as_float=True), "bkey": key(),
             "code": rng.choice(["X", "Y", "Z", None])}
            for _ in range(n_b)
        ]),
        Dataset(C, [
            {"b_id": key(), "cap": rng.uniform(0, 100)} for _ in range(n_c)
        ]),
    ])


def satisfying(mapping, instance):
    """Every combination of source rows, in product order, that the
    interpreting evaluator accepts."""
    variables = [b.var for b in mapping.sources]
    rows = [instance.dataset(b.relation.name).rows for b in mapping.sources]
    envs = (
        Environment(**dict(zip(variables, combo)))
        for combo in itertools.product(*rows)
    )
    return [env for env in envs if evaluate(mapping.where, env) is True]


def reference(mapping, instance):
    return [
        {col: evaluate(expr, env) for col, expr in mapping.derivations}
        for env in satisfying(mapping, instance)
    ]


OUT_TYPES = {
    "x": "float", "y": "int", "z": "varchar", "w": "float",
    "k": "int", "last": "varchar", "n": "int",
}


def mapping_of(sources, where, derivations, **kwargs):
    """(Derivation columns are typed by ``OUT_TYPES``: the lowering
    validates the mapping set, as every translation does.)"""
    bindings = [SourceBinding(var, rel) for var, rel in sources]
    target = relation(
        "T", *((col, OUT_TYPES.get(col, "float")) for col, _e in derivations)
    )
    return Mapping(bindings, target, derivations, where=where, **kwargs)


AB = [("a", A), ("b", B)]
ABC = [("a", A), ("b", B), ("c", C)]
AB_OUT = [("x", "a.balance"), ("y", "b.bkey"), ("z", "b.code")]
ABC_OUT = AB_OUT + [("w", "c.cap")]

#: name → (sources, where, derivations, random_instance keywords)
SHAPES = {
    "chain-2": (AB, "a.akey = b.a_id", AB_OUT, {}),
    "chain-3": (ABC, "a.akey = b.a_id AND b.bkey = c.b_id", ABC_OUT, {}),
    "star-product-then-composite-key": (
        [("a", A), ("c", C), ("b", B)],
        "a.akey = b.a_id AND b.bkey = c.b_id", ABC_OUT, {},
    ),
    "self-join": (
        [("a1", A), ("a2", A)],
        "a1.akey = a2.akey AND a1.balance < a2.balance",
        [("x", "a1.balance"), ("w", "a2.balance")], {},
    ),
    "null-keys-both-sides": (AB, "a.akey = b.a_id", AB_OUT, {"null_rate": 0.6}),
    "no-nulls-duplicate-keys": (AB, "a.akey = b.a_id", AB_OUT, {"null_rate": 0}),
    "empty-left": (AB, "a.akey = b.a_id", AB_OUT, {"sizes": (0, 5, 0)}),
    "empty-right": (AB, "a.akey = b.a_id", AB_OUT, {"sizes": (5, 0, 0)}),
    "empty-middle-of-three": (
        ABC, "a.akey = b.a_id AND b.bkey = c.b_id", ABC_OUT,
        {"sizes": (4, 0, 4)},
    ),
    "pure-product": (AB, None, AB_OUT, {}),
    "placeholder-true": (AB, "TRUE", AB_OUT, {}),
    "theta-only": (AB, "a.balance > b.a_id * 20", AB_OUT, {}),
    "key-over-expressions": (AB, "UPPER(a.code) = b.code", AB_OUT, {}),
    "right-to-left": (AB, "b.a_id = a.akey", AB_OUT, {}),
    "unqualified": (
        ABC, "akey = a_id AND b_id = bkey",
        [("x", "balance"), ("y", "bkey"), ("w", "cap")], {},
    ),
    "equi-plus-residual": (
        ABC, "a.akey = b.a_id AND b.bkey = c.b_id AND a.balance > c.cap",
        ABC_OUT, {},
    ),
    "two-conjuncts-one-binding": (
        AB, "a.akey = b.a_id AND UPPER(a.code) = b.code", AB_OUT, {},
    ),
}


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", SHAPES)
def test_rows_come_out_in_product_order(shape, seed, tier):
    sources, where, derivations, options = SHAPES[shape]
    mapping = mapping_of(sources, where, derivations)
    instance = random_instance(seed, **options)
    result = MappingExecutor(**TIERS[tier]).execute(
        MappingSet([mapping]), instance
    ).dataset(mapping.target.name)
    assert result.rows == reference(mapping, instance)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grouping_with_first_and_sum_over_the_joined_rows(seed, tier):
    mapping = mapping_of(
        AB, "a.akey = b.a_id",
        [("k", "b.bkey"), ("first", "FIRST(a.balance)"),
         ("last", "LAST(b.code)"), ("total", "SUM(a.balance)"),
         ("n", "COUNT(*)"), ("mean", "SUM(a.balance) / COUNT(*)")],
        group_by=["b.bkey"],
    )
    instance = random_instance(seed, sizes=(12, 14, 0))
    groups = {}  # first-seen order, NULL keys together
    for env in satisfying(mapping, instance):
        groups.setdefault(env.bindings["b"]["bkey"], []).append(env)
    expected = []
    for key, members in groups.items():
        total = 0.0
        for env in members:  # the fold order is the enumeration order
            total += env.bindings["a"]["balance"]
        expected.append({
            "k": key,
            "first": members[0].bindings["a"]["balance"],
            "last": members[-1].bindings["b"]["code"],
            "total": total,
            "n": len(members),
            "mean": total / len(members),
        })
    result = MappingExecutor(**TIERS[tier]).execute(
        MappingSet([mapping]), instance
    ).dataset(mapping.target.name)
    assert result.rows == expected


def test_agrees_with_the_figure_9_ohm_graph_as_bags():
    sources, where, derivations, _options = SHAPES["equi-plus-residual"]
    mapping = mapping_of(sources, where, derivations)
    instance = random_instance(5, sizes=(15, 20, 12))
    mine = MappingExecutor().execute(MappingSet([mapping]), instance)
    graph = mappings_to_ohm(MappingSet([mapping]))
    theirs = OhmExecutor(compiled=False).execute(graph, instance)
    assert len(mine.dataset("T")) > 0
    assert mine.dataset("T").same_bag(theirs.dataset("T"))


# -- error policies ------------------------------------------------------------
#
# The lowered graph and the reference reading accept the same rows; what
# they put on the reject channel differs where a join is involved, and
# ``docs/robustness.md`` ("Mappings") says how. These tests pin both.


def _run(mapping, instance, **options):
    """``(accepted rows, reject rows, metrics)`` of one mapping."""
    obs = Observability(stats=True)
    targets, rejects, _rows, _edges = MappingExecutor(obs=obs, **options).run(
        MappingSet([mapping]), instance
    )
    return targets.dataset("T").rows, rejects.rows, obs.metrics


def _zero_divisor_instance():
    return Instance([
        Dataset(A, [
            {"akey": 1, "code": "x", "balance": 1.0},
            {"akey": 2, "code": "y", "balance": 2.0},
        ]),
        Dataset(B, [
            {"a_id": 1.0, "bkey": 0, "code": "X"},  # key match, raises
            {"a_id": 1.0, "bkey": 5, "code": "Y"},  # key match, kept
            {"a_id": 9.0, "bkey": 0, "code": "Z"},  # no key match
            {"a_id": 2.0, "bkey": 0, "code": "W"},  # key match, raises
        ]),
    ])


@pytest.mark.parametrize("policy", ["reject", "skip"])
def test_residual_error_on_a_key_matched_combination_is_absorbed_and_an_excluded_combination_is_never_evaluated(
    policy,
):
    """A conjunct over both sources stays on the JOIN as its residual:
    it is evaluated on key-matched pairs only, and a pair it raises on
    is rejected as the merged row, without a row index."""
    mapping = mapping_of(
        AB, "a.akey = b.a_id AND 10 / b.bkey > a.balance", AB_OUT, name="M"
    )
    instance = _zero_divisor_instance()
    accepted, rejects, metrics = _run(
        mapping, instance, compiled=True, on_error=policy
    )
    expected, _r, _m = _run(mapping, instance, compiled=False, on_error=policy)
    assert accepted == expected == [{"x": 1.0, "y": 5, "z": "Y"}]
    # B's third row divides by zero too, but its key matches nothing
    if policy == "skip":
        assert metrics.counter("exec.errors.total") == 2 and not rejects
        return
    assert [(r["stage"], r["row_index"], r["error_code"]) for r in rejects] == [
        ("M.join5", None, "EvaluationError"), ("M.join5", None, "EvaluationError"),
    ]
    assert [r["row"] for r in rejects] == [
        format_row({"x": 1.0, "akey": 1, "balance": 1.0,
                    "a_id": 1.0, "bkey": 0, "y": 0, "z": "X"}),
        format_row({"x": 2.0, "akey": 2, "balance": 2.0,
                    "a_id": 2.0, "bkey": 0, "y": 0, "z": "W"}),
    ]


@pytest.mark.parametrize("policy", ["reject", "skip"])
def test_single_source_conjunct_error_is_absorbed_at_that_sources_filter(policy):
    """``10 / b.bkey > 1`` names one source, so Figure 9 places it on
    B's FILTER, before the join: every B row is tested — the one no A
    row would have reached too — and a row that raises is rejected as
    the source row, by its position in B."""
    mapping = mapping_of(AB, "a.akey = b.a_id AND 10 / b.bkey > 1", AB_OUT, name="M")
    instance = _zero_divisor_instance()
    b_rows = instance.dataset("B").rows
    accepted, rejects, metrics = _run(
        mapping, instance, on_error=policy, **TIERS["fused"]
    )
    assert accepted == [{"x": 1.0, "y": 5, "z": "Y"}]
    if policy == "skip":
        assert metrics.counter("exec.errors.total") == 3 and not rejects
    else:
        assert [(r["stage"], r["row_index"], r["row"]) for r in rejects] == [
            ("M.filter2", i, format_row(b_rows[i])) for i in (0, 2, 3)
        ]
    # the reference reads the where clause over the product: one reject
    # per combination holding a poisoned row, as per-variable rows
    accepted, rejects, _m = _run(mapping, instance, compiled=False, on_error=policy)
    assert accepted == [{"x": 1.0, "y": 5, "z": "Y"}]
    if policy == "reject":
        assert [(r["stage"], r["row_index"]) for r in rejects] == [
            ("M", i) for i in (0, 2, 3, 4, 6, 7)
        ]
        assert rejects[0]["row"] == format_row(
            {"a": instance.dataset("A").rows[0], "b": b_rows[0]}
        )


@pytest.mark.parametrize("policy", ["fail_fast", "reject", "skip"])
def test_key_data_error_abandons_the_join_and_the_where_clause_meets_it(policy):
    """``10 / a.akey`` raises on A's zero key. A join-key data error is
    rejected, skipped or raised under the run's policy, with the same
    accepted bag as the reference: there the where clause meets it once
    per combination of the poisoned row; in the lowered graph the JOIN
    meets it once — the row (as projected for the join, by its position
    in that input) joins nothing."""
    mapping = mapping_of(AB, "10 / a.akey = b.a_id", AB_OUT, name="M")
    instance = Instance([
        Dataset(A, [
            {"akey": 5, "code": "x", "balance": 1.0},
            {"akey": 0, "code": "y", "balance": 2.0},
            {"akey": 10, "code": "z", "balance": 3.0},
        ]),
        Dataset(B, [
            {"a_id": 2.0, "bkey": 1, "code": "X"},
            {"a_id": 1.0, "bkey": 2, "code": "Y"},
        ]),
    ])
    expected = [{"x": 1.0, "y": 1, "z": "X"}, {"x": 3.0, "y": 2, "z": "Y"}]
    for tier in TIERS:
        reference = TIERS[tier]["compiled"] is False
        if policy == "fail_fast":
            with pytest.raises(EvaluationError, match="division by zero"):
                _run(mapping, instance, on_error=policy, **TIERS[tier])
            continue
        accepted, rejects, metrics = _run(
            mapping, instance, on_error=policy, **TIERS[tier]
        )
        assert accepted == expected
        absorbed = 2 if reference else 1
        assert metrics.counter("exec.errors.total") == absorbed
        if policy == "skip":
            assert not rejects
        elif reference:
            assert [(r["stage"], r["row_index"]) for r in rejects] == [("M", 2), ("M", 3)]
        else:
            assert [(r["stage"], r["row_index"], r["row"]) for r in rejects] == [
                ("M.join5", 1, format_row({"akey": 0, "x": 2.0}))
            ]


@pytest.mark.parametrize(
    "error",
    [FaultInjected("boom"), TransientError("flaky"), MappingError("plan"),
     RunCancelled("stop")],
    ids=lambda e: type(e).__name__,
)
def test_non_data_errors_from_a_join_conjunct_are_not_mistaken_for_bad_rows(error):
    """Infrastructure, static and cancellation errors leave the join
    the way they came — nothing on the reject channel — and, raised on
    the join's row body, are the run's error."""

    calls = []

    def hook(_tier, kind, fn):
        if kind != "predicate":
            return fn

        def raising(env):
            # the only predicate of this graph is the JOIN's residual
            calls.append(env)
            if len(calls) == 1:
                raise error
            return fn(env)

        return raising

    mapping = mapping_of(AB, "a.akey = b.a_id AND a.balance > b.bkey - 1000", AB_OUT)
    obs = Observability(stats=True)
    executor = MappingExecutor(obs=obs, compiled=True, on_error="reject")
    set_kernel_fault_hook(hook)
    try:
        with pytest.raises(type(error)):
            executor.run(MappingSet([mapping]), random_instance(1))
    finally:
        set_kernel_fault_hook(None)
    assert len(calls) == 1
    assert obs.metrics.counter("exec.errors.total") == 0


def test_injected_key_fault_degrades_the_tier_instead_of_enumerating_the_product():
    mapping = mapping_of(AB, "a.akey = b.a_id", AB_OUT)
    instance = random_instance(4)
    plan = FaultPlan(seed=3).fault_kernels(tier="block", first=1)
    obs = Observability(stats=True)
    executor = MappingExecutor(obs=obs, compiled=True, on_error="reject")
    with plan.injected():
        targets, rejects, _rows, _edges = executor.run(
            MappingSet([mapping]), instance
        )
    assert targets.dataset("T").rows == reference(mapping, instance)
    assert len(rejects) == 0
    assert obs.metrics.counter("exec.degrade.columnar_to_rows") == 1


# -- the regression guard no clock can blur ------------------------------------


def test_figure_3_join_filters_key_matches_not_the_cross_product():
    mappings = ohm_to_mappings(compile_job(build_example_job()))
    m1 = next(m for m in mappings if len(m.sources) == 2)
    drawn = generate_instance(300, seed=11)
    instance = Instance(
        Dataset(d.relation, d.rows[:660] if d.name == "Accounts" else d.rows)
        for d in drawn
    )
    # the compiled tier's block kernels book the bound
    obs = Observability(stats=True)
    MappingExecutor(obs=obs, compiled=True).execute(
        MappingSet([m1]), instance
    ).dataset(m1.target.name)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["exec.block.join.rows_in"] <= 300 + 660
    assert 0 < counters["exec.block.join.rows_out"] <= 660
    # the filter kernel saw 198 000 rows when the candidates were the
    # cross product; a kernel's counter sums over the graph's operators
    assert max(
        count for name, count in counters.items()
        if name.startswith("exec.block.") and name.endswith(".rows_in")
    ) < 198_000 // 10

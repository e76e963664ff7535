"""The mapping executor's left-deep join against an oracle the plan
cannot reach: a brute-force ``itertools.product`` in the test itself.
``MappingExecutor(compiled=False)`` shares ``_satisfying_rows`` with
every other tier, so it is not an independent reference here."""

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
from repro.exec import ExpressionPlanner, set_kernel_fault_hook
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
from repro.resilience import ErrorContext
from repro.schema import relation
from repro.workloads import build_example_job
from repro.workloads.paper_example import generate_instance

A = relation("A", ("akey", "int"), ("code", "varchar"), ("balance", "float"))
B = relation("B", ("a_id", "float"), ("bkey", "int"), ("code", "varchar"))
C = relation("C", ("b_id", "int"), ("cap", "float"))

PLANNERS = {
    "oracle": lambda: ExpressionPlanner(None, False, mode="rows", fused=False),
    "rows": lambda: ExpressionPlanner(None, True, mode="rows", fused=False),
    "block": lambda: ExpressionPlanner(None, True, mode="block", fused=False),
    "fused": lambda: ExpressionPlanner(None, True, mode="block", fused=True),
    "parallel": lambda: ExpressionPlanner(
        None, True, mode="parallel", workers=2, fused=False
    ),
}


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


OUT_TYPES = {"x": "float", "y": "int", "z": "varchar", "w": "float"}


def mapping_of(sources, where, derivations, **kwargs):
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
        [("x", "a1.balance"), ("y", "a2.balance")], {},
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


@pytest.mark.parametrize("tier", PLANNERS)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", SHAPES)
def test_rows_come_out_in_product_order(shape, seed, tier):
    sources, where, derivations, options = SHAPES[shape]
    mapping = mapping_of(sources, where, derivations)
    instance = random_instance(seed, **options)
    result = MappingExecutor().execute_mapping(
        mapping, instance, planner=PLANNERS[tier]()
    )
    assert result.rows == reference(mapping, instance)


@pytest.mark.parametrize("tier", PLANNERS)
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
    result = MappingExecutor().execute_mapping(
        mapping, instance, planner=PLANNERS[tier]()
    )
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
    mapping = mapping_of(AB, "a.akey = b.a_id AND 10 / b.bkey > 1", AB_OUT)
    instance = _zero_divisor_instance()
    a_rows, b_rows = instance.dataset("A").rows, instance.dataset("B").rows
    ctx = ErrorContext(mapping.name, policy)
    result = MappingExecutor(on_error=policy).execute_mapping(
        mapping, instance, errors=ctx
    )
    assert result.rows == [{"x": 1.0, "y": 5, "z": "Y"}]
    # B's third row divides by zero too, but its key matches nothing
    if policy == "skip":
        assert ctx.skipped == 2 and not ctx.rejected
        return
    assert [r.row for r in ctx.rejected] == [
        {"a": a_rows[0], "b": b_rows[0]},
        {"a": a_rows[1], "b": b_rows[3]},
    ]
    assert {r.error_code for r in ctx.rejected} == {"EvaluationError"}


@pytest.mark.parametrize("policy", ["fail_fast", "reject", "skip"])
def test_key_data_error_abandons_the_join_and_the_where_clause_meets_it(policy):
    """``10 / a.akey`` raises on A's zero key while the join conjunct
    is tested: the product is enumerated instead, as before this plan."""
    mapping = mapping_of(AB, "10 / a.akey = b.a_id", AB_OUT)
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
    obs = Observability(stats=True)
    executor = MappingExecutor(obs=obs, on_error=policy)
    ctx = ErrorContext(mapping.name, policy)
    if policy == "fail_fast":
        with pytest.raises(EvaluationError, match="division by zero"):
            executor.execute_mapping(mapping, instance, errors=ctx)
        return
    result = executor.execute_mapping(mapping, instance, errors=ctx)
    assert result.rows == [
        {"x": 1.0, "y": 1, "z": "X"}, {"x": 3.0, "y": 2, "z": "Y"},
    ]
    # one absorbed error per combination of the poisoned row, by its
    # position in the product
    if policy == "reject":
        assert [r.row_index for r in ctx.rejected] == [2, 3]
    else:
        assert ctx.skipped == 2
    assert obs.metrics.counter("exec.kernel.filter.rows_in") == 6
    assert obs.metrics.counter("exec.kernel.join.rows_in") == 0


@pytest.mark.parametrize(
    "error",
    [FaultInjected("boom"), TransientError("flaky"), MappingError("plan"),
     RunCancelled("stop")],
    ids=lambda e: type(e).__name__,
)
def test_non_data_errors_from_a_join_conjunct_are_not_mistaken_for_bad_rows(error):
    """Infrastructure, static and cancellation errors leave the join
    the way they came — no product fallback, nothing on the reject
    channel — so the tier ladder sees them."""

    calls = []

    def hook(_tier, kind, fn):
        if kind != "predicate":
            return fn

        def raising(env):
            # the first predicate a two-source mapping calls is the
            # join's; were it swallowed, nothing else would raise
            calls.append(env)
            if len(calls) == 1:
                raise error
            return fn(env)

        return raising

    mapping = mapping_of(AB, "a.akey = b.a_id", AB_OUT)
    ctx = ErrorContext(mapping.name, "reject")
    set_kernel_fault_hook(hook)
    try:
        with pytest.raises(type(error)):
            MappingExecutor(on_error="reject").execute_mapping(
                mapping, random_instance(1), errors=ctx
            )
    finally:
        set_kernel_fault_hook(None)
    assert len(calls) == 1 and not ctx.rejected and not ctx.skipped


def test_injected_key_fault_degrades_the_tier_instead_of_enumerating_the_product():
    mapping = mapping_of(AB, "a.akey = b.a_id", AB_OUT)
    instance = random_instance(4)
    # the first compiled closure a two-source mapping calls is the
    # join conjunct
    plan = FaultPlan(seed=3).fault_kernels(tier="compiled", first=1)
    obs = Observability(stats=True)
    executor = MappingExecutor(
        obs=obs, compiled=True, batched=False, on_error="reject"
    )
    with plan.injected():
        targets, _i, rejects = executor.run_with_rejects(
            MappingSet([mapping]), instance
        )
    assert targets.dataset("T").rows == reference(mapping, instance)
    assert len(rejects) == 0
    assert obs.metrics.counter("exec.degrade.rows_to_oracle") == 1


# -- the regression guard no clock can blur ------------------------------------


def test_figure_3_join_filters_key_matches_not_the_cross_product():
    mappings = ohm_to_mappings(compile_job(build_example_job()))
    m1 = next(m for m in mappings if len(m.sources) == 2)
    drawn = generate_instance(300, seed=11)
    instance = Instance(
        Dataset(d.relation, d.rows[:660] if d.name == "Accounts" else d.rows)
        for d in drawn
    )
    obs = Observability(stats=True)
    MappingExecutor(obs=obs).execute_mapping(m1, instance)
    counter = obs.metrics.counter
    assert counter("exec.kernel.join.rows_in") == 300 + 660
    assert counter("exec.kernel.join.rows_out") <= 660
    # 198 000 when the candidates were the cross product
    assert counter("exec.kernel.filter.rows_in") == counter(
        "exec.kernel.join.rows_out"
    )

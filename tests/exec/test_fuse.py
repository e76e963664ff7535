"""Parity audit for the compiled tier's fused (selection-vector) chains.

Fusion must be invisible: for every runtime (ETL engine, OHM executor,
mapping executor), under the skip and reject row policies, a fused run
must produce byte-identical accepted rows and the identical rejected
multiset as the unfused oracle (``compiled=False``) — including NULL
three-valued logic and rows erroring mid-chain. Randomized linear chains
(length 1–6, NULL-heavy data, optional non-fusable breakers mid-chain)
stress the chain compiler beyond the fixed workloads, and a faulted
fused chain must fall back to its operator's row body with the oracle's
output (``exec.degrade.columnar_to_rows``).
"""

import random
from collections import Counter

import pytest

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.etl import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import (
    AggregatorStage,
    CopyStage,
    FilterOutput,
    FilterStage,
    Modify,
    RemoveDuplicatesStage,
    SortStage,
    SwitchStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.stages.transform import OutputLink
from repro.exec.fuse import FusedBlock, fuse_source, materialize_fused
from repro.faults import FaultPlan
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.ohm.subtypes import reset_keygen_sequences
from repro.resilience import format_row
from repro.schema.model import relation
from repro.workloads import (
    build_example_job,
    build_faulty_job,
    build_kitchen_sink_job,
    generate_faulty_instance,
    generate_instance,
    generate_kitchen_sink_instance,
)


# -- the three runtimes, fused and the oracle ---------------------------------


def run_etl(instance, policy, **tier):
    engine = EtlEngine(on_error=policy, **tier)
    targets, _ = engine.run(build_faulty_job(), instance)
    accepted = Counter(format_row(r) for r in targets.dataset("Premium").rows)
    rejected = Counter(format_row(r.row) for r in engine.last_run.rejected)
    return accepted, rejected


def run_ohm(instance, policy, **tier):
    graph = compile_job(build_faulty_job())
    executor = OhmExecutor(on_error=policy, **tier)
    targets, _edges, rejects = executor.run_with_rejects(graph, instance)
    accepted = Counter(format_row(r) for r in targets.dataset("Premium").rows)
    rejected = Counter(r["row"] for r in rejects.rows)
    return accepted, rejected


def run_mapping(instance, policy, **tier):
    mappings = ohm_to_mappings(compile_job(build_faulty_job()))
    executor = MappingExecutor(on_error=policy, **tier)
    targets, _inter, rejects = executor.run_with_rejects(mappings, instance)
    accepted = Counter(format_row(r) for r in targets.dataset("Premium").rows)
    rejected = Counter(r["row"] for r in rejects.rows)
    return accepted, rejected


RUNTIMES = [("etl", run_etl), ("ohm", run_ohm), ("mapping", run_mapping)]


class TestFusedUnfusedParity:
    """accepted AND rejected multisets must be invariant under fusion,
    per runtime, for both absorbing policies. The ``parallel`` cases
    build the fused engine with the retired wavefront keywords, which
    must change nothing."""

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("runtime", RUNTIMES, ids=lambda r: r[0])
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "parallel"])
    @pytest.mark.parametrize("policy", ["skip", "reject"])
    def test_matches_unfused(self, runtime, workers, policy):
        name, runner = runtime
        instance, _plan = generate_faulty_instance(n=60, seed=21, poison=7)
        retired = {} if workers is None else dict(mode="parallel", workers=workers)
        unfused = runner(instance, policy, compiled=False)
        fused = runner(instance, policy, compiled=True, **retired)
        assert fused == unfused, (
            f"{name} diverged under fusion "
            f"(workers={workers}, policy={policy})"
        )

    def test_reject_channel_carries_the_poison(self):
        # guard against vacuous parity: the workload really rejects
        instance, _plan = generate_faulty_instance(n=60, seed=21, poison=7)
        _accepted, rejected = run_etl(instance, "reject")
        assert sum(rejected.values()) == 7


# -- one body, two tiers ------------------------------------------------------


def run_tier(runtime, job, instance, **tier):
    """``job`` on ``runtime`` at ``tier`` under the reject policy:
    accepted bags by target, the reject multiset, every link's dataset
    and the run's counters."""
    obs = Observability(stats=True)
    reset_keygen_sequences()
    if runtime == "etl":
        engine = EtlEngine(obs=obs, on_error="reject", **tier)
        targets, links = engine.run(job, instance)
        rejected = Counter(format_row(r.row) for r in engine.last_run.rejected)
    else:
        graph = compile_job(job)
        if runtime == "ohm":
            executor, plan = OhmExecutor, graph
        else:
            executor, plan = MappingExecutor, ohm_to_mappings(graph)
        targets, links, rejects = executor(
            obs=obs, on_error="reject", **tier
        ).run_with_rejects(plan, instance)
        rejected = Counter(r["row"] for r in rejects.rows)
    accepted = {
        name: Counter(format_row(r) for r in targets.dataset(name).rows)
        for name in targets.names
    }
    return accepted, rejected, links, obs.metrics.snapshot()["counters"]


WORKLOADS = {
    "sink": (
        build_kitchen_sink_job,
        lambda: generate_kitchen_sink_instance(n_orders=150),
    ),
    "example": (build_example_job, lambda: generate_instance(n_customers=60)),
}


class TestOneBodyTwoTiers:
    """The compiled tier's chains and the oracle's row kernels: same
    rows, same rejects; only the compiled run fuses or runs a block
    kernel, and no oracle link carries a chain."""

    @pytest.mark.parametrize("runtime", ["etl", "ohm", "mapping"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_fused_and_oracle_agree(self, workload, runtime):
        build, generate = WORKLOADS[workload]
        job, instance = build(), generate()
        fused = run_tier(runtime, job, instance, compiled=True)
        oracle = run_tier(runtime, job, instance, compiled=False)
        assert fused[:2] == oracle[:2]
        assert any(k.startswith("exec.fuse.") for k in fused[3])
        assert not any(
            k.startswith(("exec.fuse.", "exec.block.")) for k in oracle[3]
        )
        assert all(d.peek_fused() is None for d in oracle[2].values())


class TestOneBodyThreeTiers:
    """The three tier spellings the benchmark harness still passes —
    the default, ``fused=False`` (once the gathered block tier) and
    ``compiled=False`` — leave two tiers, and the first two are one
    body: a compiled engine given the retired ``fused=False`` fires the
    same fault labels as the default one."""

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize(
        "retired", [{}, {"fused": False}], ids=["fused", "block"]
    )
    def test_fault_labels_follow_the_tier(self, retired):
        # a chain body's column functions are labelled "block", and a
        # clean compiled run calls no "rows" closure
        instance, _plan = generate_faulty_instance(n=40, seed=34)

        def fired(tier):
            plan = FaultPlan(seed=34).fault_kernels(tier=tier, first=1)
            engine = EtlEngine(compiled=True, **retired)
            with plan.injected():
                engine.run(build_faulty_job(), instance)
            return plan.kernel_faults_fired.get(tier, 0)

        assert fired("block") == 1
        assert fired("rows") == 0
        with pytest.raises(ValueError, match="unknown tier"):
            FaultPlan().fault_kernels(tier="fused", first=1)


# -- randomized chains --------------------------------------------------------


def _chain_schema():
    return relation(
        "Orders",
        ("orderID", "int", False),
        ("customerID", "int"),
        ("region", "varchar"),
        ("amount", "float"),
        ("status", "varchar"),
    )


def _chain_instance(rng, n=120):
    """NULL-heavy synthetic orders: every nullable column goes NULL
    often, and some amounts are exactly zero so division derivations
    error under a row policy."""
    orders = _chain_schema()
    data = Dataset(orders)
    for order_id in range(1, n + 1):
        data.append(
            {
                "orderID": order_id,
                "customerID": (
                    None if rng.random() < 0.2 else rng.randint(1, 30)
                ),
                "region": (
                    None
                    if rng.random() < 0.25
                    else rng.choice(["EU", "US", "APAC"])
                ),
                "amount": (
                    None
                    if rng.random() < 0.25
                    else 0.0
                    if rng.random() < 0.1
                    else round(rng.uniform(-100, 1500), 2)
                ),
                "status": (
                    None if rng.random() < 0.2 else rng.choice(["ok", "X"])
                ),
            }
        )
    instance = Instance()
    instance.put(data)
    return instance


_ALL_COLUMNS = ["orderID", "customerID", "region", "amount", "status"]

_PREDICATES = [
    "amount > 100",
    "region = 'EU' OR region = 'US'",
    "status <> 'X'",
    "amount IS NOT NULL",
    "amount > 100 OR customerID < 10",
]


def _passthrough(except_for=None):
    derivations = [(c, c) for c in _ALL_COLUMNS]
    if except_for:
        derivations = [
            (c, except_for.get(c, c)) for c, _ in derivations
        ]
    return derivations


def _random_stage(rng, i):
    """One schema-preserving link of a random chain."""
    kind = rng.choice(["filter", "transform", "sort", "dedup", "copy"])
    name = f"s{i}_{kind}"
    if kind == "filter":
        return FilterStage(
            [FilterOutput(rng.choice(_PREDICATES))], name=name
        )
    if kind == "transform":
        amount = rng.choice(
            [
                "amount * 2",
                "CASE WHEN amount > 500 THEN amount ELSE 0 END",
                "1000.0 / amount",  # errors on the zero amounts
                "amount",
            ]
        )
        return Transformer(
            [OutputLink(_passthrough({"amount": amount}))],
            stage_variables=(
                [("doubled", "amount * 2")] if rng.random() < 0.5 else []
            ),
            name=name,
        )
    if kind == "sort":
        key = rng.choice(["orderID", "amount", "region"])
        return SortStage([(key, rng.choice(["asc", "desc"]))], name=name)
    if kind == "dedup":
        key = rng.choice(["customerID", "region", "status"])
        return RemoveDuplicatesStage(
            [key], retain=rng.choice(["first", "last"]), name=name
        )
    return CopyStage(name=name)


def build_chain_job(rng):
    """A linear source → N fusable stages → target job, N ∈ [1, 6],
    with a non-fusable breaker (Modify) spliced mid-chain half the time
    and an Aggregator terminal a third of the time."""
    orders = _chain_schema()
    job = Job("random-chain")
    src = job.add(TableSource(orders, name="Orders"))
    previous = src
    n_stages = rng.randint(1, 6)
    breaker_at = rng.randrange(n_stages) if rng.random() < 0.5 else None
    for i in range(n_stages):
        if i == breaker_at:
            breaker = job.add(Modify(keep=_ALL_COLUMNS, name=f"s{i}_break"))
            job.link(previous, breaker)
            previous = breaker
            continue
        stage = job.add(_random_stage(rng, i))
        job.link(previous, stage)
        previous = stage
    if rng.random() < 0.33:
        rollup = job.add(
            AggregatorStage(
                ["region"],
                [("total", "sum", "amount"), ("n", "count", None)],
                name="rollup",
            )
        )
        job.link(previous, rollup)
        previous = rollup
        out = relation(
            "Out", ("region", "varchar"), ("total", "float"), ("n", "int")
        )
    else:
        out = orders.renamed("Out")
    target = job.add(TableTarget(out, name="Out"))
    job.link(previous, target)
    return job


class TestRandomizedChains:
    """Byte-identical target rows (exact order, not just bags) and
    identical reject multisets across dozens of random chains."""

    @pytest.mark.parametrize("seed", range(12))
    def test_fused_matches_unfused_exactly(self, seed):
        rng = random.Random(seed)
        job = build_chain_job(rng)
        instance = _chain_instance(random.Random(seed + 1000))
        policy = "reject" if seed % 2 else "skip"

        def run(compiled):
            engine = EtlEngine(compiled=compiled, on_error=policy)
            targets, _ = engine.run(job, instance)
            rejected = Counter(
                format_row(r.row) for r in engine.last_run.rejected
            )
            return targets.dataset("Out").rows, rejected

        unfused_rows, unfused_rejects = run(False)
        fused_rows, fused_rejects = run(True)
        assert fused_rows == unfused_rows, f"seed={seed} rows diverged"
        assert fused_rejects == unfused_rejects, f"seed={seed} rejects"

    def test_chains_actually_fuse(self):
        # guard against vacuous parity: a breaker-free chain must build
        # at least one multi-operator chain and skip intermediates
        rng = random.Random(3)
        job = build_chain_job(rng)
        instance = _chain_instance(random.Random(1003))
        obs = Observability(stats=True)
        EtlEngine(obs=obs, compiled=True, on_error="skip").run(job, instance)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("exec.fuse.chains", 0) >= 1
        assert counters.get("exec.fuse.operators", 0) >= 1


# -- degradation --------------------------------------------------------------


class TestFusedDegradation:
    """A faulted fused chain falls back to its operator's row body — the
    oracle's evaluator closures and row kernels — with the oracle's
    output, counted in ``exec.degrade.columnar_to_rows``."""

    def test_fused_fault_falls_back_to_oracle(self):
        instance, _plan = generate_faulty_instance(n=40, seed=31)
        baseline_engine = EtlEngine(compiled=False)
        baseline, _ = baseline_engine.run(build_faulty_job(), instance)
        plan = FaultPlan(seed=31).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, compiled=True)
        with plan.injected():
            targets, _ = engine.run(build_faulty_job(), instance)
        assert plan.kernel_faults_fired.get("block", 0) == 1
        assert sorted(
            map(format_row, targets.dataset("Premium").rows)
        ) == sorted(map(format_row, baseline.dataset("Premium").rows))
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("exec.degrade.columnar_to_rows", 0) == 1

    def test_block_fault_does_not_hit_the_fused_tier_twice(self):
        # a row body runs no column function, so a "block" plan that
        # never runs out fails each columnar body once and its row body
        # carries the operator: one fallback per faulted body
        instance, _plan = generate_faulty_instance(n=40, seed=32)
        plan = FaultPlan(seed=32).fault_kernels(tier="block", first=100)
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, compiled=True)
        with plan.injected():
            engine.run(build_faulty_job(), instance)
        counters = obs.metrics.snapshot()["counters"]
        degraded = {k: v for k, v in counters.items() if k.startswith("exec.degrade.")}
        assert set(degraded) == {"exec.degrade.columnar_to_rows"}
        assert degraded["exec.degrade.columnar_to_rows"] == plan.kernel_faults_fired["block"]


# -- metrics and laziness -----------------------------------------------------


class TestFusedObservability:
    def test_fused_metrics_present_only_when_fusing(self):
        instance, _plan = generate_faulty_instance(n=40, seed=33)
        for fused in (True, False):  # the oracle never fuses
            obs = Observability(stats=True)
            EtlEngine(obs=obs, compiled=fused).run(build_faulty_job(), instance)
            counters = obs.metrics.snapshot()["counters"]
            fuse_counters = {
                k: v for k, v in counters.items() if k.startswith("exec.fuse.")
            }
            if fused:
                assert fuse_counters.get("exec.fuse.chains", 0) >= 1
                assert fuse_counters.get("exec.fuse.operators", 0) >= 1
                assert (
                    fuse_counters.get(
                        "exec.fuse.intermediate_rows_avoided", 0
                    )
                    > 0
                )
            else:
                assert fuse_counters == {}


class TestSelectionVectorLaziness:
    """Unit-level guarantees of the FusedBlock container itself."""

    def _block(self):
        from repro.exec.block import RowBlock

        return RowBlock(
            {
                "a": [1, 2, 3, 4],
                "b": ["w", "x", "y", "z"],
                "dead": [10, 20, 30, 40],
            },
            4,
        )

    def test_narrow_never_copies_columns(self):
        chain = fuse_source(self._block())
        child = chain.narrow([1, 3])
        assert isinstance(child, FusedBlock)
        assert child.length == 2
        # handles still point at the base columns — nothing gathered
        assert all(isinstance(h, str) for h in child.handles.values())
        assert child.column("a") == [2, 4]

    def test_dead_columns_are_never_gathered(self):
        chain = fuse_source(self._block()).narrow([0, 2])
        out = materialize_fused(chain, names=["a", "b"])
        assert out.columns == {"a": [1, 3], "b": ["w", "y"]}
        # the dead column was pruned before the gather
        assert "dead" not in out.columns

    def test_fill_missing_broadcasts_null(self):
        chain = fuse_source(self._block()).narrow([0, 1])
        out = materialize_fused(
            chain, names=["a", "extra"], fill_missing=True
        )
        assert out.columns == {"a": [1, 2], "extra": [None, None]}

    def test_project_renames_without_gathering(self):
        chain = fuse_source(self._block())
        renamed = chain.project([("left", "a"), ("right", "b")])
        assert sorted(renamed.names) == ["left", "right"]
        assert renamed.column("left") == [1, 2, 3, 4]

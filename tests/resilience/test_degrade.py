"""The one fallback at run time: a compiled operator whose columnar body
fails reruns once on its own row body (``repro.exec.ops.
columnar_or_rows``) — the evaluator's closures over the row kernels,
which share no column lowering with it. A kernel fault never changes
results — it only shows up in ``exec.degrade.columnar_to_rows``.

A "block" fault plan fires in every columnar body, and the operator
falls back; a "rows" fault fires in a row body, and the run fails with
it. A bad row is not a fault: it books nothing under any policy."""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro import config
from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.errors import (
    EvaluationError,
    ExecutionError,
    FaultInjected,
    RunCancelled,
    SchemaError,
)
from repro.etl import EtlEngine, Job
from repro.etl.stages import (
    CustomStage,
    FilterStage,
    LookupStage,
    SwitchStage,
    TableSource,
    TableTarget,
)
from repro.exec import kernel_fault_hook, set_kernel_fault_hook
from repro.faults import FaultPlan
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    ohm_to_mappings,
)
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import Group, Source, Target, Unknown
from repro.resilience import ErrorContext, format_row
from repro.schema import relation
from repro.workloads import (
    build_example_job,
    build_faulty_job,
    build_kitchen_sink_job,
    generate_faulty_instance,
    generate_instance,
    generate_kitchen_sink_instance,
    orders_schema,
)


pytestmark = pytest.mark.filterwarnings(
    "ignore:.*execution tier that is gone:DeprecationWarning"
)


def _premium_rows(targets):
    return sorted(map(format_row, targets.dataset("Premium").rows))


def degraded(obs):
    """The run's ``exec.degrade.*`` counters."""
    counters = obs.metrics.snapshot().get("counters", {})
    return {k: v for k, v in counters.items() if k.startswith("exec.degrade.")}


@pytest.fixture
def instance():
    instance, _plan = generate_faulty_instance(n=40, seed=13)
    return instance


@pytest.fixture
def baseline(instance):
    targets, _ = EtlEngine().run(build_faulty_job(), instance)
    return _premium_rows(targets)


# -- the three runtimes behind one call ----------------------------------------
#
# ``run(job, instance, **options)`` builds the runtime from engine
# keywords, runs ``job`` (translated to the runtime's own representation)
# and returns ``(targets, rejected rows)``, the latter in the shared
# :func:`format_row` form.


def run_etl(job, instance, **options):
    engine = EtlEngine(**options)
    targets, _ = engine.run(job, instance)
    return targets, sorted(format_row(r.row) for r in engine.last_run.rejected)


def run_ohm(job, instance, **options):
    targets, _edges, rejects = OhmExecutor(**options).run_with_rejects(
        compile_job(job), instance
    )
    return targets, sorted(r["row"] for r in rejects.rows)


def run_mapping(job, instance, **options):
    targets, _inter, rejects = MappingExecutor(**options).run_with_rejects(
        ohm_to_mappings(compile_job(job)), instance
    )
    return targets, sorted(r["row"] for r in rejects.rows)


def routing_job(stage, outputs):
    """Orders → ``stage`` → one Orders-shaped target per output name."""
    job = Job(f"routing_{stage.STAGE_TYPE}")
    source = job.add(TableSource(orders_schema()))
    job.add(stage)
    job.link(source, stage, name="orders")
    for port, name in enumerate(outputs):
        target = job.add(TableTarget(orders_schema().renamed(name)))
        job.link(stage, target, src_port=port, name=name.lower())
    return job


#: a job per shared body a poisoned row (``qty = 0``) fails inside: the
#: Transformer's derivations (PROJECT), a Switch selector (SPLIT +
#: FILTERs on the hub), a Filter predicate (FILTER)
BAD_ROW_JOBS = {
    "derive": build_faulty_job,
    "switch": lambda: routing_job(
        SwitchStage("10 / qty", cases=[10, 5], has_default=True, name="ByUnit"),
        ["Ten", "Five", "Other"],
    ),
    "route": lambda: routing_job(
        FilterStage.single("price / qty > 50", name="Expensive"), ["Expensive"]
    ),
}


@contextmanager
def kernels_raising(make_error, calls):
    """Every planner-lowered closure raises ``make_error()``; ``calls``
    collects the tier of each invocation."""

    def hook(tier, kind, fn):
        def raising(*args, **kwargs):
            calls.append(tier)
            raise make_error()

        return raising

    set_kernel_fault_hook(hook)
    try:
        yield
    finally:
        set_kernel_fault_hook(None)


class RuntimeContract:
    """What the one fallback promises under every runtime — so one
    suite, bound to a runtime by each subclass."""

    run = None  # staticmethod: run_etl / run_ohm / run_mapping

    def premium(self, instance, **options):
        """The faulty workload's accepted and rejected rows."""
        targets, rejects = self.run(build_faulty_job(), instance, **options)
        return _premium_rows(targets), rejects

    def test_block_fault_degrades_to_row_kernels(self, instance, baseline):
        # the row body the columnar one falls to runs the oracle's closures
        plan = FaultPlan(seed=1).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            rows, _ = self.premium(instance, obs=obs, compiled=True)
        assert rows == baseline
        assert degraded(obs) == {"exec.degrade.columnar_to_rows": 1}
        assert plan.kernel_faults_fired.get("block", 0) == 1

    @pytest.mark.parametrize("policy", ["fail_fast", "reject"])
    def test_rows_fault_surfaces_and_is_never_rejected(self, policy):
        """A row body has nothing beneath it: a fault there is the run's
        error, under a policy too — never one more rejected row."""
        poisoned, _ = generate_faulty_instance(n=40, seed=13, poison=4)
        plan = FaultPlan(seed=2).fault_kernels(tier="rows", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            with pytest.raises(FaultInjected):
                self.premium(poisoned, obs=obs, compiled=True, on_error=policy)
        assert plan.kernel_faults_fired.get("rows", 0) == 1
        assert not degraded(obs)
        assert obs.metrics.counter("exec.errors.total") == 0

    def test_batched_engine_falls_all_the_way_to_oracle(
        self, instance, baseline
    ):
        # every columnar body faults, and every operator is carried by
        # its row body: one fallback each, no other counter
        plan = FaultPlan(seed=3).fault_kernels(tier="block", first=100)
        obs = Observability(stats=True)
        with plan.injected():
            rows, _ = self.premium(instance, obs=obs, compiled=True)
        assert rows == baseline
        assert degraded(obs) == {
            "exec.degrade.columnar_to_rows": plan.kernel_faults_fired["block"]
        }

    def test_all_tiers_faulted_surfaces_the_error(self, instance):
        plan = (
            FaultPlan(seed=4)
            .fault_kernels(tier="block", first=100)
            .fault_kernels(tier="rows", first=100)
        )
        with plan.injected():
            with pytest.raises(FaultInjected):
                self.premium(instance, compiled=True)

    def test_degrade_disabled_surfaces_the_first_fault(self, instance):
        # the fallback cannot be switched off: ``degrade`` is no keyword
        with pytest.raises(TypeError, match="degrade"):
            self.premium(instance, compiled=True, degrade=False)

    def test_degraded_run_with_rejects_keeps_parity(self, instance):
        poisoned, _ = generate_faulty_instance(n=40, seed=13, poison=4)
        clean_rows, clean_rejects = self.premium(poisoned, on_error="reject")
        assert len(clean_rejects) == 4
        plan = FaultPlan(seed=6).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            rows, rejects = self.premium(
                poisoned, obs=obs, compiled=True, on_error="reject"
            )
        assert rows == clean_rows
        assert rejects == clean_rejects
        # an injected fault books its fallback, bad rows or not
        assert degraded(obs) == {"exec.degrade.columnar_to_rows": 1}

    @pytest.mark.parametrize(
        "tier", [{}, dict(compiled=False)], ids=["default", "oracle"]
    )
    @pytest.mark.parametrize("job", BAD_ROW_JOBS)
    def test_row_errors_under_a_policy_are_rejected_not_degraded(
        self, job, tier
    ):
        """A bad row is not a tier failure: a columnar body that trips on
        one reruns on its own row body, where the policy takes exactly
        the bad rows — and nothing degrades."""
        poisoned, _ = generate_faulty_instance(n=40, seed=13, poison=4)
        build = BAD_ROW_JOBS[job]
        expected, expected_rejects = self.run(
            build(), poisoned, on_error="reject", compiled=False
        )
        assert len(set(expected_rejects)) == 4
        obs = Observability(stats=True)
        targets, rejects = self.run(
            build(), poisoned, obs=obs, on_error="reject", **tier
        )
        assert targets.same_bags(expected)
        assert rejects == expected_rejects
        assert not degraded(obs)

    @pytest.mark.parametrize(
        "tier", [{}, dict(compiled=False)], ids=["default", "oracle"]
    )
    @pytest.mark.parametrize("job", BAD_ROW_JOBS)
    def test_fail_fast_bad_row_raises_once(self, job, tier):
        """Regression: under ``fail_fast`` a bad row booked a degrade and
        ran its stage a second time, on the oracle. Now the row body
        raises the data error, and nothing degrades."""
        poisoned, _ = generate_faulty_instance(n=40, seed=13, poison=4)
        obs = Observability(stats=True)
        with pytest.raises(EvaluationError, match="division by zero"):
            self.run(BAD_ROW_JOBS[job](), poisoned, obs=obs, **tier)
        assert not degraded(obs)

    def test_rungs_pin_their_tier_under_a_process_default_mode(
        self, instance, baseline
    ):
        """Regression: a planner built without an explicit tier re-read
        the process default. The row body runs at the run's planner, so
        under ``overriding(compiled=True)`` a run whose every columnar
        body fails falls back exactly as without the override."""
        def faulted(**options):
            plan = FaultPlan(seed=7).fault_kernels(tier="block", first=10**6)
            obs = Observability(stats=True)
            with plan.injected():
                rows, _ = self.premium(instance, obs=obs, **options)
            assert rows == baseline
            assert set(degraded(obs)) == {"exec.degrade.columnar_to_rows"}
            return obs.metrics.counter("exec.degrade.columnar_to_rows")

        expected = faulted(compiled=True)
        assert expected >= 1
        with config.overriding(compiled=True):
            assert faulted() == expected  # once per faulted body, not twice

    @pytest.mark.parametrize(
        "make_error",
        [
            lambda: SchemaError("planted plan defect"),
            lambda: RunCancelled("planted cancel", reason="cancelled"),
        ],
        ids=["static-error", "run-cancelled"],
    )
    def test_plan_defects_and_cancellation_never_degrade(
        self, instance, make_error
    ):
        calls = []
        obs = Observability(stats=True)
        with kernels_raising(make_error, calls):
            with pytest.raises(type(make_error()), match="planted"):
                self.premium(instance, obs=obs, compiled=True)
        assert calls == ["block"]  # the first columnar kernel, nothing after
        assert not degraded(obs)


class TestEtlDegrade(RuntimeContract):
    run = staticmethod(run_etl)


class TestOhmDegrade(RuntimeContract):
    run = staticmethod(run_ohm)


class TestMappingDegrade(RuntimeContract):
    run = staticmethod(run_mapping)


class TestInfrastructureErrorsAreNotAbsorbed:
    """Regression: an injected kernel fault under policy=reject must
    never masquerade as per-row data errors on the reject channel: in a
    columnar body it falls back to the row body, whose policy takes the
    real bad rows; in a row body it fails the run."""

    def test_kernel_faults_do_not_leak_onto_the_reject_channel(self):
        poisoned, plan = generate_faulty_instance(n=40, seed=15, poison=4)
        clean_engine = EtlEngine(compiled=False, on_error="reject")
        clean, _ = clean_engine.run(build_faulty_job(), poisoned)
        clean_rejects = sorted(
            format_row(r.row) for r in clean_engine.last_run.rejected
        )
        block = FaultPlan(seed=15).fault_kernels(tier="block", rate=0.5)
        engine = EtlEngine(compiled=True, on_error="reject")
        with block.injected():
            targets, _ = engine.run(build_faulty_job(), poisoned)
        assert _premium_rows(targets) == _premium_rows(clean)
        rejects = engine.last_run.rejected
        assert sorted(format_row(r.row) for r in rejects) == clean_rejects
        assert all(r.error_code != "FaultInjected" for r in rejects)
        rows = FaultPlan(seed=15).fault_kernels(tier="rows", rate=0.5)
        with rows.injected():
            with pytest.raises(FaultInjected):
                EtlEngine(compiled=True, on_error="reject").run(
                    build_faulty_job(), poisoned
                )


class TestOhmAndMappingDegrade:
    def test_ohm_block_fault_degrades(self, instance, baseline):
        graph = compile_job(build_faulty_job())
        plan = FaultPlan(seed=7).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        executor = OhmExecutor(obs=obs, compiled=True)
        with plan.injected():
            targets, _ = executor.run(graph, instance)
        assert _premium_rows(targets) == baseline
        assert degraded(obs) == {"exec.degrade.columnar_to_rows": 1}

    def test_ohm_degrade_disabled_surfaces_the_fault(self):
        # nothing to disable: ``degrade`` is an unknown keyword
        for runtime in (OhmExecutor, MappingExecutor, EtlEngine):
            with pytest.raises(TypeError, match="degrade"):
                runtime(compiled=True, degrade=False)


#: the tiers the satellite contracts below hold at: ``gathered`` is the
#: retired gathered tier's keyword set, dropped (with a warning) onto the
#: compiled tier; ``rows`` is the oracle's row kernels
TIERS = {
    "default": {},
    "gathered": dict(batched=True, fused=False),
    "rows": dict(compiled=False),
    "oracle": dict(compiled=False),
}


class TestOpaqueNodesBypassTheLadder:
    """SOURCE, UNKNOWN and an ETL ``Custom`` stage have no columnar body
    to fall from: a raising opaque body runs exactly once at every tier
    and books no fallback."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("runtime", ["ohm", "mapping"])
    def test_a_raising_unknown_runs_once(self, runtime, tier):
        calls = []

        def body(inputs):
            calls.append(len(inputs))
            raise RuntimeError("opaque body failed")

        orders = orders_schema()
        if runtime == "ohm":
            graph = OhmGraph()
            source = graph.add(Source(orders))
            box = graph.add(Unknown([orders.renamed("Boxed")], "box", executor=body))
            target = graph.add(Target(orders.renamed("Out")))
            graph.chain(source, box, target)
            runner, plan = OhmExecutor, graph
        else:
            plan = MappingSet([
                Mapping(
                    [SourceBinding("o", orders)], orders.renamed("Out"), [],
                    reference="box", executor=body,
                )
            ])
            runner = MappingExecutor
        instance, _ = generate_faulty_instance(n=10, seed=3)
        obs = Observability(stats=True)
        with pytest.raises(RuntimeError, match="opaque body failed"):
            runner(obs=obs, **TIERS[tier]).run(plan, instance)
        assert calls == [1]
        assert not degraded(obs)

    @pytest.mark.parametrize("tier", TIERS)
    def test_a_raising_custom_stage_runs_once(self, tier):
        calls = []

        def body(inputs):
            calls.append(len(inputs))
            raise RuntimeError("custom body failed")

        job = Job("custom")
        source = job.add(TableSource(orders_schema()))
        custom = job.add(
            CustomStage([orders_schema().renamed("Boxed")], implementation=body)
        )
        target = job.add(TableTarget(orders_schema().renamed("Out")))
        job.chain(source, custom, target)
        instance, _ = generate_faulty_instance(n=10, seed=3)
        obs = Observability(stats=True)
        with pytest.raises(RuntimeError, match="custom body failed"):
            EtlEngine(obs=obs, **TIERS[tier]).run(job, instance)
        assert calls == [1]
        assert not degraded(obs)

    def test_a_missing_source_relation_fails_once(self):
        graph = compile_job(build_faulty_job())
        obs = Observability(stats=True)
        with pytest.raises(ExecutionError, match="not present"):
            OhmExecutor(obs=obs).run(graph, Instance())
        assert not degraded(obs)


class TestGroupAggregatesAbsorbRowErrors:
    """A bad aggregate argument is a row error: under skip/reject GROUP
    hands the row to the policy before grouping — the same bag as
    rejecting it upstream, the same reject multiset at every tier, no
    degradation — and under ``fail_fast`` it still raises."""

    TOTALS = relation(
        "Totals", ("region", "varchar"), ("total", "float"), ("n", "int")
    )

    @staticmethod
    def poisoned():
        """Orders with ``qty = 0`` on every EMEA row and on one other:
        the EMEA group loses every member."""
        clean, _ = generate_faulty_instance(n=30, seed=13)
        rows = [dict(r) for r in clean.dataset("Orders").rows]
        for row in rows:
            if row["region"] == "EMEA":
                row["qty"] = 0
        rows[0]["qty"] = 0
        return rows

    def plan(self, runtime):
        orders = orders_schema()
        if runtime == "ohm":
            graph = OhmGraph()
            source = graph.add(Source(orders))
            group = graph.add(
                Group(["region"], [("total", "SUM(price / qty)"), ("n", "COUNT(*)")])
            )
            target = graph.add(Target(self.TOTALS))
            graph.chain(source, group, target)
            return graph
        return MappingSet([
            Mapping(
                [SourceBinding("o", orders)],
                self.TOTALS,
                [
                    ("region", "o.region"),
                    ("total", "SUM(o.price / o.qty)"),
                    ("n", "COUNT(*)"),
                ],
                group_by=["o.region"],
            )
        ])

    def run(self, runtime, rows, obs=None, **options):
        runner = OhmExecutor if runtime == "ohm" else MappingExecutor
        instance = Instance([Dataset(orders_schema(), rows)])
        obs = obs or Observability(stats=True)
        targets, _edges, rejects = runner(obs=obs, **options).run_with_rejects(
            self.plan(runtime), instance
        )
        rejected = Counter((r["error_code"], r["row"]) for r in rejects.rows)
        return targets.dataset("Totals"), rejected, obs

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("runtime", ["ohm", "mapping"])
    def test_bad_rows_are_rejected_before_grouping(self, runtime, tier):
        rows = self.poisoned()
        bad = [r for r in rows if r["qty"] == 0]
        upstream, none_rejected, _ = self.run(
            runtime, [r for r in rows if r["qty"] != 0], compiled=False
        )
        assert not none_rejected
        totals, rejected, obs = self.run(
            runtime, rows, on_error="reject", **TIERS[tier]
        )
        assert totals.same_bag(upstream)
        assert "EMEA" not in totals.column("region")
        assert rejected == Counter(
            ("EvaluationError", format_row(r)) for r in bad
        )
        assert not degraded(obs)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("runtime", ["ohm", "mapping"])
    def test_fail_fast_still_raises(self, runtime, tier):
        obs = Observability(stats=True)
        with pytest.raises(EvaluationError, match="division by zero"):
            self.run(runtime, self.poisoned(), obs=obs, **TIERS[tier])
        assert not degraded(obs)


class TestNothingDegradesWithoutAFault:
    """Outside the fault harness no columnar body falls back: a clean
    run books no ``exec.degrade.*`` on any workload, runtime or tier."""

    WORKLOADS = {
        "kitchen-sink": (
            build_kitchen_sink_job,
            lambda: generate_kitchen_sink_instance(n_orders=60),
        ),
        "example": (build_example_job, lambda: generate_instance(n_customers=40)),
        "faulty": (
            build_faulty_job, lambda: generate_faulty_instance(n=40, seed=13)[0]
        ),
    }

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("runtime", [run_etl, run_ohm, run_mapping],
                             ids=["etl", "ohm", "mapping"])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_clean_runs_never_degrade(self, workload, runtime, tier):
        build, generate = self.WORKLOADS[workload]
        assert kernel_fault_hook() is None
        obs = Observability(stats=True)
        targets, _rejects = runtime(build(), generate(), obs=obs, **TIERS[tier])
        assert sum(len(d) for d in targets) > 0
        assert not degraded(obs)


class TestLookupFailIsNotARowError:
    """``LookupStage(on_failure="fail")`` on an unmatched key raises a
    deliberate ``ExecutionError``: the stage's configured response, not
    a bad row. It surfaces once, books no fallback, and no policy takes
    it onto the reject channel."""

    REF = relation("Ref", ("key", "int", False), ("label", "varchar"))

    def job(self):
        job = Job("lookup_fail")
        stream = job.add(TableSource(orders_schema()))
        reference = job.add(TableSource(self.REF))
        lookup = job.add(
            LookupStage([("orderID", "key")], on_failure="fail", name="Enrich")
        )
        target = job.add(
            TableTarget(
                relation(
                    "Out", *[(a.name, a.dtype, a.nullable) for a in orders_schema()],
                    ("label", "varchar"),
                )
            )
        )
        job.link(stream, lookup, name="orders")
        job.link(reference, lookup, name="ref", dst_port=1)
        job.link(lookup, target, name="out")
        return job

    @pytest.mark.parametrize("policy", ["fail_fast", "reject"])
    @pytest.mark.parametrize("tier", TIERS)
    def test_an_unmatched_key_raises_once(self, tier, policy, monkeypatch):
        orders, _ = generate_faulty_instance(n=10, seed=3)
        instance = Instance(
            [orders.dataset("Orders"), Dataset(self.REF, [{"key": 1, "label": "a"}])]
        )
        recorded = []
        monkeypatch.setattr(
            ErrorContext, "record", lambda self, *args, **kw: recorded.append(args)
        )
        obs = Observability(stats=True)
        with pytest.raises(ExecutionError, match="Lookup 'Enrich' failed"):
            EtlEngine(obs=obs, on_error=policy, **TIERS[tier]).run(
                self.job(), instance
            )
        assert recorded == []
        assert not degraded(obs)

"""Exactly-once under injected crashes: a run killed at any checkpoint
boundary or around (or mid-) a target write resumes to output that is
byte-identical to an uninterrupted run — accepted and rejected rows
alike — on both engine tiers, compiled and the oracle.

:class:`~repro.errors.InjectedCrash` derives from ``BaseException``
(a simulated ``kill -9``), so the sweep also pins that no retry policy,
error-policy channel, or degradation ladder in any of the three
runtimes can absorb it."""

import pytest

from repro.data.dataset import Dataset
from repro.errors import InjectedCrash
from repro.etl import EtlEngine
from repro.etl.model import Job
from repro.etl.stages import SequentialFileTarget, TableSource
from repro.exec import set_kernel_fault_hook
from repro.faults import CrashingStore, CrashingTarget
from repro.mapping import MappingExecutor
from repro.ohm import execute
from repro.resilience import CheckpointStore, RetryPolicy, format_row
from repro.schema.model import relation
from repro.workloads import (
    build_example_job,
    build_faulty_job,
    generate_faulty_instance,
    generate_instance,
    orders_schema,
)

ENGINE_FLAGS = {
    "fused": {"compiled": True},
    "oracle": {"compiled": False},
}


def _snapshot(targets):
    """Target datasets as name → sorted formatted-row multiset."""
    return {
        name: sorted(format_row(r) for r in targets.dataset(name).rows)
        for name in targets.names
    }


@pytest.fixture(scope="module")
def workload():
    """A poisoned instance and the uninterrupted run's accepted AND
    rejected outputs (the reject link makes rejects a target table)."""
    instance, _ = generate_faulty_instance(n=40, seed=11, poison=3)
    targets, _ = EtlEngine().run(
        build_faulty_job(with_reject_link=True), instance
    )
    return instance, _snapshot(targets)


class TestCrashAtEverySaveBoundary:
    """Kill the run at each checkpoint-save boundary in turn — both
    before the snapshot persists and just after — then resume with the
    same store and compare everything to the uninterrupted run."""

    @pytest.mark.parametrize("mode", list(ENGINE_FLAGS))
    @pytest.mark.parametrize("persist_first", [False, True])
    def test_resume_is_byte_identical(
        self, tmp_path, workload, mode, persist_first
    ):
        instance, expected = workload
        flags = ENGINE_FLAGS[mode]
        # discover this tier's boundary count with a never-firing probe
        probe = CrashingStore(
            CheckpointStore(str(tmp_path / "probe")), after_saves=10**9
        )
        EtlEngine(checkpoint=probe, **flags).run(
            build_faulty_job(with_reject_link=True), instance
        )
        n_saves = probe.saves
        assert n_saves >= 5  # one boundary per stage

        for boundary in range(n_saves):
            store = CrashingStore(
                CheckpointStore(str(tmp_path / f"b{boundary}")),
                after_saves=boundary,
                persist_first=persist_first,
            )
            job = build_faulty_job(with_reject_link=True)
            with pytest.raises(InjectedCrash):
                EtlEngine(checkpoint=store, **flags).run(job, instance)
            assert store.crashed
            # same wrapped store, crash spent: the resumed run finishes
            resumed, _ = EtlEngine(checkpoint=store, **flags).run(
                build_faulty_job(with_reject_link=True), instance
            )
            assert _snapshot(resumed) == expected, (
                f"{mode} boundary {boundary} persist_first={persist_first}"
            )
            # ... and a clean finish leaves no snapshots behind
            assert store.load_frontier(job) == {}


def _file_job(target):
    job = Job("orders_to_file")
    source = job.add(TableSource(orders_schema()))
    job.add(target)
    job.link(source, target, name="rows")
    return job


class TestTransactionalFileTarget:
    """Crash a CSV file target before, after, and mid-write (torn
    file): resume always converges on the uninterrupted file bytes —
    the atomic temp+fsync+rename writer never leaves a half-file as
    the final state."""

    @pytest.mark.parametrize("mode", list(ENGINE_FLAGS))
    @pytest.mark.parametrize("crash_mode", CrashingTarget.MODES)
    def test_resume_restores_the_exact_file(
        self, tmp_path, mode, crash_mode
    ):
        instance, _ = generate_faulty_instance(n=25, seed=4)
        flags = ENGINE_FLAGS[mode]
        reference = tmp_path / "reference.csv"
        EtlEngine(**flags).run(
            _file_job(SequentialFileTarget(orders_schema(), str(reference))),
            instance,
        )
        expected_bytes = reference.read_bytes()

        out = tmp_path / f"{mode}-{crash_mode}.csv"
        crashing = CrashingTarget(
            SequentialFileTarget(orders_schema(), str(out)), mode=crash_mode
        )
        job = _file_job(crashing)
        store = CheckpointStore(str(tmp_path / f"ckpt-{mode}-{crash_mode}"))
        with pytest.raises(InjectedCrash):
            EtlEngine(checkpoint=store, **flags).run(job, instance)
        if crash_mode == "torn":
            # the simulated non-atomic writer really left a torn file
            assert out.read_bytes() != expected_bytes
        targets, _ = EtlEngine(checkpoint=store, **flags).run(job, instance)
        assert out.read_bytes() == expected_bytes
        assert len(targets.dataset("Orders")) == 25


class TestSqliteTransactionalLoad:
    """The SQL runner's shadow-table load: a crash mid batched write
    leaves the live table untouched; the retry lands atomically."""

    def test_crash_mid_load_preserves_the_previous_table(self):
        from repro.deploy.sql import SqliteRunner

        instance, _ = generate_faulty_instance(n=6, seed=5)
        runner = SqliteRunner(instance)
        rel = relation("T", ("id", "int", False))
        runner.load_table(Dataset(rel, [{"id": 1}, {"id": 2}]))

        fired = []

        def crash_once(sql, rows):
            if not fired:
                fired.append(1)
                raise InjectedCrash("injected crash mid batched write")

        runner.write_hook = crash_once
        with pytest.raises(InjectedCrash):
            runner.load_table(Dataset(rel, [{"id": 9}]))
        # the swap never committed: the previous rows are still live
        got = runner.query('SELECT "id" FROM "T" ORDER BY "id"', rel)
        assert [r["id"] for r in got.rows] == [1, 2]
        # crash spent: the reload replaces the table atomically
        runner.load_table(Dataset(rel, [{"id": 9}]))
        got = runner.query('SELECT "id" FROM "T"', rel)
        assert [r["id"] for r in got.rows] == [9]
        runner.close()

    def test_non_transactional_load_still_works(self):
        from repro.deploy.sql import SqliteRunner

        instance, _ = generate_faulty_instance(n=3, seed=5)
        runner = SqliteRunner(instance)
        rel = relation("T", ("id", "int", False))
        runner.load_table(Dataset(rel, [{"id": 7}]), transactional=False)
        got = runner.query('SELECT "id" FROM "T"', rel)
        assert [r["id"] for r in got.rows] == [7]
        runner.close()


class _CrashingSource(TableSource):
    STAGE_TYPE = "TableSource"

    def extract(self, instance):
        raise InjectedCrash("injected source crash")


class TestCrashPropagation:
    """InjectedCrash is a BaseException: retry, error policies, and
    every runtime's degradation ladder must let it through."""

    @staticmethod
    def _crash_hook(tier, kind, fn):
        def crashed(*args, **kwargs):
            raise InjectedCrash(f"injected {tier} {kind} kernel crash")

        return crashed

    def test_etl_retry_and_policies_do_not_absorb(self):
        sleeps = []
        instance, _ = generate_faulty_instance(n=5, seed=1)
        source = _CrashingSource(orders_schema())
        crash_job = Job("crashing")
        crash_job.add(source)
        target = crash_job.add(
            SequentialFileTarget(orders_schema(), "/dev/null", name="tgt")
        )
        crash_job.link(source, target, name="rows")
        engine = EtlEngine(
            on_error="skip",
            retry=RetryPolicy(max_retries=5, sleep=sleeps.append),
        )
        with pytest.raises(InjectedCrash):
            engine.run(crash_job, instance)
        assert sleeps == []  # no retry burned on a crash

    def test_ohm_ladder_does_not_absorb(self):
        from repro import Orchid

        graph = Orchid().import_etl(build_example_job())
        instance = generate_instance(n_customers=10)
        set_kernel_fault_hook(self._crash_hook)
        try:
            with pytest.raises(InjectedCrash):
                execute(graph, instance, on_error="skip")
        finally:
            set_kernel_fault_hook(None)

    def test_mapping_ladder_does_not_absorb(self):
        from repro import Orchid

        orchid = Orchid()
        mappings = orchid.to_mappings(orchid.import_etl(build_example_job()))
        instance = generate_instance(n_customers=10)
        set_kernel_fault_hook(self._crash_hook)
        try:
            with pytest.raises(InjectedCrash):
                MappingExecutor(on_error="skip").execute(mappings, instance)
        finally:
            set_kernel_fault_hook(None)

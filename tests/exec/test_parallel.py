"""Unit tests for the parallel execution tier (``repro.exec.parallel``).

The tier's contract is determinism: partitioned kernels must be
*bit-identical* to the serial block kernels (same rows, same order, same
float reduction order), wave grouping must preserve topological order,
and every failure mode must degrade without changing results. These
tests exercise the pieces in isolation; the engine-level parity suite
lives in ``tests/exec/test_parallel_parity.py``.
"""

import random

import pytest

from repro import config
from repro.exec import ExpressionPlanner, block
from repro.exec.block import RowBlock
from repro.exec.compile_block import aggregate_values_reducer
from repro.exec.parallel import (
    MAX_PARTITIONS,
    WorkerPool,
    WorkerUnavailable,
    max_wavefront,
    partitions_for,
    set_default_executor,
    topological_waves,
)
from repro.expr.ast import AggregateCall, ColumnRef
from repro.expr.parser import parse
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.schema.model import Attribute, Relation
from repro.schema.types import INTEGER, STRING


@pytest.fixture(autouse=True)
def _restore_executor():
    yield
    set_default_executor(None)


@pytest.fixture
def partition_everything():
    """The partitioned-kernel threshold at one row, so the small seeded
    inputs below partition (serial planners never ask for it)."""
    with config.overriding(parallel_min_rows=1):
        yield


# --- option resolution --------------------------------------------------------


class TestResolution:
    def test_parallel_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert config.resolve("parallel") is False
        assert config.resolve("parallel", True) is True

    def test_parallel_env_boolish(self, monkeypatch):
        for raw, expected in [
            ("1", True), ("true", True), ("4", True),
            ("0", False), ("false", False), ("off", False),
        ]:
            monkeypatch.setenv("REPRO_PARALLEL", raw)
            assert config.resolve("parallel") is expected, raw

    def test_explicit_kwarg_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        with config.overriding(parallel=True):
            assert config.resolve("parallel", False) is False

    def test_set_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        with config.overriding(parallel=True):
            assert config.resolve("parallel") is True

    def test_workers_resolution_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert config.resolve("workers") == 5
        with config.overriding(workers=3):
            assert config.resolve("workers") == 3
            assert config.resolve("workers", 7) == 7

    def test_integer_parallel_env_sizes_the_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_PARALLEL", "6")
        assert config.resolve("parallel") is True
        assert config.resolve("workers") == 6

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            config.resolve("workers", 0)
        with pytest.raises(ValueError):
            config.overriding(workers=-1)

    def test_threshold_env_and_hook(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "10")
        assert config.resolve("parallel_min_rows") == 10
        with config.overriding(parallel_min_rows=4):
            assert config.resolve("parallel_min_rows") == 4


class TestPartitionsFor:
    def test_below_threshold_stays_serial(self):
        with config.overriding(parallel_min_rows=100):
            assert partitions_for(99) == 0

    def test_scales_with_data_and_caps(self):
        with config.overriding(parallel_min_rows=100):
            assert partitions_for(100) == 2
            assert partitions_for(399) == 3
            assert partitions_for(100 * MAX_PARTITIONS * 10) == MAX_PARTITIONS

    def test_independent_of_worker_count(self):
        # the contract behind determinism: partitioning is a function of
        # the data alone, so any worker count splits identically
        with config.overriding(parallel_min_rows=50, workers=2):
            two = [partitions_for(n) for n in range(0, 1000, 37)]
        with config.overriding(parallel_min_rows=50, workers=8):
            eight = [partitions_for(n) for n in range(0, 1000, 37)]
        assert two == eight


# --- wave grouping ------------------------------------------------------------


class TestTopologicalWaves:
    def test_diamond(self):
        #    a
        #   / \
        #  b   c
        #   \ /
        #    d
        parents = {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"]}
        waves = topological_waves(
            ["a", "b", "c", "d"], lambda n: n, lambda n: parents[n]
        )
        assert waves == [["a"], ["b", "c"], ["d"]]
        assert max_wavefront(waves) == 2

    def test_within_wave_order_is_input_order(self):
        parents = {n: [] for n in "zyxw"}
        waves = topological_waves("zyxw", lambda n: n, lambda n: parents[n])
        assert waves == [["z", "y", "x", "w"]]

    def test_unknown_parents_are_ignored(self):
        # engines pass graph-wide parent uids; nodes outside `order`
        # (e.g. pruned operators) must not block wave assignment
        waves = topological_waves(
            ["a", "b"], lambda n: n, lambda n: ["ghost"] if n == "b" else []
        )
        assert waves == [["a", "b"]]

    def test_chain_is_fully_serial(self):
        order = list(range(6))
        waves = topological_waves(
            order, lambda n: n, lambda n: [n - 1] if n else []
        )
        assert waves == [[n] for n in order]


# --- the worker pool ----------------------------------------------------------


class _InlineExecutor:
    """submit() runs the task immediately; records call count."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn):
        self.submitted += 1

        class _Done:
            def __init__(self, value=None, error=None):
                self._value, self._error = value, error

            def result(self):
                if self._error is not None:
                    raise self._error
                return self._value

        try:
            return _Done(value=fn())
        except Exception as exc:  # noqa: BLE001 — test double
            return _Done(error=exc)


class _BrokenExecutor:
    def submit(self, fn):
        raise RuntimeError("pool shut down")


class TestWorkerPool:
    def test_run_all_preserves_task_order(self):
        pool = WorkerPool(workers=4)
        entries = pool.run_all([lambda i=i: i * i for i in range(10)])
        assert entries == [(None, i * i) for i in range(10)]

    def test_nested_batches_run_inline_without_deadlock(self):
        # a wave can fill every worker with compute tasks that each run
        # a partitioned kernel through the SAME shared pool; the inner
        # batches must run inline on the worker thread — submitting them
        # would starve the executor into deadlock (every thread blocked
        # on chunks queued behind itself)
        import threading

        pool = WorkerPool(workers=2)

        def outer(base):
            return pool.run([lambda i=i: base * 10 + i for i in range(3)])

        results = []

        def scenario():
            results.append(pool.run([lambda b=b: outer(b) for b in (1, 2)]))

        worker = threading.Thread(target=scenario, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "nested WorkerPool batches deadlocked"
        assert results == [[[10, 11, 12], [20, 21, 22]]]

    def test_single_task_runs_inline(self):
        pool = WorkerPool(workers=4, executor=_BrokenExecutor())
        # a broken executor is irrelevant for one task: no fan-out
        assert pool.run_all([lambda: 42]) == [(None, 42)]

    def test_task_errors_are_entries_not_raises(self):
        def boom():
            raise ValueError("task failed")

        pool = WorkerPool(workers=2)
        entries = pool.run_all([lambda: 1, boom, lambda: 3])
        assert entries[0] == (None, 1)
        assert isinstance(entries[1][0], ValueError)
        assert entries[2] == (None, 3)

    def test_run_raises_first_error_in_task_order(self):
        def boom(msg):
            def task():
                raise ValueError(msg)

            return task

        pool = WorkerPool(workers=2)
        with pytest.raises(ValueError, match="first"):
            pool.run([boom("first"), boom("second"), lambda: 1])

    def test_broken_executor_yields_worker_unavailable(self):
        pool = WorkerPool(workers=2, executor=_BrokenExecutor())
        entries = pool.run_all([lambda: 1, lambda: 2])
        assert all(isinstance(e, WorkerUnavailable) for e, _r in entries)

    def test_injected_default_executor_is_used(self):
        executor = _InlineExecutor()
        set_default_executor(executor)
        pool = WorkerPool(workers=3)
        assert pool.run([lambda: "a", lambda: "b"]) == ["a", "b"]
        assert executor.submitted == 2

    def test_explicit_executor_beats_injected_default(self):
        set_default_executor(_BrokenExecutor())
        pool = WorkerPool(workers=2, executor=_InlineExecutor())
        assert pool.run_all([lambda: 1, lambda: 2]) == [(None, 1), (None, 2)]


# --- partitioned kernels vs the serial kernels --------------------------------

LEFT_REL = Relation("L", [Attribute("k", INTEGER), Attribute("s", STRING)])
RIGHT_REL = Relation("R", [Attribute("k", INTEGER), Attribute("t", STRING)])
JOIN_PLAN = [
    ("lk", "left", "k"),
    ("s", "left", "s"),
    ("rk", "right", "k"),
    ("t", "right", "t"),
]


def _join_fixture(seed=7, n_left=500, n_right=300, key_space=80):
    """Dup-heavy key columns with ~8% NULLs on both sides — exercises
    the one-to-many merge path, NULL-key exclusion, and every pad."""
    rng = random.Random(seed)

    def keys(n):
        return [
            None if rng.random() < 0.08 else rng.randrange(key_space)
            for _ in range(n)
        ]

    left = RowBlock(
        {"k": keys(n_left), "s": [f"l{i}" for i in range(n_left)]}, n_left
    )
    right = RowBlock(
        {"k": keys(n_right), "t": [f"r{i}" for i in range(n_right)]}, n_right
    )
    return left, right


def _run_join(kind, planner, left, right):
    out = block.hash_join_block(
        left, right, LEFT_REL, RIGHT_REL, parse("L.k = R.k"),
        kind, JOIN_PLAN, planner,
    )
    assert out is not None, kind
    return out


def _parallel_planner(workers=3):
    planner = ExpressionPlanner(
        compiled=True, batched=True, parallel=True, workers=workers
    )
    assert planner.parallel
    return planner


@pytest.mark.parametrize("kind", ["inner", "left", "right", "full"])
def test_partitioned_join_bit_identical_to_serial(kind, partition_everything):
    left, right = _join_fixture()
    serial = _run_join(
        kind, ExpressionPlanner(compiled=True, batched=True), left, right
    )
    obs = Observability(stats=True)
    out = block.hash_join_block(
        left, right, LEFT_REL, RIGHT_REL, parse("L.k = R.k"),
        kind, JOIN_PLAN, _parallel_planner(), obs=obs,
    )
    assert out.length == serial.length
    for name in ("lk", "s", "rk", "t"):
        assert out.columns[name] == serial.columns[name], (kind, name)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["exec.parallel.join.partitions"] >= 2
    assert counters["exec.parallel.join.rows_out"] == serial.length


def test_partitioned_join_unique_keys_fast_path(partition_everything):
    # unique build keys take the scatter fast path (no dict-of-lists)
    left = RowBlock.from_rows(
        ["k", "s"], [{"k": i, "s": f"l{i}"} for i in range(200)]
    )
    right = RowBlock.from_rows(
        ["k", "t"], [{"k": i * 2, "t": f"r{i}"} for i in range(150)]
    )
    for kind in ("inner", "left", "right", "full"):
        serial = _run_join(
            kind, ExpressionPlanner(compiled=True, batched=True), left, right
        )
        out = _run_join(kind, _parallel_planner(), left, right)
        assert out.columns == serial.columns, kind


def _aggregates(planner):
    from repro.exec.block import relation_resolver
    from repro.exec.compile_block import compile_block_expr

    resolve = relation_resolver("T", ["g", "h", "v"])

    def agg(name, func, column):
        return (
            name,
            compile_block_expr(parse(column), None, resolve),
            aggregate_values_reducer(AggregateCall(func, ColumnRef(column))),
        )

    return [
        agg("total", "SUM", "v"),
        agg("lowest", "MIN", "v"),
        agg("mean", "AVG", "v"),
        ("n", None, None),  # COUNT(*)
    ]


@pytest.mark.parametrize("keys", [["g"], ["g", "h"]])
def test_partitioned_group_aggregate_bit_identical_to_serial(
    keys, partition_everything
):
    rng = random.Random(13)
    rows = [
        {
            "g": None if rng.random() < 0.06 else rng.randrange(40),
            "h": rng.choice(["x", "y", None]),
            # floats make reduction order observable: a different member
            # order would change the accumulated bits
            "v": rng.random() * 1000,
        }
        for _ in range(900)
    ]
    blk = RowBlock.from_rows(["g", "h", "v"], rows)
    serial_planner = ExpressionPlanner(compiled=True, batched=True)
    serial = block.group_aggregate_block(
        blk, keys, _aggregates(serial_planner)
    )
    obs = Observability(stats=True)
    planner = _parallel_planner()
    out = block.group_aggregate_block(
        blk, keys, _aggregates(planner), obs=obs, planner=planner
    )
    assert out.length == serial.length
    for name in keys + ["total", "lowest", "mean", "n"]:
        assert out.columns[name] == serial.columns[name], name
    counters = obs.metrics.snapshot()["counters"]
    assert counters["exec.parallel.group.partitions"] >= 2


def test_small_inputs_stay_serial():
    # under the threshold the planner reports zero partitions and the
    # kernels never touch the pool
    planner = _parallel_planner()
    assert planner.partitions_for(100) == 0
    left, right = _join_fixture(n_left=30, n_right=20)
    obs = Observability(stats=True)
    out = block.hash_join_block(
        left, right, LEFT_REL, RIGHT_REL, parse("L.k = R.k"),
        "inner", JOIN_PLAN, planner, obs=obs,
    )
    assert out is not None
    assert "exec.parallel.join.partitions" not in (
        obs.metrics.snapshot()["counters"]
    )


# --- worker-failure degradation ----------------------------------------------


def test_faulted_partitions_degrade_to_serial_kernel(partition_everything):
    left, right = _join_fixture()
    serial = _run_join(
        "left", ExpressionPlanner(compiled=True, batched=True), left, right
    )
    plan = FaultPlan(seed=5).fault_kernels(tier="parallel", first=2)
    obs = Observability(stats=True)
    with plan.injected():
        out = block.hash_join_block(
            left, right, LEFT_REL, RIGHT_REL, parse("L.k = R.k"),
            "left", JOIN_PLAN, _parallel_planner(), obs=obs,
        )
    assert plan.kernel_faults_fired.get("parallel", 0) >= 1
    assert out.columns == serial.columns  # identical despite the faults
    counters = obs.metrics.snapshot()["counters"]
    assert counters["exec.degrade.parallel_to_serial"] >= 1


def test_planner_gates_parallelism_on_batched():
    # kernel partitioning needs the columnar tier: a row-mode planner
    # never reports itself parallel even when asked
    planner = ExpressionPlanner(
        compiled=True, batched=False, parallel=True, workers=4
    )
    assert not planner.parallel
    assert planner.partitions_for(10**6) == 0

"""Unit tests for the parallel execution tier (``repro.exec.parallel``).

The tier's contract is determinism: wave grouping must preserve
topological order, the pool must hand results back in task order, and
every failure mode must surface as an entry the scheduler can degrade
on. These tests exercise the pieces in isolation; the engine-level
parity suite lives in ``tests/exec/test_parallel_parity.py``.
"""

import pytest

from repro import config
from repro.exec.parallel import (
    WorkerPool,
    WorkerUnavailable,
    max_wavefront,
    set_default_executor,
    topological_waves,
)


@pytest.fixture(autouse=True)
def _restore_executor():
    yield
    set_default_executor(None)


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

    def test_broken_executor_yields_worker_unavailable(self):
        pool = WorkerPool(workers=2, executor=_BrokenExecutor())
        entries = pool.run_all([lambda: 1, lambda: 2])
        assert all(isinstance(e, WorkerUnavailable) for e, _r in entries)

    def test_injected_default_executor_is_used(self):
        executor = _InlineExecutor()
        set_default_executor(executor)
        pool = WorkerPool(workers=3)
        assert pool.run_all([lambda: "a", lambda: "b"]) == [
            (None, "a"), (None, "b")
        ]
        assert executor.submitted == 2

    def test_explicit_executor_beats_injected_default(self):
        set_default_executor(_BrokenExecutor())
        pool = WorkerPool(workers=2, executor=_InlineExecutor())
        assert pool.run_all([lambda: 1, lambda: 2]) == [(None, 1), (None, 2)]

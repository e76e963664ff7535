"""Wavefront scheduling across workers (the parallel execution tier).

``parallel`` means one thing: the engines group a job graph's stages /
operators into topological waves (:func:`topological_waves`); every
node in a wave has all of its inputs ready, so the wave's compute runs
concurrently on a :class:`WorkerPool` while all bookkeeping (spans,
metrics, statistics, checkpoints, output wiring) stays on the calling
thread in topological order — which is what keeps a parallel run
byte-identical to the serial loop at every worker count (see
``docs/execution-model.md``). The kernels a node runs are the serial
ones: on a GIL-bound interpreter a thread pool adds nothing to a single
join or grouping (the measurement is in ``docs/execution-model.md``),
so there is one hash join and one grouped aggregation, in
:mod:`repro.exec.block`.

Worker failure degrades to the serial path (counted as
``exec.degrade.parallel_to_serial``), never changing results.

The ``parallel`` and ``workers`` options are rows of :mod:`repro.config`
(``docs/execution-model.md``, "Options").

Workers are threads by default (a process-wide pool per worker count);
tests inject any object with ``submit(fn)`` via
:func:`set_default_executor`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import config

_default_executor: Optional[Any] = None

_pool_lock = threading.Lock()
_shared_executors: Dict[int, Any] = {}

#: set while a thread is executing a pool task: chain materialization
#: (:func:`repro.exec.fuse.materialize_fused`) reads it to keep spans
#: off worker threads.
_in_worker = threading.local()


def _flagged(task: Callable[[], Any]) -> Callable[[], Any]:
    def run() -> Any:
        _in_worker.active = True
        try:
            return task()
        finally:
            _in_worker.active = False

    return run


class WorkerUnavailable(RuntimeError):
    """The worker pool could not run a task (executor rejected or broke
    down). Engines treat this as "degrade to serial", never as a task
    failure."""


# -- the worker pool ----------------------------------------------------------


def set_default_executor(executor: Optional[Any]) -> None:
    """Inject an executor for every :class:`WorkerPool` built without an
    explicit one — anything with ``submit(fn) -> future`` (test hook:
    inline executors, broken executors). ``None`` restores the shared
    thread pools."""
    global _default_executor
    _default_executor = executor


def _shared_executor(workers: int) -> Any:
    """One lazily-built process-wide thread pool per worker count, so
    per-run engines do not churn threads."""
    from concurrent.futures import ThreadPoolExecutor

    with _pool_lock:
        executor = _shared_executors.get(workers)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-exec-{workers}"
            )
            _shared_executors[workers] = executor
        return executor


class WorkerPool:
    """A deterministic fan-out helper over an executor.

    ``run_all(tasks)`` submits every 0-arg task and returns, in task
    order, one ``(error, result)`` pair per task — a failed submit
    surfaces as a :class:`WorkerUnavailable` entry, a task exception as
    itself. Nothing is raised from ``run_all``, so the caller chooses
    the policy: the engine wavefronts recompute
    :class:`WorkerUnavailable` entries inline and re-raise genuine task
    errors exactly as the serial loop would."""

    __slots__ = ("workers", "_executor")

    def __init__(
        self, workers: Optional[int] = None, executor: Optional[Any] = None
    ) -> None:
        self.workers: int = config.resolve("workers", workers)
        self._executor = executor

    def _resolve_executor(self) -> Any:
        if self._executor is not None:
            return self._executor
        if _default_executor is not None:
            return _default_executor
        return _shared_executor(self.workers)

    def run_all(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> List[Tuple[Optional[BaseException], Any]]:
        entries: List[Tuple[Optional[BaseException], Any]] = []
        if len(tasks) == 1:  # no fan-out for a single task
            try:
                entries.append((None, tasks[0]()))
            except Exception as exc:  # noqa: BLE001 — caller decides
                entries.append((exc, None))
            return entries
        try:
            executor = self._resolve_executor()
        except (RuntimeError, OSError) as exc:
            # pool construction can only fail on resource grounds; a
            # TypeError here would be a harness bug and must surface
            return [(WorkerUnavailable(str(exc)), None)] * len(tasks)
        futures: List[Tuple[Optional[Any], Optional[BaseException]]] = []
        for task in tasks:
            try:
                futures.append((executor.submit(_flagged(task)), None))
            except (RuntimeError, OSError) as exc:  # pool broke down
                futures.append((None, WorkerUnavailable(str(exc))))
        for future, submit_error in futures:
            if future is None:
                entries.append((submit_error, None))
                continue
            try:
                entries.append((None, future.result()))
            except Exception as exc:  # noqa: BLE001 — caller decides
                entries.append((exc, None))
        return entries

    def __repr__(self) -> str:
        return f"WorkerPool(workers={self.workers})"


# -- wavefront scheduling -----------------------------------------------------


def topological_waves(
    order: Sequence[Any],
    key: Callable[[Any], Any],
    parents: Callable[[Any], Iterable[Any]],
) -> List[List[Any]]:
    """Group topologically-ordered nodes into level-synchronous waves.

    ``key(node)`` is the node's identity, ``parents(node)`` yields the
    identities it depends on. A node's wave is one past its deepest
    parent, so every node in a wave has all inputs available once the
    previous waves completed — the members of one wave are mutually
    independent and may run concurrently. Within a wave, the input order
    (topological) is preserved, which is what keeps wavefront bookkeeping
    byte-identical to the serial loop."""
    level: Dict[Any, int] = {}
    waves: List[List[Any]] = []
    for node in order:
        depth = 0
        for parent in parents(node):
            parent_level = level.get(parent)
            if parent_level is not None and parent_level + 1 > depth:
                depth = parent_level + 1
        level[key(node)] = depth
        while len(waves) <= depth:
            waves.append([])
        waves[depth].append(node)
    return waves


def graph_waves(graph: Any) -> List[List[Any]]:
    """:func:`topological_waves` of a dataflow graph (an ETL job or an
    OHM graph): nodes keyed by ``uid``, parents read off the in-edges."""
    return topological_waves(
        graph.topological_order(),
        lambda node: node.uid,
        lambda node: (e.src for e in graph.in_edges(node.uid)),
    )


def max_wavefront(waves: Sequence[Sequence[Any]]) -> int:
    """The widest wave — the graph's available stage-level parallelism."""
    return max((len(wave) for wave in waves), default=0)


__all__ = [
    "WorkerPool",
    "WorkerUnavailable",
    "graph_waves",
    "max_wavefront",
    "set_default_executor",
    "topological_waves",
]

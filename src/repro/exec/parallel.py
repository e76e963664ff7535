"""Parallel kernel execution across workers (the fourth execution tier).

Two forms of parallelism, both strictly *deterministic* (see
``docs/execution-model.md``):

* **wavefront scheduling** — the engines group a job graph's stages /
  operators into topological waves (:func:`topological_waves`); every
  node in a wave has all of its inputs ready, so the wave's compute runs
  concurrently on a :class:`WorkerPool` while all bookkeeping (spans,
  metrics, statistics, checkpoints, output wiring) stays on the calling
  thread in topological order;
* **partitioned block kernels** — hash join and grouped aggregation
  split their :class:`~repro.exec.block.RowBlock` inputs into
  *contiguous* row chunks (the join broadcasts one shared build index;
  both hash the same :func:`~repro.exec.kernels.key_columns` keys as
  the serial kernels), run one kernel task per chunk on workers, and
  concatenate the results in chunk order — which *is* the exact serial
  emission order.

Determinism rules the design:

* the partition count is a function of the **data size only** — never of
  the worker count — so ``--workers 2`` and ``--workers 8`` build
  identical partitions (:func:`partitions_for`);
* partitioned kernels restore the exact serial row order (probe order
  with left paddings inline, right paddings last; groups in global
  first-seen order with members in ascending row order), so outputs are
  bit-identical to the serial kernels — including float reduction order
  — and order-sensitive downstream operators (dedup ``retain=first``,
  stable sorts) see the same input;
* worker failure degrades to the serial path (counted as
  ``exec.degrade.parallel_to_serial``), never changing results.

The ``parallel``, ``workers`` and ``parallel_min_rows`` options are rows
of :mod:`repro.config` (``docs/execution-model.md``, "Options").

Workers are threads by default (a process-wide pool per worker count);
tests inject any object with ``submit(fn)`` via
:func:`set_default_executor`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import config
from repro.exec.kernels import key_columns, key_rows

#: hard cap on partitions per kernel call (diminishing returns beyond).
MAX_PARTITIONS = 8

_default_executor: Optional[Any] = None

_pool_lock = threading.Lock()
_shared_executors: Dict[int, Any] = {}

#: set while a thread is executing a pool task, so nested batches (a
#: partitioned kernel inside a wavefront compute task) run inline
#: instead of starving the shared executor — see ``WorkerPool``.
_in_worker = threading.local()


def _flagged(task: Callable[[], Any]) -> Callable[[], Any]:
    def run():
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


def partitions_for(n_rows: int) -> int:
    """The degree of parallelism for a kernel over ``n_rows`` input rows:
    0 below the ``parallel_min_rows`` option (stay serial; unless set,
    the cost model's crossover where the block work a partition removes
    from the critical path outweighs its dispatch overhead), otherwise
    one partition per threshold-of-rows, capped at
    :data:`MAX_PARTITIONS`. Depends on the
    observed cardinality only — *never* on the worker count — so every
    worker count computes identical partitions."""
    threshold = config.resolve("parallel_min_rows")
    if n_rows < threshold:
        return 0
    return max(2, min(MAX_PARTITIONS, n_rows // threshold))


# -- the worker pool ----------------------------------------------------------


def set_default_executor(executor: Optional[Any]) -> None:
    """Inject an executor for every :class:`WorkerPool` built without an
    explicit one — anything with ``submit(fn) -> future`` (test hook:
    inline executors, broken executors). ``None`` restores the shared
    thread pools."""
    global _default_executor
    _default_executor = executor


def _shared_executor(workers: int):
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
    itself. Nothing is raised from ``run_all``, so callers choose the
    policy: the partitioned kernels raise the first error (their caller
    degrades to the serial kernel), the engine wavefronts recompute
    :class:`WorkerUnavailable` entries inline and re-raise genuine task
    errors exactly as the serial loop would.

    Nested batches run **inline**: a task that itself calls a
    ``WorkerPool`` (a wavefront compute task running a partitioned
    kernel) executes that inner batch sequentially on its own worker
    thread. Without this, a wave filling every worker with compute tasks
    that then block on queued kernel chunks starves the shared executor
    into deadlock. Inline execution is result-identical — the chunks and
    their merge order never depend on where they run."""

    __slots__ = ("workers", "_executor")

    def __init__(self, workers: Optional[int] = None, executor: Optional[Any] = None):
        self.workers = config.resolve("workers", workers)
        self._executor = executor

    def _resolve_executor(self):
        if self._executor is not None:
            return self._executor
        if _default_executor is not None:
            return _default_executor
        return _shared_executor(self.workers)

    @staticmethod
    def _run_inline(
        tasks: Sequence[Callable[[], Any]]
    ) -> List[Tuple[Optional[BaseException], Any]]:
        entries: List[Tuple[Optional[BaseException], Any]] = []
        for task in tasks:
            try:
                entries.append((None, task()))
            except Exception as exc:  # noqa: BLE001 — caller decides
                entries.append((exc, None))
        return entries

    def run_all(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> List[Tuple[Optional[BaseException], Any]]:
        if len(tasks) == 1 or getattr(_in_worker, "active", False):
            # no fan-out for a single task or from inside a worker
            # thread (nested batches would starve the shared executor)
            return self._run_inline(tasks)
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
        entries: List[Tuple[Optional[BaseException], Any]] = []
        for future, submit_error in futures:
            if future is None:
                entries.append((submit_error, None))
                continue
            try:
                entries.append((None, future.result()))
            except Exception as exc:  # noqa: BLE001 — caller decides
                entries.append((exc, None))
        return entries

    def run(self, tasks: Sequence[Callable[[], Any]]) -> List[Any]:
        """``run_all`` raising the first error (in task order)."""
        entries = self.run_all(tasks)
        for error, _result in entries:
            if error is not None:
                raise error
        return [result for _error, result in entries]

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


# -- observability ------------------------------------------------------------


def _count(obs, name: str, n: int = 1) -> None:
    if obs is not None and obs.enabled:
        obs.metrics.count(name, n)


def _faulted_partition(task: Callable[[], Any]) -> Callable[[], Any]:
    """Route a partition task through the process-wide kernel fault hook
    (tier ``"parallel"``), so :mod:`repro.faults` can kill chosen
    partitions and exercise the degradation path."""
    from repro.exec import kernel_fault_hook

    hook = kernel_fault_hook()
    if hook is None:
        return task
    return hook("parallel", "partition", task)


# -- partitioned hash join ----------------------------------------------------


def _chunk_bounds(length: int, n_partitions: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` probe ranges. Boundaries depend on the
    data size and partition count alone — :func:`partitions_for` already
    ties the count to the data size, so the chunking (and with it every
    fault-injection schedule) is invariant under the worker count."""
    bounds = [length * k // n_partitions for k in range(n_partitions + 1)]
    return [(bounds[k], bounds[k + 1]) for k in range(n_partitions)]


def _build_join_index(
    key_cols: Sequence[List[Any]],
) -> Tuple[Optional[Dict[Any, int]], Optional[Dict[Any, List[int]]]]:
    """Build-side hash index over :func:`~repro.exec.kernels.key_columns`
    columns, NULLs excluded (a join key with a NULL component never
    matches). Returns ``(unique, None)`` — a scalar key→row dict — when
    every build key is distinct, else ``(None, multi)`` mapping each key
    to its ascending row list (exactly the serial build order)."""
    unique: Dict[Any, int] = {}
    for j, key in enumerate(zip(*key_cols)):
        if None in key:
            continue
        if key in unique:
            break
        unique[key] = j
    else:
        return unique, None
    multi: Dict[Any, List[int]] = {}
    for j, key in enumerate(zip(*key_cols)):
        if None not in key:
            multi.setdefault(key, []).append(j)
    return None, multi


def partitioned_join(
    left,
    right,
    left_key_cols: Sequence[List[Any]],
    right_key_cols: Sequence[List[Any]],
    kind: str,
    plan: Sequence[Tuple[str, str, str]],
    pool: WorkerPool,
    n_partitions: int,
    obs=None,
):
    """Broadcast-build hash join with a chunk-partitioned probe; exact
    serial emission order.

    The build side is indexed once on the calling thread (NULL keys
    excluded, so the in-band NULL probe encoding simply misses); probe
    partitions are *contiguous* row ranges, so concatenating their
    results in chunk order reproduces the serial kernel's probe-order
    output with left paddings inline and right paddings last. With
    distinct build keys each chunk scatters at most one match per left
    row into a shared ``match_of`` array (disjoint slices — no
    collisions) via a single C-speed list comprehension; duplicate build
    keys fall back to per-chunk index-pair lists. Raises on any
    partition failure; the caller degrades to the serial kernel.
    Returns a :class:`~repro.exec.block.RowBlock`."""
    from repro.exec.block import RowBlock

    n_left = left.length
    n_right = right.length
    build, multi_build = _build_join_index(key_columns(right_key_cols))
    chunks = _chunk_bounds(n_left, n_partitions)
    pad_left = kind in ("left", "full")

    # -1 = no match for this left row (pad under left/full, drop otherwise)
    match_of: List[int] = [-1] * n_left
    # encoded once per kernel call, on the calling thread; every chunk
    # reads its own slice. A NULL component simply misses the index.
    probe_cols = key_columns(left_key_cols)

    if multi_build is None:

        def probe_chunk(lo: int, hi: int) -> None:
            get = build.get
            match_of[lo:hi] = [
                get(key, -1) for key in zip(*[c[lo:hi] for c in probe_cols])
            ]

    else:

        def probe_chunk(lo: int, hi: int) -> Tuple[List[int], List[int]]:
            get = multi_build.get
            li: List[int] = []
            ri: List[int] = []
            keys = zip(*[c[lo:hi] for c in probe_cols])
            for i, key in enumerate(keys, lo):
                hits = get(key)
                if hits is not None:
                    for j in hits:
                        li.append(i)
                        ri.append(j)
                elif pad_left:
                    li.append(i)
                    ri.append(-1)
            return li, ri

    tasks = [
        _faulted_partition(lambda lo=lo, hi=hi: probe_chunk(lo, hi))
        for lo, hi in chunks
    ]
    chunk_results = pool.run(tasks)

    left_pads = False
    if multi_build is None:
        if pad_left:
            left_idx = list(range(n_left))
            right_idx = match_of
            left_pads = any(j < 0 for j in right_idx)
        else:
            left_idx = [i for i, j in enumerate(match_of) if j >= 0]
            right_idx = [j for j in match_of if j >= 0]
    else:
        left_idx = []
        right_idx = []
        for li, ri in chunk_results:
            left_idx.extend(li)
            right_idx.extend(ri)
        left_pads = pad_left and any(j < 0 for j in right_idx)
    right_pads = False
    if kind in ("right", "full"):
        matched = [False] * n_right
        for j in right_idx:
            if j >= 0:
                matched[j] = True
        unmatched = [j for j in range(n_right) if not matched[j]]
        if unmatched:
            if right_idx is match_of:
                right_idx = list(right_idx)
            left_idx.extend([-1] * len(unmatched))
            right_idx.extend(unmatched)
            right_pads = True
    # a right join pads the LEFT side's columns; a left join the right's
    left_has_null = right_pads
    right_has_null = left_pads

    columns: Dict[str, List[Any]] = {}
    for out_name, side, source in plan:
        if side == "left":
            col = left.columns[source]
            idx = left_idx
            has_null = left_has_null
        else:
            col = right.columns[source]
            idx = right_idx
            has_null = right_has_null
        if has_null:
            columns[out_name] = [None if i < 0 else col[i] for i in idx]
        else:
            columns[out_name] = [col[i] for i in idx]
    _count(obs, "exec.parallel.join.partitions", n_partitions)
    _count(obs, "exec.parallel.join.rows_in", n_left + n_right)
    _count(obs, "exec.parallel.join.rows_out", len(left_idx))
    return RowBlock(columns, len(left_idx))


# -- partitioned grouped aggregation ------------------------------------------


def partitioned_group_aggregate(
    block,
    key_names: Sequence[str],
    aggregates: Sequence[Tuple[str, Optional[Callable], Optional[Callable]]],
    pool: WorkerPool,
    n_partitions: int,
    obs=None,
):
    """Chunk-partitioned grouped aggregation; exact serial order.

    Phase 1 groups *contiguous* row chunks independently; merging the
    per-chunk group maps in chunk order restores both invariants of the
    serial kernel for free — the global first-seen group order (a chunk's
    new keys append after every earlier chunk's) and ascending member
    lists (list ``extend`` in chunk order). Phase 2 reduces contiguous
    *group* ranges in parallel: every aggregate argument is evaluated
    once over the whole block (exactly like the serial kernel) and each
    reducer folds its group's members in ascending row order, so float
    reductions are bit-identical to serial. Raises on any partition
    failure; the caller degrades to the serial kernel. Unlike the join,
    NULL keys are real groups (SQL GROUP BY), so the encoding keeps
    them in-band."""
    from repro.exec.block import RowBlock

    length = block.length
    key_cols = [block.columns[k] for k in key_names]
    chunks = _chunk_bounds(length, n_partitions)
    # encoded once per kernel call, on the calling thread; every chunk
    # groups its own slice
    encoded = key_columns(key_cols)

    def group_chunk(lo: int, hi: int) -> Dict[Any, List[int]]:
        groups: Dict[Any, List[int]] = {}
        keys = key_rows([c[lo:hi] for c in encoded], hi - lo)
        for i, key in enumerate(keys, lo):
            members = groups.get(key)
            if members is None:
                groups[key] = [i]
            else:
                members.append(i)
        return groups

    tasks = [
        _faulted_partition(lambda lo=lo, hi=hi: group_chunk(lo, hi))
        for lo, hi in chunks
    ]
    groups: Dict[Any, List[int]] = {}
    for chunk_groups in pool.run(tasks):
        for key, chunk_members in chunk_groups.items():
            members = groups.get(key)
            if members is None:
                groups[key] = chunk_members
            else:
                members.extend(chunk_members)
    group_lists = list(groups.values())
    n_groups = len(group_lists)

    # aggregate argument columns: one whole-block evaluation per
    # aggregate, shared read-only by every reduction chunk
    value_cols: List[Optional[List[Any]]] = []
    for _name, values_fn, _reducer in aggregates:
        value_cols.append(None if values_fn is None else values_fn(block))

    def reduce_chunk(lo: int, hi: int) -> List[List[Any]]:
        out: List[List[Any]] = []
        for (_name, values_fn, reducer), values in zip(
            aggregates, value_cols
        ):
            if values_fn is None and reducer is None:
                out.append([len(m) for m in group_lists[lo:hi]])
            else:
                out.append(
                    [
                        reducer([values[i] for i in members])
                        for members in group_lists[lo:hi]
                    ]
                )
        return out

    reduce_tasks = [
        _faulted_partition(lambda lo=lo, hi=hi: reduce_chunk(lo, hi))
        for lo, hi in _chunk_bounds(n_groups, n_partitions)
    ]
    agg_cols: List[List[Any]] = [[] for _ in aggregates]
    for chunk_cols in pool.run(reduce_tasks):
        for acc, piece in zip(agg_cols, chunk_cols):
            acc.extend(piece)

    columns: Dict[str, List[Any]] = {}
    for name, col in zip(key_names, key_cols):
        columns[name] = [col[members[0]] for members in group_lists]
    for (name, _values_fn, _reducer), values in zip(aggregates, agg_cols):
        columns[name] = values
    _count(obs, "exec.parallel.group.partitions", n_partitions)
    _count(obs, "exec.parallel.group.rows_in", length)
    _count(obs, "exec.parallel.group.rows_out", n_groups)
    return RowBlock(columns, n_groups)


__all__ = [
    "MAX_PARTITIONS",
    "WorkerPool",
    "WorkerUnavailable",
    "graph_waves",
    "max_wavefront",
    "partitioned_group_aggregate",
    "partitioned_join",
    "partitions_for",
    "set_default_executor",
    "topological_waves",
]

"""Spill machinery: temp-file runs for budget-bound blocking operators.

When an active :class:`~repro.supervision.memory.MemoryBudget` says a
blocking operator's resident state would exceed its row ceiling, the
kernels route here instead of materializing everything at once:

* **external merge sort** — the input is sorted in budget-sized runs,
  each run spilled to a pickle temp file, and the runs are merged with
  a k-way heap. The per-run sort uses one composite key (each
  ``(column, direction)`` lowered through the kernels' ``_sort_value``
  sentinels, descending keys wrapped in :class:`_Reversed`), which is
  provably the same permutation as the kernels' right-to-left stable
  passes; ``heapq.merge`` breaks ties toward earlier runs, and runs are
  consecutive input chunks, so global stability is preserved exactly.

* **grace-partitioned aggregation** — group keys are hash-partitioned
  into budget-sized temp-file runs; each partition is grouped and
  reduced independently (members stay in ascending input order), and
  the per-group results are reordered by each group's first input
  index — restoring the serial kernel's first-seen group order.

* **grace-partitioned hash join** — both sides' ``(row index, join
  key)`` pairs are hash-partitioned so only one partition's build index
  is resident at a time; matches are recorded as index pairs and the
  final emission replays the serial kernel's exact order (probe order,
  build matches ascending, left paddings inline, right paddings last).

Everything is byte-exact with the in-memory kernels — pinned by the
spill parity suite — and observable: ``exec.spill.sort`` /
``.group`` / ``.join`` count spilled operators, ``exec.spill.runs``
counts temp-file runs/partitions, and ``exec.spill.rows`` counts rows
(or key entries) written to disk. Temp files live in a per-operation
``tempfile.TemporaryDirectory`` and never outlive the call.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: rows per pickle frame inside a run file — bounds resident rows
#: during the merge phase to ~runs × frame size.
FRAME_ROWS = 1024


class _Reversed:
    """Inverts the order of a wrapped sort key.

    An ascending stable sort over ``_Reversed(k)`` produces exactly the
    permutation of a ``reverse=True`` stable sort over ``k``: distinct
    keys order descending, equal keys keep input order. Composite keys
    mix wrapped and bare components so one lexicographic pass replaces
    the kernels' per-key passes."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value

    def __hash__(self):  # pragma: no cover - keys are compared, not hashed
        return hash(self.value)


def composite_sort_key(
    keys: Sequence[Tuple[str, str]]
) -> Callable[[dict], tuple]:
    """The single-pass composite key for row dicts equivalent to the
    row kernel's right-to-left stable sorts over ``keys``."""
    from repro.exec.kernels import _sort_value

    specs = [(col, direction == "desc") for col, direction in keys]

    def key_of(row: dict) -> tuple:
        return tuple(
            _Reversed(_sort_value(row[col], True))
            if descending
            else _sort_value(row[col], False)
            for col, descending in specs
        )

    return key_of


# -- run files -----------------------------------------------------------------


def _write_run(path: str, items: Sequence) -> None:
    with open(path, "wb") as handle:
        for start in range(0, len(items), FRAME_ROWS):
            pickle.dump(
                items[start : start + FRAME_ROWS],
                handle,
                pickle.HIGHEST_PROTOCOL,
            )


def _iter_run(path: str):
    with open(path, "rb") as handle:
        while True:
            try:
                frame = pickle.load(handle)
            except EOFError:
                return
            for item in frame:
                yield item


class _PartitionWriter:
    """Buffered append-only writers for N hash partitions."""

    def __init__(self, directory: str, prefix: str, n_partitions: int):
        self.paths = [
            os.path.join(directory, f"{prefix}-{p}.pkl")
            for p in range(n_partitions)
        ]
        self._handles = [open(path, "wb") for path in self.paths]
        self._buffers: List[list] = [[] for _ in range(n_partitions)]
        self.rows_written = 0

    def append(self, partition: int, item) -> None:
        buffer = self._buffers[partition]
        buffer.append(item)
        self.rows_written += 1
        if len(buffer) >= FRAME_ROWS:
            self._flush(partition)

    def _flush(self, partition: int) -> None:
        buffer = self._buffers[partition]
        if buffer:
            pickle.dump(
                buffer, self._handles[partition], pickle.HIGHEST_PROTOCOL
            )
            self._buffers[partition] = []

    def close(self) -> None:
        for partition in range(len(self.paths)):
            self._flush(partition)
        for handle in self._handles:
            handle.close()


def _count(obs, name: str, n: int = 1) -> None:
    if obs is not None and obs.enabled:
        obs.metrics.count(name, n)


def _spill_metrics(obs, kind: str, runs: int, rows: int) -> None:
    _count(obs, f"exec.spill.{kind}")
    _count(obs, "exec.spill.runs", runs)
    _count(obs, "exec.spill.rows", rows)


# -- external merge sort -------------------------------------------------------


def external_sort_rows(
    rows: Sequence[dict],
    keys: Sequence[Tuple[str, str]],
    budget,
    obs=None,
) -> List[dict]:
    """Budget-bound :func:`repro.exec.kernels.sort_rows`: same rows (as
    copies), same permutation, at most ``budget.max_rows`` resident per
    run."""
    key_of = composite_sort_key(keys)
    run_rows = budget.max_rows
    with tempfile.TemporaryDirectory(prefix="repro-spill-sort-") as tmp:
        run_paths: List[str] = []
        for start in range(0, len(rows), run_rows):
            chunk = [dict(r) for r in rows[start : start + run_rows]]
            chunk.sort(key=key_of)
            path = os.path.join(tmp, f"run-{len(run_paths)}.pkl")
            _write_run(path, chunk)
            run_paths.append(path)
        out = list(
            heapq.merge(*(_iter_run(p) for p in run_paths), key=key_of)
        )
    _spill_metrics(obs, "sort", len(run_paths), len(rows))
    return out


def external_sort_indices(
    n: int,
    key_of: Callable[[int], tuple],
    budget,
    obs=None,
) -> List[int]:
    """The sorted index permutation of ``range(n)`` under ``key_of``
    (a composite key per row index), computed in budget-sized runs.
    Used by the compiled tier, which narrows its chain by the permutation."""
    run_rows = budget.max_rows
    with tempfile.TemporaryDirectory(prefix="repro-spill-sort-") as tmp:
        run_paths: List[str] = []
        for start in range(0, n, run_rows):
            chunk = list(range(start, min(start + run_rows, n)))
            chunk.sort(key=key_of)
            path = os.path.join(tmp, f"run-{len(run_paths)}.pkl")
            _write_run(path, chunk)
            run_paths.append(path)
        order = list(
            heapq.merge(*(_iter_run(p) for p in run_paths), key=key_of)
        )
    _spill_metrics(obs, "sort", len(run_paths), n)
    return order


# -- grace-partitioned aggregation ---------------------------------------------


def external_group_aggregate_rows(
    rows: Sequence[dict],
    key_names: Sequence[str],
    aggregates: Sequence[Tuple[str, Callable[[list], Any]]],
    budget,
    obs=None,
) -> List[dict]:
    """Budget-bound :func:`repro.exec.kernels.group_aggregate_rows`:
    identical output rows in identical (first-seen) group order, with
    only one hash partition's group states resident at a time."""
    from repro.exec.kernels import key_encoder

    encoders = [key_encoder() for _ in key_names]
    n_partitions = max(2, budget.runs_for(len(rows)))
    results: List[Tuple[int, dict]] = []
    with tempfile.TemporaryDirectory(prefix="repro-spill-group-") as tmp:
        writer = _PartitionWriter(tmp, "part", n_partitions)
        for index, row in enumerate(rows):
            key = tuple(
                encode(row[k]) for encode, k in zip(encoders, key_names)
            )
            writer.append(hash(key) % n_partitions, (index, key))
        writer.close()
        for path in writer.paths:
            groups: Dict[tuple, List[int]] = {}
            order: List[tuple] = []
            for index, key in _iter_run(path):
                members = groups.get(key)
                if members is None:
                    groups[key] = members = []
                    order.append(key)
                members.append(index)
            for key in order:
                members = [rows[i] for i in groups[key]]
                out_row = {k: members[0][k] for k in key_names}
                for name, aggregate in aggregates:
                    out_row[name] = aggregate(members)
                results.append((groups[key][0], out_row))
    results.sort(key=lambda item: item[0])
    _spill_metrics(obs, "group", n_partitions, len(rows))
    return [row for _, row in results]


def external_group_aggregate_block(
    block,
    key_names: Sequence[str],
    aggregates: Sequence[Tuple[str, Optional[Callable], Any]],
    budget,
    obs=None,
):
    """Budget-bound :func:`repro.exec.block.group_aggregate_block`: the
    block's row indices are hash-partitioned by encoded key, each
    partition is gathered into a sub-block and grouped/reduced on its
    own, and groups are reordered by first input index — bit-identical
    to the serial block kernel."""
    from repro.exec.block import RowBlock, _group_indices, fold_groups
    from repro.exec.kernels import key_columns, key_rows

    keys = key_rows(
        key_columns([block.columns[k] for k in key_names]), block.length
    )
    n_partitions = max(2, budget.runs_for(block.length))
    results: List[Tuple[int, dict]] = []
    with tempfile.TemporaryDirectory(prefix="repro-spill-group-") as tmp:
        writer = _PartitionWriter(tmp, "part", n_partitions)
        for i, key in enumerate(keys):
            writer.append(hash(key) % n_partitions, i)
        writer.close()
        for path in writer.paths:
            indices = list(_iter_run(path))
            if not indices:
                continue
            sub = block.take(indices)
            local_groups = _group_indices(sub, key_names)
            folded = {
                name: fold_groups(
                    [] if values_fn is None else values_fn(sub),
                    local_groups,
                    reducer,
                )
                for name, values_fn, reducer in aggregates
            }
            for g, members in enumerate(local_groups):
                out_row = {
                    k: sub.columns[k][members[0]] for k in key_names
                }
                for name, cells in folded.items():
                    out_row[name] = cells[g]
                results.append((indices[members[0]], out_row))
    results.sort(key=lambda item: item[0])
    names = list(key_names) + [name for name, _fn, _r in aggregates]
    columns = {
        name: [row[name] for _idx, row in results] for name in names
    }
    _spill_metrics(obs, "group", n_partitions, block.length)
    return RowBlock(columns, len(results))


# -- grace-partitioned hash join -----------------------------------------------


def grace_hash_join(
    left_rows: Sequence[dict],
    right_rows: Sequence[dict],
    left_keys: Sequence[Optional[tuple]],
    right_keys: Sequence[Optional[tuple]],
    kind: str,
    merge: Callable[[Optional[dict], Optional[dict]], dict],
    emit: Callable[[dict], None],
    budget,
    obs=None,
) -> int:
    """Budget-bound equi-join (no residual predicate): ``(index, key)``
    pairs of both sides are hash-partitioned so only one partition's
    build index is resident, then the match set is replayed in the
    serial kernel's emission order. ``left_keys`` / ``right_keys`` are
    the pre-computed ``hash_key`` tuples (``None`` = NULL key, never
    matches). Returns the number of emitted rows."""
    n_partitions = max(2, budget.runs_for(len(right_rows)))
    matches: Dict[int, List[int]] = {}
    matched_right: set = set()
    with tempfile.TemporaryDirectory(prefix="repro-spill-join-") as tmp:
        left_writer = _PartitionWriter(tmp, "left", n_partitions)
        right_writer = _PartitionWriter(tmp, "right", n_partitions)
        for index, key in enumerate(left_keys):
            if key is not None:
                left_writer.append(hash(key) % n_partitions, (index, key))
        for index, key in enumerate(right_keys):
            if key is not None:
                right_writer.append(hash(key) % n_partitions, (index, key))
        left_writer.close()
        right_writer.close()
        written = left_writer.rows_written + right_writer.rows_written
        for left_path, right_path in zip(
            left_writer.paths, right_writer.paths
        ):
            build: Dict[tuple, List[int]] = {}
            for index, key in _iter_run(right_path):
                build.setdefault(key, []).append(index)
            if not build:
                continue
            for index, key in _iter_run(left_path):
                hits = build.get(key)
                if hits:
                    matches[index] = hits
                    matched_right.update(hits)
    emitted = 0
    for left_index, left_row in enumerate(left_rows):
        hits = matches.get(left_index)
        if hits:
            for right_index in hits:
                emit(merge(left_row, right_rows[right_index]))
                emitted += 1
        elif kind in ("left", "full"):
            emit(merge(left_row, None))
            emitted += 1
    if kind in ("right", "full"):
        for right_index, right_row in enumerate(right_rows):
            if right_index not in matched_right:
                emit(merge(None, right_row))
                emitted += 1
    _spill_metrics(obs, "join", n_partitions, written)
    return emitted


__all__ = [
    "FRAME_ROWS",
    "composite_sort_key",
    "external_group_aggregate_block",
    "external_group_aggregate_rows",
    "external_sort_indices",
    "external_sort_rows",
    "grace_hash_join",
]

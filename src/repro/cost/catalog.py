"""The statistics catalog: what the planner knows about the data.

A :class:`StatisticsCatalog` holds three layers of knowledge, each
overriding the weaker one below it at estimation time:

* **table statistics** — per-relation row counts plus per-column
  distinct-value and null-fraction sketches, built by (seedably)
  sampling a :class:`~repro.data.dataset.Dataset` (or its columnar
  :class:`~repro.exec.block.RowBlock` view) via :meth:`observe_dataset`;
* **observed cardinalities** — actual row counts per named dataflow
  edge/link from a previous run, fed back either directly
  (:meth:`observe_link`) or by absorbing a metrics registry
  (:meth:`absorb_metrics` reads the ``etl.link.<name>.rows`` and
  ``ohm.operator.<uid>.rows_out`` counters the engines already emit);
* **kernel totals** — the global ``exec.kernel.*.rows_in/rows_out``
  throughput counters, kept for diagnostics and the ``--explain``
  report.

The feedback loop closes here: run once, absorb the metrics, and the
next :meth:`~repro.cost.estimate.CardinalityEstimator.estimate_graph`
call re-plans from actual cardinalities instead of selectivity guesses.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Optional, Tuple

from repro.data.dataset import Dataset, Instance

#: rows sampled per dataset when the dataset is larger than this.
DEFAULT_SAMPLE_SIZE = 1024
#: default sampling seed (any fixed value keeps re-observation stable).
DEFAULT_SEED = 424242


class ColumnStats:
    """Distinct-value and null-fraction sketch of one column, plus the
    sampled ``(low, high)`` of a numeric column (``None`` otherwise)."""

    __slots__ = ("n_distinct", "null_fraction", "bounds")

    def __init__(
        self,
        n_distinct: float,
        null_fraction: float,
        bounds: Optional[Tuple[float, float]] = None,
    ):
        self.n_distinct = max(1.0, float(n_distinct))
        self.null_fraction = min(1.0, max(0.0, float(null_fraction)))
        self.bounds = bounds

    def __repr__(self) -> str:
        return (
            f"ColumnStats(ndv={self.n_distinct:.0f}, "
            f"nulls={self.null_fraction:.2f})"
        )


class TableStats:
    """Row count plus per-column sketches for one relation."""

    __slots__ = ("row_count", "columns", "sampled")

    def __init__(
        self,
        row_count: int,
        columns: Optional[Dict[str, ColumnStats]] = None,
        sampled: int = 0,
    ):
        self.row_count = int(row_count)
        self.columns: Dict[str, ColumnStats] = columns or {}
        #: how many rows the sketches were computed from (== row_count
        #: when the dataset was small enough to scan fully).
        self.sampled = sampled

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def __repr__(self) -> str:
        return (
            f"TableStats(rows={self.row_count}, "
            f"{len(self.columns)} columns)"
        )


def _estimate_ndv(distinct: int, sampled: int, total: int) -> float:
    """Scale a sample's distinct count up to the full table.

    Low-cardinality columns saturate quickly in any sample, so a sample
    whose distinct count is well below the sample size is taken at face
    value; a sample that keeps producing new values (>= 90% distinct)
    scales linearly with the table (the duj1-style heuristic)."""
    if sampled <= 0:
        return 1.0
    if sampled >= total:
        return float(max(1, distinct))
    ratio = distinct / sampled
    if ratio >= 0.9:
        return float(max(distinct, round(total * ratio)))
    if ratio <= 0.1:
        return float(max(1, distinct))
    # partially saturated: grow with the square root of the scale-up,
    # a middle ground between "saturated" and "all-new-values"
    scale = math.sqrt(total / sampled)
    return float(min(total, max(distinct, round(distinct * scale))))


class StatisticsCatalog:
    """Everything the cardinality estimator and cost model may consult.

    Seedable and deterministic: observing the same datasets with the
    same ``seed`` and ``sample_size`` produces identical statistics.
    """

    def __init__(
        self,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = DEFAULT_SEED,
    ):
        if sample_size < 1:
            raise ValueError(f"sample size must be >= 1, got {sample_size!r}")
        self.sample_size = int(sample_size)
        self.seed = int(seed)
        self._tables: Dict[str, TableStats] = {}
        self._observed: Dict[str, int] = {}
        self._kernel_totals: Dict[str, int] = {}

    # -- building table statistics ------------------------------------------

    def observe_dataset(
        self, dataset: Dataset, name: Optional[str] = None
    ) -> TableStats:
        """Scan (or sample) ``dataset`` into full table statistics."""
        name = name or dataset.name
        total = len(dataset)
        rows = dataset.rows
        if total > self.sample_size:
            rng = random.Random(self.seed)
            sample = [rows[i] for i in sorted(
                rng.sample(range(total), self.sample_size)
            )]
        else:
            sample = rows
        sampled = len(sample)
        columns: Dict[str, ColumnStats] = {}
        for attribute in dataset.relation.attributes:
            col = attribute.name
            seen = set()
            nulls = 0
            numbers = []
            for row in sample:
                value = row.get(col)
                if value is None:
                    nulls += 1
                else:
                    if type(value) in (int, float):
                        numbers.append(value)
                    try:
                        seen.add(value)
                    except TypeError:  # set-valued (NF²) cells
                        seen.add(repr(value))
            ndv = _estimate_ndv(len(seen), sampled, total)
            fraction = (nulls / sampled) if sampled else 0.0
            bounds = (
                (min(numbers), max(numbers))
                if numbers and len(numbers) == sampled - nulls else None
            )
            columns[col] = ColumnStats(ndv, fraction, bounds)
        stats = TableStats(total, columns, sampled)
        self._tables[name] = stats
        return stats

    def observe_instance(self, instance: Instance) -> None:
        """Observe every dataset of an instance."""
        for dataset in instance:
            self.observe_dataset(dataset)

    def observe_rows(self, name: str, row_count: int) -> TableStats:
        """Record a cardinality-only table fact (no column sketches)."""
        existing = self._tables.get(name)
        if existing is not None:
            existing.row_count = int(row_count)
            return existing
        stats = TableStats(int(row_count))
        self._tables[name] = stats
        return stats

    # -- run feedback --------------------------------------------------------

    def observe_link(self, name: str, row_count: int) -> None:
        """Record the actual cardinality of a named dataflow edge/link."""
        self._observed[name] = int(row_count)

    def observe_link_counts(self, link_counts: Dict[str, int]) -> None:
        """Absorb an :class:`~repro.etl.engine.EtlRunStats`-style
        per-link row-count mapping."""
        for name, count in link_counts.items():
            self.observe_link(name, count)

    def absorb_metrics(self, metrics) -> int:
        """Pull observed cardinalities out of a
        :class:`~repro.obs.metrics.Metrics` registry (or a snapshot
        ``counters`` dict). Returns how many observations were absorbed.

        Reads ``etl.link.<name>.rows`` and ``ohm.operator.<uid>.rows_out``
        as per-edge/per-operator actuals, and keeps the global
        ``exec.kernel.*`` throughput counters for diagnostics."""
        counters = metrics if isinstance(metrics, dict) else (
            metrics.snapshot().get("counters", {})
        )
        absorbed = 0
        for key, value in counters.items():
            if key.startswith("etl.link.") and key.endswith(".rows"):
                self.observe_link(key[len("etl.link."):-len(".rows")], value)
                absorbed += 1
            elif key.startswith("ohm.operator.") and key.endswith(".rows_out"):
                uid = key[len("ohm.operator."):-len(".rows_out")]
                self._observed[uid] = int(value)
                absorbed += 1
            elif key.startswith("exec.kernel."):
                self._kernel_totals[key] = int(value)
        return absorbed

    def forget_observations(self) -> None:
        """Drop per-edge actuals (table statistics stay) — lets tests
        and the CLI compare pre- and post-feedback plans."""
        self._observed.clear()

    # -- lookups -------------------------------------------------------------

    def table(self, name: str) -> Optional[TableStats]:
        return self._tables.get(name)

    def row_count(self, name: str, default: Optional[int] = None):
        stats = self._tables.get(name)
        return stats.row_count if stats is not None else default

    def column(self, table: str, column: str) -> Optional[ColumnStats]:
        stats = self._tables.get(table)
        return stats.column(column) if stats is not None else None

    def observed(self, name: str) -> Optional[int]:
        """The actual cardinality recorded for an edge/link/operator."""
        return self._observed.get(name)

    def kernel_totals(self) -> Dict[str, int]:
        return dict(self._kernel_totals)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def covers(self, names: Iterable[str]) -> bool:
        """True when every named relation has table statistics."""
        return all(name in self._tables for name in names)

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return (
            f"StatisticsCatalog({len(self._tables)} tables, "
            f"{len(self._observed)} observed edges)"
        )


def catalog_for(instance: Instance, **kwargs) -> StatisticsCatalog:
    """Convenience: a catalog pre-populated from an instance."""
    catalog = StatisticsCatalog(**kwargs)
    catalog.observe_instance(instance)
    return catalog


__all__ = [
    "ColumnStats",
    "DEFAULT_SAMPLE_SIZE",
    "DEFAULT_SEED",
    "StatisticsCatalog",
    "TableStats",
    "catalog_for",
]

"""In-memory datasets and instances.

Rows are plain dicts (column name → Python value, ``None`` = NULL); a
:class:`Dataset` is an ordered *bag* of rows conforming to a
:class:`~repro.schema.model.Relation`. Bag semantics match both ETL links
(streams of records, duplicates allowed) and the default behaviour of OHM
operators.

An :class:`Instance` names several datasets — the input or output of a
job, an OHM graph, or a set of mappings.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.data.columns import checked_column
from repro.errors import SchemaError
from repro.schema.model import Relation
from repro.schema.types import coerce_value

Row = Dict[str, object]


class Dataset:
    """An ordered bag of rows over a relation schema."""

    def __init__(
        self,
        relation: Relation,
        rows: Iterable[Mapping] = (),
        validate: bool = True,
    ):
        self._relation = relation
        self._rows: Optional[List[Row]] = []
        self._block = None  # columnar backing (repro.exec.block.RowBlock)
        self._fused = None  # pipeline backing (repro.exec.fuse.FusedBlock)
        self._checked: Dict[Tuple, object] = {}  # with_relation memo
        for row in rows:
            self.append(row, validate=validate)

    @classmethod
    def adopt(cls, relation: Relation, rows: List[Row]) -> "Dataset":
        """Wrap a list of row dicts without copying or validating.

        The caller transfers ownership: ``rows`` must be freshly built
        dicts not aliased by anything that may mutate them (kernel
        outputs qualify). This is the trusted materialization path the
        compiled engines use; the interpreting oracle keeps the
        copy-and-validate constructor."""
        out = cls(relation)
        out._rows = rows
        return out

    @classmethod
    def adopt_block(cls, relation: Relation, block) -> "Dataset":
        """Wrap a :class:`~repro.exec.block.RowBlock` without converting
        it to rows — the columnar trusted-materialization path, so
        adjacent block-capable operators never round-trip through row
        dicts. The column-name set must match the relation exactly (the
        schema check the source boundary owns); rows materialize lazily
        on first :attr:`rows` access and the block stays available via
        :meth:`as_block`."""
        if set(block.columns) != set(relation.attribute_names):
            raise SchemaError(
                f"block columns {sorted(block.columns)} do not match "
                f"relation {relation.name!r} attributes "
                f"{sorted(relation.attribute_names)}"
            )
        out = cls(relation)
        out._rows = None
        out._block = block
        return out

    @classmethod
    def adopt_checked(cls, relation: Relation, block) -> "Dataset":
        """:meth:`adopt_block` for a block the caller has just validated
        against ``relation`` column by column: the :meth:`with_relation`
        memo starts primed for that relation's signature."""
        out = cls.adopt_block(relation, block)
        out._checked[_signature(relation)] = block
        return out

    @classmethod
    def adopt_fused(cls, relation: Relation, fused) -> "Dataset":
        """Wrap a :class:`~repro.exec.fuse.FusedBlock` pipeline without
        gathering its columns — the fused trusted-materialization path.
        Downstream fused operators keep chaining on the selection vector
        via :meth:`peek_fused`; anything that needs real storage (a
        block consumer, row access) breaks the chain through
        :meth:`as_block`, which gathers each column exactly once."""
        if set(fused.names) != set(relation.attribute_names):
            raise SchemaError(
                f"fused chain columns {sorted(fused.names)} do not match "
                f"relation {relation.name!r} attributes "
                f"{sorted(relation.attribute_names)}"
            )
        out = cls(relation)
        out._rows = None
        out._fused = fused
        return out

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def rows(self) -> List[Row]:
        if self._rows is None:
            # lazy row materialization of a block-/fused-backed dataset
            self._rows = self.as_block().to_rows(
                self._relation.attribute_names
            )
        return self._rows

    def peek_block(self):
        """The columnar backing if this dataset has one, else ``None``
        (no conversion is performed either way)."""
        return self._block

    def peek_fused(self):
        """The fused-pipeline backing if this dataset has one, else
        ``None`` (never materializes)."""
        return self._fused

    def as_block(self):
        """This dataset as a :class:`~repro.exec.block.RowBlock`,
        columnarizing (and caching) on first call for row-backed data
        and gathering a fused chain's surviving columns for
        fused-backed data. The block shares the dataset's values;
        columns are immutable by convention."""
        if self._block is None:
            if self._fused is not None:
                from repro.exec.fuse import materialize_fused

                self._block = materialize_fused(
                    self._fused, self._relation.attribute_names
                )
                self._fused = None
            else:
                from repro.exec.block import RowBlock

                self._block = RowBlock.from_rows(
                    self._relation.attribute_names, self._rows
                )
        return self._block

    @property
    def name(self) -> str:
        return self._relation.name

    def append(self, row: Mapping, validate: bool = True) -> None:
        """Append a row. When ``validate`` is set, unknown columns raise,
        missing columns become NULL, and values are checked (with lossless
        numeric coercion) against the attribute types."""
        rows = self.rows  # materializes a block/fused backing before mutation
        self._block = None  # the columnar form would go stale
        self._fused = None
        self._checked.clear()  # memoized validations would go stale
        if validate:
            unknown = set(row) - set(self._relation.attribute_names)
            if unknown:
                raise SchemaError(
                    f"row has columns {sorted(unknown)} not in relation "
                    f"{self._relation.name!r}"
                )
            normalized: Row = {}
            for attr in self._relation:
                value = row.get(attr.name)
                if value is None:
                    if not attr.nullable:
                        raise SchemaError(
                            f"NULL in non-nullable column "
                            f"{self._relation.name}.{attr.name}"
                        )
                    normalized[attr.name] = None
                else:
                    normalized[attr.name] = coerce_value(attr.dtype, value)
            rows.append(normalized)
        else:
            rows.append(dict(row))

    def extend(self, rows: Iterable[Mapping], validate: bool = True) -> None:
        for row in rows:
            self.append(row, validate=validate)

    def renamed(self, new_name: str) -> "Dataset":
        """Same rows over the relation renamed to ``new_name``."""
        out = Dataset(self._relation.renamed(new_name), validate=False)
        if self._rows is None:
            # block-/fused-backed: share the (immutable-by-convention)
            # columns / the chain (fused ops never mutate a chain)
            out._rows = None
            out._block = self._block
            out._fused = self._fused
        else:
            out._rows = [dict(r) for r in self._rows]
        return out

    def columns(self, names: Optional[Sequence[str]] = None) -> List[List[object]]:
        """One list a name (default: the attributes, in order); a name a
        row or the block lacks reads as NULL. Block-backed data hands
        out its own (immutable) lists; no rows are materialized."""
        names = self._relation.attribute_names if names is None else names
        if self._rows is not None:
            return [_row_column(self._rows, n) for n in names]
        block = self.as_block()
        nulls = [None] * block.length
        return [block.columns.get(n, nulls) for n in names]

    def with_relation(self, relation: Relation) -> "Dataset":
        """Same rows, re-validated against ``relation``.

        Validation is memoized per schema: the first call over a given
        (name, dtype, nullable) signature pays the full check and
        caches the normalized result as an immutable
        :class:`~repro.exec.block.RowBlock`; later calls with an
        equivalent schema share that block (every engine re-extracting
        the same source revalidates it for free). Only successful
        validations are cached — bad data raises on every call — and
        any mutation of this dataset drops the memo."""
        signature = _signature(relation)
        cached = self._checked.get(signature)
        if cached is None:
            cached = self._checked_columns(relation)
            if cached is None:  # a defect: the row path (append) words it
                cached = Dataset(relation, self.rows).as_block()
            self._checked[signature] = cached
        return Dataset.adopt_block(relation, cached)

    def _checked_columns(self, relation: Relation):
        """:meth:`append`'s checks, a column at a time and straight from
        the block when there is one: the validated block, or ``None`` on
        any defect."""
        names = relation.attribute_names
        rows = self._rows
        if rows is not None:
            # one length sweep: a row with more keys than the relation
            # names holds one it lacks; rows of exactly that many keys
            # hold them all unless a name is missing (a KeyError)
            lengths = set(map(len, rows))
            if lengths and max(lengths) > len(names):
                return None
            if lengths <= {len(names)}:
                try:
                    cols = [list(map(itemgetter(n), rows)) for n in names]
                except KeyError:
                    return None
            else:
                known = frozenset(names)
                if not all(map(known.issuperset, rows)):
                    return None
                cols = self.columns(names)
        elif len(self) and not set(self._relation.attribute_names) <= set(names):
            return None
        else:
            cols = self.columns(names)
        columns = {}
        for attr, col in zip(relation, cols):
            col = checked_column(attr.dtype, attr.nullable, col)
            if col is None:
                return None
            columns[attr.name] = col
        from repro.exec.block import RowBlock

        return RowBlock(columns, len(self))

    def head(self, n: int = 5) -> List[Row]:
        return self.rows[:n]

    def column(self, name: str) -> List[object]:
        self._relation.attribute(name)  # raise on unknown column
        if self._rows is None:
            if self._fused is not None:
                # single-column gather through the chain's selection —
                # the other columns stay ungathered
                return list(self._fused.column(name))
            return list(self._block.columns[name])
        return [row[name] for row in self._rows]

    def sort_key(self) -> List[Tuple]:
        """Canonical sortable projection of all rows, for bag comparison."""
        names = self._relation.attribute_names
        return sorted(
            tuple(_orderable(row.get(n)) for n in names) for row in self.rows
        )

    def same_bag(self, other: "Dataset") -> bool:
        """True when both datasets hold the same bag of rows (column
        order and row order are ignored; NULLs compare equal)."""
        if set(self._relation.attribute_names) != set(
            other._relation.attribute_names
        ):
            return False
        names = self._relation.attribute_names
        mine = sorted(
            tuple(_orderable(row.get(n)) for n in names) for row in self.rows
        )
        theirs = sorted(
            tuple(_orderable(row.get(n)) for n in names) for row in other.rows
        )
        return mine == theirs

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        if self._rows is None:
            if self._fused is not None:
                return self._fused.length
            return self._block.length
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Dataset({self._relation.name!r}, {len(self)} rows)"

    def to_table(self, limit: int = 20) -> str:
        """Pretty-print as an aligned text table (for examples & debug)."""
        names = list(self._relation.attribute_names)
        rows = [
            ["NULL" if row.get(n) is None else str(row.get(n)) for n in names]
            for row in self.rows[:limit]
        ]
        widths = [
            max([len(n)] + [len(r[i]) for r in rows]) for i, n in enumerate(names)
        ]
        def fmt(cells):
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = [fmt(names), "-+-".join("-" * w for w in widths)]
        lines += [fmt(r) for r in rows]
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)


def _row_column(rows: List[Row], name: str) -> List[object]:
    """Column ``name`` of row dicts: one C-level pass when every row
    holds it, per row (a ragged row reads NULL) when one does not."""
    try:
        return list(map(itemgetter(name), rows))
    except KeyError:
        return [row.get(name) for row in rows]


def _signature(relation: Relation) -> Tuple:
    """What a validation depends on: :meth:`Dataset.with_relation`'s key."""
    return tuple((a.name, a.dtype, a.nullable) for a in relation)


def _orderable(value: object) -> Tuple:
    """Map a value into a tuple orderable across types (None sorts first,
    then by type name, then value). Floats that equal ints compare equal
    (exactly: ``2**53`` and ``2**53 + 1`` do not)."""
    if value is None:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (1, "num", value)
    return (1, type(value).__name__, str(value))


class Instance:
    """A named collection of datasets (e.g. 'the source database')."""

    def __init__(self, datasets: Iterable[Dataset] = ()):
        self._datasets: Dict[str, Dataset] = {}
        for dataset in datasets:
            self.add(dataset)

    def add(self, dataset: Dataset) -> "Instance":
        if dataset.name in self._datasets:
            raise SchemaError(f"instance already holds dataset {dataset.name!r}")
        self._datasets[dataset.name] = dataset
        return self

    def put(self, dataset: Dataset) -> "Instance":
        """Add or replace."""
        self._datasets[dataset.name] = dataset
        return self

    def dataset(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            raise SchemaError(
                f"instance has no dataset {name!r}; has {sorted(self._datasets)}"
            ) from None

    @property
    def names(self) -> List[str]:
        return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self._datasets.values())

    def __len__(self) -> int:
        return len(self._datasets)

    def same_bags(self, other: "Instance") -> bool:
        """True when both instances hold the same dataset names and each
        pair is bag-equal."""
        if set(self.names) != set(other.names):
            return False
        return all(
            self._datasets[name].same_bag(other.dataset(name))
            for name in self._datasets
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}({len(ds)})" for name, ds in sorted(self._datasets.items())
        )
        return f"Instance({inner})"


__all__ = ["Row", "Dataset", "Instance"]

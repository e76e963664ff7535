"""Selection-vector chains: the one body of every columnar operator.

Gathering a complete intermediate :class:`~repro.exec.block.RowBlock` —
a ``take()`` copy of **all** columns — after every operator is what
dominates profile time on the operator chains the Orchid model produces
(Filter → Transformer scalar columns → Switch routing → a terminal
Aggregate/Dedup/Sort or a target materialization), not predicate or
scalar evaluation.

This module is the MonetDB/X100-style answer: a :class:`FusedBlock`
carries a *selection vector* alongside the original source block, so

* a filter narrows the selection (an index-list intersection) instead
  of gathering every column;
* a projection rebinds *handles* (name → source column, or name →
  computed column aligned to the selection) instead of copying;
* computed scalar columns are evaluated eagerly per operator — exactly
  the rows that reach that operator, so errors and rejects surface
  there — but only over the *surviving* selection, and only over the
  columns the operator reads (:func:`read_set`);
* columns are gathered at the chain's materialization point, and only
  the ones the consumer actually reads.

Every batched operator is written against a chain, once. Where the
chain is materialized is the planner's decision
(:meth:`repro.exec.ExpressionPlanner.materialize_fused`): the *block*
tier gathers it at every operator boundary, so each operator hands a
plain block-backed dataset downstream; the *fused* tier leaves it lazy
inside a :class:`~repro.data.dataset.Dataset` (``Dataset.adopt_fused``)
until a consumer needs a real block (a join build side, the row path,
``.rows``) — such operators are *chain breakers*, and a new chain starts
after them.

Observability (fused tier only — a gathering planner opens its chains
unobserved): ``exec.fuse.chains`` counts chains with at least one fused
operator, ``exec.fuse.operators`` the operators fused into them, and
``exec.fuse.intermediate_rows_avoided`` the rows that were *not* copied
into an intermediate block at an operator boundary. The
``exec.fuse.chain`` span wraps each chain's materialization gather
(suppressed inside parallel worker threads, where the tracer's span
stack is not available).

Everything here is deliberately import-light: only the block container
and the worker-thread flag, so :mod:`repro.exec` can re-export the
module without cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exec.block import RowBlock
from repro.exec.parallel import _in_worker

#: a handle payload: a key into the base block's columns (lazy — gather
#: deferred to materialization), or a list already aligned to the
#: chain's current selection (a computed column).
Handle = Union[str, List[Any]]


class FusedBlock:
    """A block pipeline in flight: a source block, a selection vector,
    and per-name column handles.

    ``base``       the source :class:`RowBlock` the chain started from.
    ``selection``  row indices into ``base`` (``None`` = identity).
    ``handles``    output name → :data:`Handle`. A ``str`` payload is a
                   base column gathered lazily through the selection; a
                   ``list`` payload is a computed column already aligned
                   to the selection.
    ``length``     number of surviving rows (``len(selection)``).

    Instances are immutable: every operator returns a new chain sharing
    the base, the gather cache, and whatever handles it passes through.
    The gather cache (``id(base column) → gathered list``) mirrors
    ``RowBlock.take``'s aliasing behaviour — a base column referenced
    under several names is gathered once per selection.
    """

    __slots__ = (
        "base",
        "selection",
        "handles",
        "length",
        "ops",
        "obs",
        "_gathered",
        "_state",
    )

    def __init__(
        self,
        base: RowBlock,
        selection: Optional[List[int]],
        handles: Dict[str, Handle],
        length: int,
        ops: int,
        obs=None,
        gathered: Optional[Dict[int, List[Any]]] = None,
        state: Optional[dict] = None,
    ):
        self.base = base
        self.selection = selection
        self.handles = handles
        self.length = length
        #: fused operators applied so far (span attribute)
        self.ops = ops
        #: the Observability captured when the chain started (None when
        #: the planner gathers at every boundary) — used by fused_op and
        #: the materialization span, which may fire lazily downstream
        self.obs = obs
        self._gathered: Dict[int, List[Any]] = (
            {} if gathered is None else gathered
        )
        # shared per-source bookkeeping: all chains narrowed/projected
        # from one fuse_source() share this cell so the chain is counted
        # once, at its first fused operator
        self._state = {"counted": False} if state is None else state

    # -- reading ------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return list(self.handles)

    def column(self, name: str) -> List[Any]:
        """The named column aligned to the current selection. Base
        columns gather through the selection on first access (cached);
        computed columns return as-is. Treat the result as immutable."""
        payload = self.handles[name]
        if not isinstance(payload, str):
            return payload
        col = self.base.columns[payload]
        if self.selection is None:
            return col
        gathered = self._gathered.get(id(col))
        if gathered is None:
            sel = self.selection
            gathered = self._gathered[id(col)] = [col[i] for i in sel]
        return gathered

    def view(self, names: Optional[Sequence[str]] = None) -> RowBlock:
        """A real :class:`RowBlock` over ``names`` (default: all
        handles) — the operator-local read-set view fused kernels
        evaluate predicates and scalars against."""
        names = self.names if names is None else list(names)
        return RowBlock({n: self.column(n) for n in names}, self.length)

    def head_rows(self, n: int, names: Sequence[str]) -> List[dict]:
        """The first ``n`` rows as dicts (Peek's sample) without
        gathering whole columns."""
        n = max(0, min(n, self.length))
        cols = []
        sel = self.selection
        for name in names:
            payload = self.handles[name]
            if isinstance(payload, str):
                col = self.base.columns[payload]
                head = (
                    col[:n] if sel is None else [col[i] for i in sel[:n]]
                )
            else:
                head = payload[:n]
            cols.append(head)
        return [dict(zip(names, values)) for values in zip(*cols)] if cols else [
            {} for _ in range(n)
        ]

    # -- fused operators ----------------------------------------------------

    def narrow(self, positions: Sequence[int]) -> "FusedBlock":
        """Keep only ``positions`` (indices into the *current* 0..length
        rows) — the fused form of a filter/route gather. Base handles
        stay lazy; computed columns are taken by position (aliasing
        preserved)."""
        sel = self.selection
        if sel is None:
            new_sel = list(positions)
        else:
            new_sel = [sel[p] for p in positions]
        shared: Dict[int, List[Any]] = {}
        handles: Dict[str, Handle] = {}
        for name, payload in self.handles.items():
            if isinstance(payload, str):
                handles[name] = payload
            else:
                taken = shared.get(id(payload))
                if taken is None:
                    taken = shared[id(payload)] = [
                        payload[p] for p in positions
                    ]
                handles[name] = taken
        return FusedBlock(
            self.base,
            new_sel,
            handles,
            len(new_sel),
            self.ops,
            self.obs,
            state=self._state,
        )

    def project(self, items: Sequence[Tuple[str, str]]) -> "FusedBlock":
        """Rename/subset handles — ``items`` are ``(output name, current
        name)`` pairs. Pure bookkeeping: no column is touched."""
        handles = {out: self.handles[source] for out, source in items}
        return FusedBlock(
            self.base,
            self.selection,
            handles,
            self.length,
            self.ops,
            self.obs,
            gathered=self._gathered,
            state=self._state,
        )

    def derive(self, handles: Dict[str, Handle]) -> "FusedBlock":
        """A chain with exactly these handles over the same selection
        (a Transformer/Project output link: pass-through handles plus
        freshly computed columns)."""
        return FusedBlock(
            self.base,
            self.selection,
            dict(handles),
            self.length,
            self.ops,
            self.obs,
            gathered=self._gathered,
            state=self._state,
        )

    def with_handles(self, extra: Dict[str, Handle]) -> "FusedBlock":
        """This chain's handles extended/shadowed by ``extra`` (stage
        variables, surrogate keys, dotted environment aliases)."""
        handles = dict(self.handles)
        handles.update(extra)
        return FusedBlock(
            self.base,
            self.selection,
            handles,
            self.length,
            self.ops,
            self.obs,
            gathered=self._gathered,
            state=self._state,
        )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"FusedBlock({len(self.handles)} cols × {self.length} rows, "
            f"{self.ops} ops fused)"
        )


# -- chain lifecycle -----------------------------------------------------------


def fuse_source(block: RowBlock, obs=None) -> FusedBlock:
    """Start a chain over ``block`` (identity selection, every column a
    lazy handle)."""
    return FusedBlock(
        block,
        None,
        {n: n for n in block.columns},
        block.length,
        0,
        obs,
    )


def fused_op(chain: FusedBlock, rows_avoided: int = 0) -> None:
    """Book one operator on ``chain``: bumps the chain's operator count
    and, on an observed chain (one a fusing planner opened), the
    ``exec.fuse.*`` metrics. ``rows_avoided`` is the rows the block
    tier copies into an intermediate block at this operator boundary.
    The chain itself is counted once, at its first fused operator (so
    chains that immediately fall back to the row kernels are not
    reported)."""
    chain.ops += 1
    obs = chain.obs
    if obs is not None and obs.enabled:
        metrics = obs.metrics
        state = chain._state
        if not state["counted"]:
            state["counted"] = True
            metrics.count("exec.fuse.chains")
        metrics.count("exec.fuse.operators")
        if rows_avoided:
            metrics.count("exec.fuse.intermediate_rows_avoided", rows_avoided)


def read_set(
    exprs: Iterable, resolve: Callable
) -> Optional[List[str]]:
    """The column keys ``exprs`` read under ``resolve``, deduplicated in
    first-reference order — the per-operator read-set dead-column
    pruning gathers against. ``None`` when any reference fails to
    resolve (the caller must fall back to the full view)."""
    names: Dict[str, bool] = {}
    for expr in exprs:
        for ref in expr.column_refs():
            key = resolve(ref)
            if key is None:
                return None
            names[key] = True
    return list(names)


def materialize_fused(
    chain: FusedBlock,
    names: Optional[Sequence[str]] = None,
    fill_missing: bool = False,
) -> RowBlock:
    """The chain's single materialization point: gather exactly the
    ``names`` columns (default: every handle) through the selection.
    With ``fill_missing``, names without a handle become NULL columns
    (trusted target delivery semantics). Emits the ``exec.fuse.chain``
    span around the gather — except inside parallel worker threads,
    where only the (locked) metrics registry is thread-safe."""
    names = chain.names if names is None else list(names)
    obs = chain.obs
    span = None
    if (
        obs is not None
        and obs.enabled
        and not getattr(_in_worker, "active", False)
    ):
        span = obs.tracer.span(
            "exec.fuse.chain", operators=chain.ops, rows=chain.length
        )
    if span is not None:
        with span:
            return _gather(chain, names, fill_missing)
    return _gather(chain, names, fill_missing)


def _gather(
    chain: FusedBlock, names: Sequence[str], fill_missing: bool
) -> RowBlock:
    columns: Dict[str, List[Any]] = {}
    for name in names:
        if fill_missing and name not in chain.handles:
            columns[name] = [None] * chain.length
        else:
            columns[name] = chain.column(name)
    return RowBlock(columns, chain.length)


__all__ = [
    "FusedBlock",
    "Handle",
    "fuse_source",
    "fused_op",
    "materialize_fused",
    "read_set",
]

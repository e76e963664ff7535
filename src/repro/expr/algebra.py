"""Symbolic manipulation of expressions.

These helpers are the workhorses of the translation layers:

* :func:`substitute` — replace column references by expressions; this is
  how derivations compose through PROJECT operators and how mapping
  composition performs view unfolding (paper section V-B).
* :func:`negate` / :func:`conjoin` / :func:`disjoin` — predicate algebra
  used by the Filter-stage compiler (row-only-once mode negates the
  predicates of earlier outputs, paper Figure 6) and by rewrites.
* :func:`rename_qualifiers` / :func:`strip_qualifiers` — move expressions
  between scopes (stage-local link names vs. mapping-level relation names).
* :func:`split_conjuncts` — decompose a WHERE into atomic conjuncts, used
  by the mapping renderer, pushdown, and the Figure 9 template compiler.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.expr.ast import (
    TRUE,
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    UnaryOp,
)


def transform(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Bottom-up rewrite: ``fn`` is applied to every node (children first);
    returning ``None`` keeps the node."""
    new_children = [transform(child, fn) for child in expr.children()]
    if new_children != list(expr.children()):
        expr = expr.replace_children(new_children)
    replacement = fn(expr)
    return expr if replacement is None else replacement


def substitute(expr: Expr, replacements: Mapping[ColumnRef, Expr]) -> Expr:
    """Replace each column reference appearing as a key of
    ``replacements`` by its expression. Unqualified keys also match
    qualified references with the same column name (and vice versa is NOT
    true: a qualified key matches only that qualified reference).

    >>> from repro.expr.parser import parse
    >>> out = substitute(parse('a + b'), {ColumnRef('a'): parse('x * 2')})
    >>> out.to_sql()
    '((x * 2) + b)'
    """
    by_key: Dict[tuple, Expr] = {ref.key(): e for ref, e in replacements.items()}
    unqualified: Dict[str, Expr] = {
        ref.name: e for ref, e in replacements.items() if ref.qualifier is None
    }

    def replace(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef):
            exact = by_key.get(node.key())
            if exact is not None:
                return exact
            if node.qualifier is not None:
                loose = unqualified.get(node.name)
                if loose is not None:
                    return loose
        return None

    return transform(expr, replace)


def substitute_by_name(expr: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Like :func:`substitute` with unqualified string keys: every
    reference to a named column is replaced, whatever its qualifier."""

    def replace(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef):
            return replacements.get(node.name)
        return None

    return transform(expr, replace)


def rename_qualifiers(expr: Expr, renaming: Mapping[Optional[str], Optional[str]]) -> Expr:
    """Rename column-reference qualifiers; qualifiers not in ``renaming``
    are kept."""

    def replace(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef) and node.qualifier in renaming:
            return node.with_qualifier(renaming[node.qualifier])
        return None

    return transform(expr, replace)


def strip_qualifiers(expr: Expr) -> Expr:
    """Drop all qualifiers (used when a stage sees a single input link)."""

    def replace(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef) and node.qualifier is not None:
            return node.unqualified()
        return None

    return transform(expr, replace)


def qualify(expr: Expr, qualifier: str) -> Expr:
    """Attach ``qualifier`` to every unqualified column reference."""

    def replace(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef) and node.qualifier is None:
            return node.with_qualifier(qualifier)
        return None

    return transform(expr, replace)


def negate(expr: Expr) -> Expr:
    """Logical negation with light simplification (``NOT NOT p = p``,
    comparison flipping, De-Morgan-free otherwise). Note that under SQL
    three-valued logic ``negate`` preserves *unknown*, which is exactly
    what the Filter stage's row-only-once semantics require: a row whose
    predicate is unknown goes to neither output."""
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return expr.operand
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        return Literal(not expr.value)
    if isinstance(expr, BinaryOp) and expr.op in ("=", "<>", "<", "<=", ">", ">="):
        flipped = {"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
        return BinaryOp(flipped[expr.op], expr.left, expr.right)
    return UnaryOp("NOT", expr)


def conjoin(conjuncts: Iterable[Optional[Expr]]) -> Expr:
    """AND together the non-trivial conjuncts; empty input yields TRUE."""
    result: Optional[Expr] = None
    for conjunct in conjuncts:
        if conjunct is None or conjunct == TRUE:
            continue
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result if result is not None else TRUE


def disjoin(disjuncts: Iterable[Optional[Expr]]) -> Expr:
    """OR together the disjuncts; empty input yields FALSE."""
    result: Optional[Expr] = None
    for disjunct in disjuncts:
        if disjunct is None:
            continue
        result = disjunct if result is None else BinaryOp("OR", result, disjunct)
    return result if result is not None else Literal(False)


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten a tree of ANDs into its conjuncts (TRUE disappears)."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    if expr == TRUE:
        return []
    return [expr]


def is_trivially_true(expr: Expr) -> bool:
    return isinstance(expr, Literal) and expr.value is True


def is_join_condition(expr: Expr) -> bool:
    """True for an equality between columns of two different qualifiers —
    the shape mapping tools render as a join line."""
    return (
        isinstance(expr, BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
        and expr.left.qualifier != expr.right.qualifier
    )


def references_only(expr: Expr, qualifiers: Iterable[Optional[str]]) -> bool:
    """True when every column reference in ``expr`` is qualified by one of
    ``qualifiers`` (used by selection pushdown and pushdown analysis)."""
    allowed = set(qualifiers)
    return all(ref.qualifier in allowed for ref in expr.column_refs())


def is_simple_rename(expr: Expr) -> bool:
    """True when the derivation is just a column reference (the shape
    BASIC PROJECT permits)."""
    return isinstance(expr, ColumnRef)


__all__ = [
    "transform",
    "substitute",
    "substitute_by_name",
    "rename_qualifiers",
    "strip_qualifiers",
    "qualify",
    "negate",
    "conjoin",
    "disjoin",
    "split_conjuncts",
    "is_trivially_true",
    "is_join_condition",
    "references_only",
    "is_simple_rename",
]

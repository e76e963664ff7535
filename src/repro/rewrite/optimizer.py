"""Fixpoint driver applying rewrite rules to OHM graphs.

Orchid runs a "generic rewrite step" right after stage compilation to
remove the redundant operators compilers may emit, and exposes rewriting
as an optimization service at the OHM level (paper sections III and V-A).

Passing an :class:`~repro.obs.Observability` measures the service:
``rewrite.rule.<name>.attempted`` / ``.fired`` counters per rule, a
``rewrite.passes`` counter, ``rewrite.graph.operators_removed`` (the
graph-size delta across the whole optimization), and a
``rewrite.optimize`` span carrying before/after operator counts.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import GraphError
from repro.obs import NULL_OBS, Observability
from repro.ohm.graph import OhmGraph
from repro.rewrite.rules import CLEANUP_RULES, DEFAULT_RULES, Rule


class Optimizer:
    """Applies a rule set to a graph until no rule fires (or a safety
    bound on iterations is hit).

    :ivar rules: rules tried in order each pass.
    :ivar max_passes: iteration bound guarding against oscillation.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        max_passes: int = 200,
        obs: Optional[Observability] = None,
    ):
        self.rules: List[Rule] = list(rules if rules is not None else DEFAULT_RULES)
        self.max_passes = max_passes
        self._obs = obs or NULL_OBS

    def optimize(self, graph: OhmGraph) -> "OptimizationReport":
        """Rewrite ``graph`` in place to a fixpoint; returns a report of
        which rules fired.

        Schema propagation runs once at the start of each *pass* rather
        than once per rewrite: within a pass each rule fires repeatedly
        until it is exhausted (rules tolerate locally stale edge schemas
        — removals keep the consumer-facing schema, and rules skip edges
        whose schema is not yet computed), then the next pass
        re-propagates and retries. The graph is at its fixpoint after a
        pass in which no rule fired; that pass started from fresh
        schemas and changed nothing, so it is not propagated again."""
        metrics = self._obs.metrics
        recording = metrics.enabled
        report = OptimizationReport()
        with self._obs.tracer.span(
            "rewrite.optimize", graph=graph.name
        ) as span:
            operators_before = len(graph.operators)
            for _pass in range(self.max_passes):
                metrics.count("rewrite.passes")
                graph.propagate_schemas()
                fired_this_pass = 0
                progress = True
                while progress and report.total < self.max_passes * 100:
                    progress = False
                    for rule in self.rules:
                        while True:
                            fired = rule(graph)
                            if recording:
                                metrics.count(
                                    f"rewrite.rule.{rule.name}.attempted"
                                )
                                if fired:
                                    metrics.count(
                                        f"rewrite.rule.{rule.name}.fired"
                                    )
                            if not fired:
                                break
                            report.record(rule.name)
                            fired_this_pass += 1
                            progress = True
                if not fired_this_pass:
                    operators_after = len(graph.operators)
                    metrics.count(
                        "rewrite.graph.operators_removed",
                        operators_before - operators_after,
                    )
                    span.set(
                        operators_before=operators_before,
                        operators_after=operators_after,
                        rewrites=report.total,
                    )
                    return report
        raise GraphError(
            f"optimizer did not reach a fixpoint in {self.max_passes} passes; "
            f"fired: {report.firings}"
        )


class OptimizationReport:
    """Which rules fired, in order, with counts."""

    def __init__(self):
        self.firings: List[str] = []

    def record(self, rule_name: str) -> None:
        self.firings.append(rule_name)

    @property
    def total(self) -> int:
        return len(self.firings)

    def count(self, rule_name: str) -> int:
        return sum(1 for name in self.firings if name == rule_name)

    def __repr__(self) -> str:
        return f"OptimizationReport({self.total} rewrites: {self.firings})"


def cleanup(
    graph: OhmGraph, obs: Optional[Observability] = None
) -> OptimizationReport:
    """The post-compilation cleanup pass: remove redundant (empty)
    operators only; no semantic reshaping."""
    return Optimizer(CLEANUP_RULES, obs=obs).optimize(graph)


def optimize(
    graph: OhmGraph,
    rules: Optional[Sequence[Rule]] = None,
    obs: Optional[Observability] = None,
) -> OptimizationReport:
    """Full optimization with the default (or a custom) rule set."""
    return Optimizer(rules, obs=obs).optimize(graph)


__all__ = ["Optimizer", "OptimizationReport", "cleanup", "optimize"]

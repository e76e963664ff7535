"""The flags-and-mode → tier rule, over every combination of its inputs.

``RunOptions.resolve`` used to learn the rule by building a throw-away
``ExpressionPlanner``; both now call ``repro.exec.resolve_tier``. The
reference below is the rule as the planner's constructor spelled it
before that, with the defaults inlined, so the one function is checked
against an independent statement of what both callers must see."""

import itertools

import pytest

from repro import config
from repro.exec import ExpressionPlanner
from repro.exec.run import RunOptions

FLAG = (None, False, True)
MODE = (None, "rows", "block", "parallel", "auto")
WORKERS = (None, 1, 4)
TIER_FIELDS = ("compiled", "batched", "fused", "parallel", "workers", "mode")


@pytest.fixture(autouse=True)
def _no_ambient_environment(monkeypatch):
    for option in config.OPTIONS.values():
        for variable, _parse in option.env:
            monkeypatch.delenv(variable, raising=False)


def _default(name, value):
    return config.OPTIONS[name].default if value is None else value


def reference_planner(compiled, batched, fused, parallel, workers, mode):
    """The six attributes of ``ExpressionPlanner(None, …)``."""
    compiled = _default("compiled", compiled)
    batched = compiled and _default("batched", batched)
    workers = _default("workers", workers)
    parallel = batched and workers >= 2 and _default("parallel", parallel)
    if mode == "rows":
        batched = False
        parallel = False
    elif mode == "block":
        batched = compiled
        parallel = False
    elif mode == "parallel":
        batched = compiled
        parallel = batched and workers >= 2
    fused = batched and _default("fused", fused)
    return (compiled, batched, fused, parallel, workers, mode)


def reference_options(compiled, batched, fused, parallel, workers, mode):
    """``RunOptions.resolve``'s six tier fields: the planner's, except
    that without a mode the wavefront needs no block kernels, and under
    ``mode="auto"`` ``fused`` is what was asked for (each run re-decides
    whether it is batched)."""
    fields = dict(zip(TIER_FIELDS, reference_planner(
        compiled, batched, fused, parallel, workers, mode
    )))
    if mode is None:
        fields["parallel"] = (
            _default("parallel", parallel) and fields["workers"] >= 2
        )
    if mode == "auto":
        fields["fused"] = _default("fused", fused)
    return tuple(fields[name] for name in TIER_FIELDS)


@pytest.mark.parametrize("mode", MODE)
@pytest.mark.parametrize("workers", WORKERS)
def test_every_flag_combination(mode, workers):
    for compiled, batched, fused, parallel in itertools.product(FLAG, repeat=4):
        asked = dict(
            compiled=compiled, batched=batched, fused=fused,
            parallel=parallel, workers=workers, mode=mode,
        )
        planner = ExpressionPlanner(None, **asked)
        assert tuple(
            getattr(planner, name) for name in TIER_FIELDS
        ) == reference_planner(**asked), asked
        options = RunOptions.resolve(**asked)
        assert tuple(
            getattr(options, name) for name in TIER_FIELDS
        ) == reference_options(**asked), asked
        # the run's planner is the engine's tier as the planner sees it:
        # nothing is read from repro.config a second time
        with config.overriding(
            compiled=not options.compiled, batched=not options.batched,
            fused=not options.fused, parallel=True, workers=7, mode="auto",
        ):
            run = options.planner(None)
        assert (run.compiled, run.batched, run.workers, run.mode) == (
            options.compiled, options.batched, options.workers, options.mode
        ), asked
        assert run.parallel == (options.batched and options.parallel), asked
        assert run.fused == (options.batched and options.fused), asked

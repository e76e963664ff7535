"""The flags-and-mode → tier rule, over every combination of its inputs.

``RunOptions.resolve`` and ``ExpressionPlanner`` both call
``repro.exec.resolve_tier``. The reference below is the rule with the
defaults inlined, so the one function is checked against an independent
statement of what both callers must see. The degradation ladder each
combination builds is enumerated too."""

import itertools

import pytest

from repro import config
from repro.exec import ExpressionPlanner
from repro.exec.run import RunOptions, TierLadder

FLAG = (None, False, True)
MODE = (None, "rows", "block", "parallel", "auto")
WORKERS = (None, 1, 4)
TIER_FIELDS = ("compiled", "batched", "fused", "parallel", "workers", "mode")
PLANNER_FIELDS = ("compiled", "batched", "fused")

pytestmark = pytest.mark.usefixtures("no_ambient_environment")


def _default(name, value):
    return config.OPTIONS[name].default if value is None else value


def reference_planner(compiled, batched, fused, mode):
    """The three attributes of ``ExpressionPlanner(None, …)``: a planner
    lowers expressions, so the scheduler's ``parallel`` / ``workers``
    are not its keywords. ``auto`` names the block kernels, as ``block``
    and ``parallel`` do."""
    compiled = _default("compiled", compiled)
    batched = compiled and _default("batched", batched)
    if mode == "rows":
        batched = False
    elif mode in ("block", "parallel", "auto"):
        batched = compiled
    fused = batched and _default("fused", fused)
    return (compiled, batched, fused)


def reference_options(compiled, batched, fused, parallel, workers, mode):
    """``RunOptions.resolve``'s six tier fields: the planner's three,
    the mode as given, and the scheduler's two — without a mode and
    under ``auto`` (which names kernels, not the scheduler) the
    wavefront follows the ``parallel`` option and needs no block
    kernels; a pinned mode decides it."""
    compiled, batched, fused = reference_planner(compiled, batched, fused, mode)
    workers = _default("workers", workers)
    if mode in ("rows", "block"):
        parallel = False
    elif mode == "parallel":
        parallel = batched and workers >= 2
    else:
        parallel = _default("parallel", parallel) and workers >= 2
    return (compiled, batched, fused, parallel, workers, mode)


@pytest.mark.parametrize("mode", MODE)
@pytest.mark.parametrize("workers", WORKERS)
def test_every_flag_combination(mode, workers):
    for compiled, batched, fused, parallel in itertools.product(FLAG, repeat=4):
        lowering = dict(compiled=compiled, batched=batched, fused=fused, mode=mode)
        asked = dict(lowering, parallel=parallel, workers=workers)
        planner = ExpressionPlanner(None, **lowering)
        assert tuple(
            getattr(planner, name) for name in PLANNER_FIELDS
        ) == reference_planner(**lowering), asked
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
        assert (run.compiled, run.batched, run.fused) == (
            options.compiled, options.batched, options.fused
        ), asked


@pytest.mark.parametrize("mode", MODE)
@pytest.mark.parametrize("workers", WORKERS)
def test_the_ladder_is_the_run_tier_then_the_oracle(mode, workers):
    """Every tier combination builds at most two rungs: the run's
    planner, then — only when it compiles and ``degrade`` is on — the
    oracle, pinned against any process default."""
    for compiled, batched, fused, parallel, degrade in itertools.product(
        FLAG, FLAG, FLAG, FLAG, (True, False)
    ):
        asked = dict(
            compiled=compiled, batched=batched, fused=fused,
            parallel=parallel, workers=workers, mode=mode,
        )
        options = RunOptions.resolve(degrade=degrade, **asked)
        with config.overriding(compiled=True, batched=True, mode="block"):
            rungs = TierLadder(options.planner(None), options).rungs
        top = (options.compiled, options.batched, options.fused)
        assert (rungs[0].compiled, rungs[0].batched, rungs[0].fused) == top
        if degrade and options.compiled:
            assert len(rungs) == 2, asked
            oracle = rungs[1]
            assert (oracle.compiled, oracle.batched, oracle.fused) == (
                False, False, False
            ), asked
        else:
            assert len(rungs) == 1, asked


def test_default_compiled_env_var(monkeypatch):
    monkeypatch.delenv("REPRO_COMPILED", raising=False)
    assert config.resolve("compiled") is True
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert config.resolve("compiled") is False
    assert config.resolve("compiled", None) is False
    assert config.resolve("compiled", True) is True
    monkeypatch.setenv("REPRO_COMPILED", "1")
    assert config.resolve("compiled") is True


def test_set_default_compiled_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    with config.overriding(compiled=True):
        assert config.resolve("compiled") is True
    assert config.resolve("compiled") is False


def test_interpreted_planner_reports_mode():
    assert ExpressionPlanner(compiled=False).compiled is False
    assert ExpressionPlanner(compiled=True).compiled is True

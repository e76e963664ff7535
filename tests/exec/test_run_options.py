"""The tier rule, over every combination of its inputs.

``compiled`` is the only tier option: ``RunOptions.resolve`` and
``ExpressionPlanner`` both read it through ``repro.config``. The
keywords of the retired tiers (``batched``, ``fused``, ``parallel``,
``workers``, ``mode``) are still accepted, because the benchmark
harness passes them; each is dropped with one ``DeprecationWarning``
and changes nothing. What each combination runs on is enumerated too:
one planner, at the run's tier."""

import functools
import itertools
import warnings

import pytest

from repro import config
from repro.compile import compile_job
from repro.etl import EtlEngine, Job
from repro.exec import ExpressionPlanner
from repro.exec.run import RETIRED_KEYWORDS, RunOptions, start_run
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.ohm.subtypes import reset_keygen_sequences
from repro.workloads import build_kitchen_sink_job, generate_kitchen_sink_instance

FLAG = (None, False, True)
MODE = (None, "rows", "block", "parallel", "auto")
WORKERS = (None, 1, 4)

pytestmark = pytest.mark.usefixtures("no_ambient_environment")


def _warned(caught):
    """The retired keyword each recorded ``DeprecationWarning`` names."""
    return [
        name
        for warning in caught
        if issubclass(warning.category, DeprecationWarning)
        for name in RETIRED_KEYWORDS
        if str(warning.message).startswith(repr(name))
    ]


def _resolve(**asked):
    """``RunOptions.resolve(**asked)`` and the retired keywords it
    warned about."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        options = RunOptions.resolve(**asked)
    return options, _warned(caught)


def _asked(mode, workers, batched, fused, parallel, **tier):
    """The stated keywords only: an absent one is not a retired one."""
    retired = dict(
        mode=mode, workers=workers, batched=batched, fused=fused,
        parallel=parallel,
    )
    return {k: v for k, v in retired.items() if v is not None}, tier


@pytest.mark.parametrize("mode", MODE)
@pytest.mark.parametrize("workers", WORKERS)
def test_every_flag_combination(mode, workers):
    """Whatever retired keywords a caller states, the tier is
    ``compiled`` as resolved, each stated name warns once, and the
    run's planner reads nothing from repro.config a second time."""
    for compiled, batched, fused, parallel in itertools.product(FLAG, repeat=4):
        retired, tier = _asked(
            mode, workers, batched, fused, parallel, compiled=compiled
        )
        asked = dict(retired, **tier)
        options, warned = _resolve(**asked)
        expected = config.OPTIONS["compiled"].default if compiled is None else compiled
        assert options.compiled is expected, asked
        assert sorted(warned) == sorted(retired), asked
        assert ExpressionPlanner(None, compiled).compiled is expected
        with config.overriding(compiled=not options.compiled):
            run = options.planner(None)
        assert run.compiled is options.compiled, asked


@pytest.mark.parametrize("mode", MODE)
@pytest.mark.parametrize("workers", WORKERS)
def test_the_ladder_is_the_run_tier_then_the_oracle(mode, workers):
    """The ladder is one rung now: every combination's run gets one
    planner from ``start_run``, at the run's tier against any process
    default. The oracle is the planner of a ``compiled=False`` run,
    never a rung beneath a compiled one, and ``degrade`` is an unknown
    keyword."""
    for compiled, batched, fused, parallel in itertools.product(FLAG, repeat=4):
        retired, tier = _asked(
            mode, workers, batched, fused, parallel, compiled=compiled
        )
        options, _warned = _resolve(**retired, **tier)
        with config.overriding(compiled=not options.compiled):
            planner = start_run(options, Job("empty"), None)
        assert planner.compiled is options.compiled, retired
        with pytest.raises(TypeError, match="degrade"):
            _resolve(degrade=True, **retired, **tier)


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


#: the keyword sets the benchmark harness builds its timed and
#: tier-sweep engines with
HARNESS_KEYWORDS = {
    "auto": dict(mode="auto", workers=2),
    "rows": dict(mode="rows"),
    "block": dict(batched=True, fused=False),
    "fused": dict(batched=True, fused=True),
    "parallel": dict(mode="parallel", workers=2),
}

ENGINES = {"etl": EtlEngine, "ohm": OhmExecutor, "mapping": MappingExecutor}


@functools.lru_cache(maxsize=None)
def _kitchen_sink():
    """The plan per runtime, the instance at 2 000 orders and the
    ``compiled=False`` targets (the ETL oracle's for every runtime: the
    mapping reference reads a join as a cross product). No surrogate
    key: the mapping runtime enumerates rows in another order."""
    job = build_kitchen_sink_job(with_surrogate_key=False)
    graph = compile_job(job)
    plans = {"etl": job, "ohm": graph, "mapping": ohm_to_mappings(graph)}
    instance = generate_kitchen_sink_instance(2000, 100)
    return plans, instance, EtlEngine(compiled=False).execute(job, instance)


def _run(runtime, **keywords):
    """Targets, the ``exec.*`` / ``etl.*`` / ``ohm.*`` / ``mapping.*``
    counters and the retired names warned about, of one run."""
    plans, instance, _oracle = _kitchen_sink()
    obs = Observability(stats=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine = ENGINES[runtime](obs=obs, **keywords)
    reset_keygen_sequences()
    targets = engine.execute(plans[runtime], instance)
    counters = {
        key: value
        for key, value in obs.metrics.snapshot()["counters"].items()
        if key.startswith(("exec.", "etl.", "ohm.", "mapping."))
    }
    return targets, counters, _warned(caught)


@functools.lru_cache(maxsize=None)
def _plain(runtime):
    return _run(runtime)


class TestRetiredKeywords:
    """The harness's five keyword sets on the kitchen sink, per runtime:
    each runs the program an engine with no keyword runs."""

    @pytest.mark.parametrize("keywords", list(HARNESS_KEYWORDS))
    @pytest.mark.parametrize("runtime", list(ENGINES))
    def test_a_retired_keyword_changes_nothing_but_warns(self, runtime, keywords):
        asked = HARNESS_KEYWORDS[keywords]
        targets, counters, warned = _run(runtime, **asked)
        _plans, _instance, oracle = _kitchen_sink()
        assert targets.same_bags(oracle)
        _targets, plain_counters, plain_warned = _plain(runtime)
        assert plain_warned == []
        assert counters == plain_counters
        assert any(key.startswith("exec.fuse.") for key in counters)
        assert sorted(warned) == sorted(asked)

    @pytest.mark.parametrize("runtime", list(ENGINES))
    def test_an_unknown_keyword_is_still_a_type_error(self, runtime):
        with pytest.raises(TypeError, match="bogus"):
            ENGINES[runtime](bogus=1)
        with pytest.raises(TypeError, match="unknown option"):
            config.overriding(mode="auto")

"""The options table: kwarg > ``overriding`` > env > default."""

import pytest

from repro import config
from repro.config import Option, check_mode, check_policy, parse_bool
from repro.errors import ValidationError

WORKERS = config.OPTIONS["workers"].default

# CI runs this suite under REPRO_* scenarios; these tests state every
# variable they mean
pytestmark = pytest.mark.usefixtures("no_ambient_environment")


class TestPrecedence:
    def test_kwarg_beats_setter_beats_env_beats_default(self, monkeypatch):
        assert config.resolve("workers") == WORKERS
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert config.resolve("workers") == 64
        with config.overriding(workers=128):
            assert config.resolve("workers") == 128
            # the kwarg always wins
            assert config.resolve("workers", 256) == 256

    def test_setter_none_restores_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with config.overriding(workers=6):
            assert config.resolve("workers") == 6
            with config.overriding(workers=None):
                assert config.resolve("workers") == 3
            assert config.resolve("workers") == 6
        assert config.resolve("workers") == 3

    def test_env_fallback_chain(self, monkeypatch):
        # workers reads REPRO_WORKERS first, then REPRO_PARALLEL
        monkeypatch.setenv("REPRO_PARALLEL", "5")
        assert config.resolve("workers") == 5
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert config.resolve("workers") == 6

    def test_unparseable_env_value_is_skipped(self, monkeypatch):
        # REPRO_BATCH only switches: any count is just "on"
        monkeypatch.setenv("REPRO_BATCH", "4096")
        assert config.resolve("batched") is True
        # REPRO_PARALLEL=true means "on", not a worker count
        monkeypatch.setenv("REPRO_PARALLEL", "true")
        assert config.resolve("parallel") is True
        assert config.resolve("workers") == WORKERS
        # ... and REPRO_PARALLEL=4 means "on, 4 workers"
        monkeypatch.setenv("REPRO_PARALLEL", "4")
        assert config.resolve("parallel") is True
        assert config.resolve("workers") == 4


class TestOverriding:
    def test_nests_and_restores(self):
        before = config.snapshot()
        with config.overriding(on_error="skip", workers=3):
            with config.overriding(on_error="reject"):
                assert config.resolve("on_error") == "reject"
                assert config.resolve("workers") == 3
            assert config.resolve("on_error") == "skip"
        assert config.snapshot() == before

    def test_restores_after_an_exception(self):
        before = config.snapshot()
        with pytest.raises(RuntimeError):
            with config.overriding(mode="block"):
                with config.overriding(mode="rows", deadline=5):
                    raise RuntimeError("boom")
        assert config.snapshot() == before

    def test_values_are_checked_before_the_block(self):
        before = config.snapshot()
        with pytest.raises(ValidationError, match="deadline must be > 0"):
            config.overriding(workers=4, deadline=-1)
        with pytest.raises(TypeError, match="turbo"):
            config.overriding(turbo=True)
        assert config.snapshot() == before

    def test_a_falsy_override_is_still_an_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BREAKER", "3")
        with config.overriding(batched=False, breaker=0):
            assert config.resolve("batched") is False
            assert config.resolve("breaker") == 0


class TestEnvironment:
    def test_repro_workers_one_is_serial(self, monkeypatch):
        # as workers=1 and --workers 1 already were
        from repro.etl import EtlEngine

        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert config.resolve("workers") == 1
        assert EtlEngine(parallel=True).parallel is False
        assert EtlEngine(batched=True, mode="parallel").parallel is False

    @pytest.mark.parametrize(
        "variable,raw",
        [
            ("REPRO_WORKERS", "abc"),
            ("REPRO_WORKERS", "0"),
            ("REPRO_ON_ERROR", "bogus"),
            ("REPRO_MAX_RETRIES", "x"),
            ("REPRO_MAX_RETRIES", "-1"),
            ("REPRO_MODE", "bogus"),
            ("REPRO_DEADLINE", "soon"),
            ("REPRO_DEADLINE", "-1"),
            ("REPRO_MEMORY_BUDGET", "0"),
            ("REPRO_MEMORY_BUDGET", "1.5"),
            ("REPRO_BREAKER", "-2"),
            ("REPRO_BREAKER", "x"),
        ],
    )
    def test_a_value_the_row_cannot_accept_raises(
        self, monkeypatch, variable, raw
    ):
        (name,) = [
            name for name, option in config.OPTIONS.items()
            if option.env[0][0] == variable
        ]
        monkeypatch.setenv(variable, raw)
        with pytest.raises(ValidationError) as caught:
            config.resolve(name)
        # names the variable, what it accepts and what it got
        message = str(caught.value)
        assert variable in message
        assert config.OPTIONS[name].accepts in message
        assert repr(raw) in message

    def test_empty_is_unset_for_every_row(self, monkeypatch):
        before = config.snapshot()
        for option in config.OPTIONS.values():
            for variable, _parse in option.env:
                monkeypatch.setenv(variable, "  ")
        assert config.snapshot() == before

    def test_switches_accept_any_word(self, monkeypatch):
        for name, option in config.OPTIONS.items():
            if option.check is not bool:
                continue
            variable = option.env[0][0]
            monkeypatch.setenv(variable, "off")
            assert config.resolve(name) is False, variable
            monkeypatch.setenv(variable, "yes")
            assert config.resolve(name) is True, variable
            monkeypatch.delenv(variable)


class TestValidation:
    def test_bad_policy_rejected_everywhere(self):
        with pytest.raises(ValidationError):
            check_policy("explode")
        with pytest.raises(ValidationError):
            config.overriding(on_error="explode")
        with pytest.raises(ValidationError):
            config.resolve("on_error", "explode")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            check_mode("warp")
        with pytest.raises(ValidationError):
            config.resolve("mode", "warp")
        for mode in config.MODES:
            assert check_mode(mode) == mode

    def test_malformed_max_retries_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ValidationError):
            config.resolve("max_retries")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ValidationError):
            config.resolve("max_retries")

    def test_parse_bool(self):
        for raw in ("0", "false", "No", "OFF"):
            assert parse_bool(raw) is False
        for raw in ("1", "true", "yes", "anything"):
            assert parse_bool(raw) is True

    def test_keyword_errors_keep_their_classes(self):
        # the exec rows raised ValueError before the table, the
        # resilience and supervision rows ValidationError
        with pytest.raises(ValueError, match="workers"):
            config.resolve("workers", 0)
        for name, bad in (("max_retries", -1), ("deadline", 0),
                          ("memory_budget", 0), ("breaker", -1)):
            with pytest.raises(ValidationError, match=name):
                config.resolve(name, bad)


class TestDerivedDefaults:
    def test_snapshot_covers_every_knob(self):
        snap = config.snapshot()
        assert sorted(snap) == sorted(config.OPTIONS)
        assert sorted(snap) == [
            "batched", "breaker", "check", "checkpoint_dir",
            "compiled", "deadline", "fused", "max_retries",
            "memory_budget", "mode", "on_error", "parallel", "workers",
        ]
        assert snap["compiled"] is True
        assert snap["batched"] is True
        assert snap["mode"] is None


class TestKnobMechanics:
    """What a row's ``default`` and ``check`` columns mean, on a row of
    the test's own."""

    def test_validate_applies_to_setter_and_kwarg_not_default(
        self, monkeypatch
    ):
        def check(value):
            if value < 0:
                raise ValueError("negative")
            return value * 2

        row = Option((), check, ">= 0", -1, ValueError)
        monkeypatch.setitem(config.OPTIONS, "test_validate", row)
        assert config.resolve("test_validate") == -1  # default bypasses it
        assert config.resolve("test_validate", 3) == 6
        with config.overriding(test_validate=4):
            assert config.resolve("test_validate") == 8
        with pytest.raises(ValueError):
            config.overriding(test_validate=-5)

"""repro.config — the options table.

Everything about a run that is not the plan or the data is one of the
seven rows of :data:`OPTIONS`, and a row's value is found one way:

    explicit keyword  >  ``overriding(...)``  >  ``REPRO_*`` variable  >  default

:func:`resolve` applies that precedence, :func:`overriding` is the only
writer of the process-wide layer (a context manager: it restores what it
found), and :func:`snapshot` shows what an engine built with no keywords
would get. The engines read the table once per construction, through
:class:`repro.exec.run.RunOptions`; nothing reads it per row.

``docs/execution-model.md`` ("Options") is the user-facing table:
engine keyword, CLI flag, variable(s), default and accepted values per
option. ``tests/cost/test_options_docs.py`` keeps the two in lockstep.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    NamedTuple,
    Tuple,
)

from repro.errors import ValidationError

#: strings that mean "off" for an on/off ``REPRO_*`` variable.
FALSE_VALUES = ("0", "false", "no", "off")

#: the row error policies of :mod:`repro.resilience` (authoritative
#: tuple; ``repro.resilience.POLICIES`` re-exports it).
ERROR_POLICIES = ("fail_fast", "skip", "reject")


class Option(NamedTuple):
    """One row of :data:`OPTIONS`."""

    #: ``(variable, parser)`` pairs, read in order. A parser takes the
    #: stripped, non-empty string and returns a candidate value (which
    #: ``check`` then vets); it raises ``ValueError`` on a string it
    #: cannot read.
    env: Tuple[Tuple[str, Callable[[str], Any]], ...]
    #: normalises a keyword, an override or a parsed variable;
    #: ``ValueError`` or ``ValidationError`` on a value out of range.
    check: Callable[[Any], Any]
    #: what ``check`` lets through, worded to follow "<name> must be".
    accepts: str
    #: the built-in value.
    default: Any
    #: what a rejected keyword or override raises (a rejected variable
    #: is always a :class:`~repro.errors.ValidationError`).
    error: type = ValidationError


# -- parsers and checks -------------------------------------------------------


def parse_bool(raw: str) -> bool:
    """'0'/'false'/'no'/'off' (any case) are False; anything else True."""
    return raw.strip().lower() not in FALSE_VALUES


def _at_least(minimum: int) -> Callable[[Any], int]:
    def check(value: Any) -> int:
        number = int(value)
        if number < minimum:
            raise ValueError(value)
        return number

    return check


def _seconds(value: Any) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise ValueError(value)
    return seconds


def check_policy(policy: str) -> str:
    """Validate a row error policy name (shared with
    :mod:`repro.resilience.policy`)."""
    if policy not in ERROR_POLICIES:
        raise ValidationError(
            f"unknown error policy {policy!r}; expected one of "
            f"{ERROR_POLICIES}"
        )
    return policy


# -- the table ----------------------------------------------------------------

_SWITCH = "on or off (0/false/no/off are off, anything else on)"

OPTIONS: Dict[str, Option] = {
    # the one compiled tier (fused selection-vector chains over block
    # kernels); off is the copy-and-validate tree-walking oracle
    "compiled": Option((("REPRO_COMPILED", parse_bool),), bool, _SWITCH, True),
    # run-level row error policy
    "on_error": Option(
        (("REPRO_ON_ERROR", str.lower),),
        check_policy, f"one of {ERROR_POLICIES}", ERROR_POLICIES[0],
    ),
    # retries of a transient endpoint failure; 0 is none
    "max_retries": Option(
        (("REPRO_MAX_RETRIES", int),), _at_least(0), ">= 0", 0
    ),
    # where the ETL engine snapshots completed stages; unset is off
    "checkpoint_dir": Option(
        (("REPRO_CHECKPOINT_DIR", str),), str, "a directory path", None
    ),
    # wall-clock budget of a supervised run; unset is unbounded
    "deadline": Option(
        (("REPRO_DEADLINE", float),), _seconds, "> 0 seconds", None
    ),
    # resident rows a blocking operator may hold before it spills
    "memory_budget": Option(
        (("REPRO_MEMORY_BUDGET", int),), _at_least(1), ">= 1 row", None
    ),
    # consecutive endpoint failures that trip a breaker; 0 or unset is
    # no breaker
    "breaker": Option((("REPRO_BREAKER", int),), _at_least(0), ">= 0", None),
}

#: the process-wide layer; written by :func:`overriding` alone.
_overrides: Dict[str, Any] = {}


# -- the three functions ------------------------------------------------------


def _row(name: str) -> Option:
    try:
        return OPTIONS[name]
    except KeyError:
        raise TypeError(f"unknown option {name!r}") from None


def _checked(name: str, value: Any) -> Any:
    """A keyword or override as option ``name`` accepts it."""
    option = _row(name)
    try:
        return option.check(value)
    except (ValueError, ValidationError):
        raise option.error(
            f"{name} must be {option.accepts}, got {value!r}"
        ) from None


def _from_env(option: Option) -> Any:
    """What the environment says about ``option``, or None. An empty
    variable is unset; one the row cannot accept is an error, never a
    silent fall-through to the default."""
    for variable, parse in option.env:
        raw = os.environ.get(variable, "").strip()
        if not raw:
            continue
        try:
            return option.check(parse(raw))
        except (ValueError, ValidationError):
            raise ValidationError(
                f"{variable} must be {option.accepts}, got {raw!r}"
            ) from None
    return None


def resolve(name: str, explicit: Any = None) -> Any:
    """The value of option ``name``: ``explicit`` when given (checked),
    else the innermost :func:`overriding`, else the row's environment
    variable(s), else its default."""
    if explicit is not None:
        return _checked(name, explicit)
    value = _overrides.get(name)
    if value is not None:
        return value
    option = _row(name)
    value = _from_env(option)
    if value is not None:
        return value
    return option.default


def overriding(**values: Any) -> ContextManager[None]:
    """Process-wide values for the ``with`` block: what the CLI's flags
    and the test suites set. Each value is checked here, before the
    block is entered; ``None`` removes an enclosing override for the
    block. On exit — normal or by exception — every named option is put
    back as it was found, so blocks nest."""
    checked = {
        name: None if value is None else _checked(name, value)
        for name, value in values.items()
    }
    return _scope(checked)


@contextmanager
def _scope(values: Dict[str, Any]) -> Iterator[None]:
    previous = {name: _overrides.get(name) for name in values}
    _install(values)
    try:
        yield
    finally:
        _install(previous)


def _install(values: Dict[str, Any]) -> None:
    for name, value in values.items():
        if value is None:
            _overrides.pop(name, None)
        else:
            _overrides[name] = value


def snapshot() -> Dict[str, Any]:
    """Every option's currently resolved value — what an engine built
    with no keywords would use."""
    return {name: resolve(name) for name in sorted(OPTIONS)}


__all__ = [
    "ERROR_POLICIES",
    "FALSE_VALUES",
    "OPTIONS",
    "Option",
    "check_policy",
    "overriding",
    "parse_bool",
    "resolve",
    "snapshot",
]

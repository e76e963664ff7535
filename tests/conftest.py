"""Fixtures shared across the suites."""

import pytest

from repro import config


@pytest.fixture
def no_ambient_environment(monkeypatch):
    """Clear every ``REPRO_*`` variable of the options table. CI runs
    the suites under ``REPRO_*`` scenarios; a module whose tests state
    every variable they mean requests this
    (``pytestmark = pytest.mark.usefixtures("no_ambient_environment")``).
    Not autouse: the scenario rows depend on their pins reaching every
    other suite."""
    for option in config.OPTIONS.values():
        for variable, _parse in option.env:
            monkeypatch.delenv(variable, raising=False)

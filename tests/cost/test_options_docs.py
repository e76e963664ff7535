"""Guard: the options table in code (``repro.config.OPTIONS``) and the
one in docs/execution-model.md ("Options") stay in lockstep — every
option and every environment variable of one appears in the other, the
literal defaults agree, and an option the engines take as a keyword of
its own name is a ``RunOptions`` field."""

import re
from pathlib import Path

from repro import config
from repro.exec.run import RunOptions

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "execution-model.md"
COLUMNS = ("option", "keyword", "flag", "env", "default", "accepts")


def options_section() -> str:
    text = DOC.read_text()
    section = text[text.index("## Options"):]
    return section[: section.index("\n## ", 1)]


def documented_rows() -> dict:
    """The docs table, one dict of cells per option name."""
    rows = {}
    for line in options_section().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        name = re.fullmatch(r"`(\w+)`", cells[0])
        if line.startswith("|") and name and len(cells) == len(COLUMNS):
            rows[name.group(1)] = dict(zip(COLUMNS, cells))
    return rows


def test_every_option_is_documented_and_vice_versa():
    assert sorted(documented_rows()) == sorted(config.OPTIONS)


def test_environment_variables_agree():
    for name, cells in documented_rows().items():
        documented = re.findall(r"REPRO_[A-Z_]+", cells["env"])
        in_code = [variable for variable, _parse in config.OPTIONS[name].env]
        assert documented == in_code, name


def test_no_other_repro_variable_is_an_option():
    """A ``REPRO_*`` name anywhere in the section is one of the rows'
    (the docs cannot promise a variable the table does not read)."""
    known = {
        variable
        for option in config.OPTIONS.values()
        for variable, _parse in option.env
    }
    assert set(re.findall(r"REPRO_[A-Z_]+[A-Z]", options_section())) <= known


def test_literal_defaults_agree():
    derived = set()
    for name, cells in documented_rows().items():
        literal = re.fullmatch(r"`([^`]+)`", cells["default"])
        if literal is None:
            derived.add(name)  # described in words
            continue
        default = config.OPTIONS[name].default
        shown = f'"{default}"' if isinstance(default, str) else repr(default)
        assert literal.group(1) == shown, name
    # every default is written down
    assert derived == set()


def test_engine_keywords_are_run_options_fields():
    fields = set(RunOptions._fields)
    for name, cells in documented_rows().items():
        keyword = re.match(r"`(\w+)=`", cells["keyword"])
        if name in fields:
            # an engine keyword of the option's own name
            assert keyword and keyword.group(1) == name, name
        elif keyword:
            # a keyword that builds an object from the option
            # (retry= → max_retries, checkpoint= → checkpoint_dir)
            assert keyword.group(1) in fields, name
    # and no keyword of a retired tier is an option again
    from repro.exec.run import RETIRED_KEYWORDS

    assert not set(RETIRED_KEYWORDS) & (fields | set(config.OPTIONS))

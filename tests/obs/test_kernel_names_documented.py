"""The kernel and degradation parts of the metric namespace are an API:
the kernel names ``src/repro/exec`` books under ``exec.kernel.<kernel>``
and ``exec.block.<kernel>``, and the ``exec.degrade.*`` counters, are
exactly the names listed in those rows of ``docs/observability.md`` —
none undocumented, none documented that nothing emits."""

import re
from pathlib import Path

import pytest

from repro.exec.ops import FALLBACK_COUNTER

ROOT = Path(__file__).resolve().parents[2]
EXEC = ROOT / "src" / "repro" / "exec"
DOC = ROOT / "docs" / "observability.md"


def emitted(helper):
    """The kernel names passed to ``helper(obs, "<kernel>", …)``."""
    call = re.compile(rf"\b{helper}\(\s*obs,\s*\"(\w+)\"")
    return {
        name for path in EXEC.glob("*.py") for name in call.findall(path.read_text(encoding="utf-8"))
    }


def documented(prefix):
    """The backticked names in the first parenthesised list of the
    ``<prefix>.<kernel>.rows_in`` row's meaning."""
    (row,) = [
        line
        for line in DOC.read_text(encoding="utf-8").splitlines()
        if line.startswith(f"| `{prefix}.<kernel>.rows_in`")
    ]
    meaning = row.split("|")[3]
    listed = re.search(r"\(((?:`\w+`(?:, )?)+)\)", meaning)
    assert listed is not None, row
    return set(re.findall(r"`(\w+)`", listed.group(1)))


@pytest.mark.parametrize(
    "prefix, helper",
    [("exec.kernel", "_observe"), ("exec.block", "_observe_block")],
)
def test_kernel_names_match_the_docs(prefix, helper):
    names = emitted(helper)
    assert names, f"no {helper} call found under {EXEC}"
    assert names == documented(prefix)


def documented_degrade_counters():
    """Every name of the ``exec.degrade.*`` rows: the first cell's
    backticked names, a ``.suffix`` one a sibling of the name before."""
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `exec.degrade."):
            continue
        parent = None
        for token in re.findall(r"`([\w.]+)`", line.split("|")[1]):
            if token.startswith("."):
                token = parent + token
            parent = token.rsplit(".", 1)[0]
            names.add(token)
    return names


def test_degrade_counters_match_the_docs():
    """What the one fallback can book: its one counter, for a columnar
    body rerun on its row body."""
    assert FALLBACK_COUNTER == "exec.degrade.columnar_to_rows"
    assert {FALLBACK_COUNTER} == documented_degrade_counters()

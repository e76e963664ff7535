"""Guard: the diagnostic catalogue, its documentation, and its tests
stay in lockstep — every code documented in docs/analysis.md appears in
the catalogue and in at least one test, and vice versa."""

import re
from pathlib import Path

from repro.analysis import CODES

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "analysis.md"
TESTS = Path(__file__).resolve().parent


def codes_in(text: str) -> set:
    return set(re.findall(r"ORC\d{3}", text))


def test_every_catalogue_code_is_documented():
    documented = codes_in(DOC.read_text(encoding="utf-8"))
    assert set(CODES) <= documented, (
        f"codes missing from docs/analysis.md: "
        f"{sorted(set(CODES) - documented)}"
    )


def test_docs_mention_no_unknown_codes():
    documented = codes_in(DOC.read_text(encoding="utf-8"))
    assert documented <= set(CODES), (
        f"docs/analysis.md documents codes absent from the catalogue: "
        f"{sorted(documented - set(CODES))}"
    )


def test_every_documented_code_has_a_test():
    tested = set()
    for path in TESTS.glob("test_*.py"):
        if path.name == Path(__file__).name:
            continue
        tested |= codes_in(path.read_text(encoding="utf-8"))
    untested = codes_in(DOC.read_text(encoding="utf-8")) - tested
    assert not untested, (
        f"codes documented in docs/analysis.md but exercised by no test "
        f"under tests/analysis/: {sorted(untested)}"
    )

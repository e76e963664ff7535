"""``orchid lint``: text and JSON output, exit statuses, --strict,
--check pre-run enforcement."""

import json

import pytest

from repro.cli import main
from repro.etl import job_to_xml
from repro.etl.model import Job
from repro.etl.stages import (
    FilterOutput,
    FilterStage,
    OutputLink,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.schema import relation
from repro.workloads import build_example_job

REL = relation(
    "R", ("id", "int", False), ("name", "string", False),
    ("amt", "float", False),
)


@pytest.fixture
def clean_xml(tmp_path):
    path = tmp_path / "clean.xml"
    path.write_text(job_to_xml(build_example_job()), encoding="utf-8")
    return str(path)


@pytest.fixture
def bad_type_xml(tmp_path):
    job = Job("bad_type")
    s = job.add(TableSource(REL))
    f = job.add(FilterStage([FilterOutput(where="name > 3")]))
    t = job.add(TableTarget(REL))
    job.chain(s, f, t, names=["a", "b"])
    path = tmp_path / "bad.xml"
    path.write_text(job_to_xml(job), encoding="utf-8")
    return str(path)


@pytest.fixture
def warn_xml(tmp_path):
    job = Job("warned")
    s = job.add(TableSource(REL))
    tr = job.add(
        Transformer([
            OutputLink([
                ("id", "id"), ("name", "name"), ("amt", "amt"),
                ("waste", "amt * 2"),
            ])
        ])
    )
    t = job.add(TableTarget(REL))
    job.chain(s, tr, t, names=["a", "b"])
    path = tmp_path / "warn.xml"
    path.write_text(job_to_xml(job), encoding="utf-8")
    return str(path)


class TestTextOutput:
    def test_clean_job_exits_zero(self, clean_xml, capsys):
        assert main(["lint", clean_xml]) == 0
        out = capsys.readouterr().out
        assert out.strip() == (
            "job 'CustomerBalanceSplit': 0 error(s), 0 warning(s), "
            "0 info(s)"
        )

    def test_bad_type_exits_one_with_diagnostic(
        self, bad_type_xml, capsys
    ):
        assert main(["lint", bad_type_xml]) == 1
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("ORC002 error at stage ")
        assert "link 'b'" in lines[0]
        assert "(name > 3)" in lines[0]
        assert lines[-1] == (
            "job 'bad_type': 1 error(s), 0 warning(s), 0 info(s)"
        )

    def test_warning_exits_zero_without_strict(self, warn_xml, capsys):
        assert main(["lint", warn_xml]) == 0
        assert "ORC020 warning" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, warn_xml):
        assert main(["lint", warn_xml, "--strict"]) == 1

    def test_unparseable_document_is_orc001(self, tmp_path, capsys):
        path = tmp_path / "mangled.xml"
        path.write_text(job_to_xml(build_example_job()).replace(
            "&lt;&gt;", "&lt;&gt;&gt;*", 1
        ), encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        assert "ORC001 error" in capsys.readouterr().out


class TestJsonOutput:
    def test_clean_json_document(self, clean_xml, capsys):
        assert main(["lint", clean_xml, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counts"] == {"error": 0, "warning": 0, "info": 0}
        assert doc["diagnostics"] == []

    def test_bad_type_json_document(self, bad_type_xml, capsys):
        assert main(["lint", bad_type_xml, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        (diag,) = doc["diagnostics"]
        assert diag["code"] == "ORC002"
        assert diag["severity"] == "error"
        assert diag["location"]["link"] == "b"
        assert "expression" in diag["location"]

    def test_ohm_layer_lint(self, clean_xml, capsys):
        assert main(["lint", clean_xml, "--ohm"]) == 0
        assert "OHM instance" in capsys.readouterr().out


class TestCheckFlag:
    def test_check_flag_resets_after_invocation(self, clean_xml):
        """``--check`` is gone — every run is checked — and a lint
        leaves no option behind."""
        from repro import config

        before = config.snapshot()
        assert main(["lint", clean_xml]) == 0
        assert config.snapshot() == before
        with pytest.raises(SystemExit):
            main(["lint", clean_xml, "--check"])
        assert "check" not in config.snapshot()

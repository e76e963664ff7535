"""CLI tests: the ``orchid`` command surface."""

import json

import pytest

from repro.cli import main
from repro.etl import EtlEngine, job_from_xml, job_to_xml
from repro.workloads import (
    build_chain_job,
    build_example_job,
    generate_instance,
)


@pytest.fixture
def job_xml_path(tmp_path):
    path = tmp_path / "job.xml"
    path.write_text(job_to_xml(build_example_job()))
    return str(path)


class TestEtlToMappings:
    def test_json_output(self, job_xml_path, tmp_path):
        out = tmp_path / "mappings.json"
        assert main(["etl-to-mappings", job_xml_path, "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["format"] == "orchid-mappings"
        assert [m["name"] for m in document["mappings"]] == ["M1", "M2", "M3"]

    def test_query_notation(self, job_xml_path, capsys):
        assert main(
            ["etl-to-mappings", job_xml_path, "--notation", "query"]
        ) == 0
        text = capsys.readouterr().out
        assert "for c in Customers, a in Accounts" in text

    def test_logic_notation(self, job_xml_path, capsys):
        assert main(
            ["etl-to-mappings", job_xml_path, "--notation", "logic"]
        ) == 0
        assert "∃" in capsys.readouterr().out


class TestMappingsToEtl:
    def test_full_round_trip_through_files(self, job_xml_path, tmp_path):
        mappings_path = tmp_path / "mappings.json"
        main(["etl-to-mappings", job_xml_path, "-o", str(mappings_path)])
        job_out = tmp_path / "regen.xml"
        assert main(
            ["mappings-to-etl", str(mappings_path), "-o", str(job_out)]
        ) == 0
        regenerated = job_from_xml(job_out.read_text())
        instance = generate_instance(30)
        assert EtlEngine().execute(regenerated, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )

    def test_plan_flag_prints_boxes(self, job_xml_path, tmp_path, capsys):
        mappings_path = tmp_path / "mappings.json"
        main(["etl-to-mappings", job_xml_path, "-o", str(mappings_path)])
        main(["mappings-to-etl", str(mappings_path), "--plan",
              "-o", str(tmp_path / "j.xml")])
        assert "deployment plan" in capsys.readouterr().err


class TestShow:
    def test_text_listing(self, job_xml_path, capsys):
        assert main(["show", job_xml_path]) == 0
        out = capsys.readouterr().out
        assert "OHM instance" in out
        assert "GROUP" in out

    def test_dot_output(self, job_xml_path, capsys):
        assert main(["show", job_xml_path, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestPushdown:
    def test_prints_hybrid_plan(self, job_xml_path, capsys):
        assert main(["pushdown", job_xml_path]) == 0
        out = capsys.readouterr().out
        assert "SELECT" in out and "residual ETL job" in out

    def test_sample_prints_the_all_etl_plan_and_its_reason(
        self, job_xml_path, capsys
    ):
        # the example over data that starts in memory: loading it costs
        # more than the DBMS saves (EXPERIMENTS "PLACE")
        assert main(["pushdown", job_xml_path, "--sample", "5000"]) == 0
        out = capsys.readouterr().out
        assert "SELECT" not in out
        assert "nothing pushed to the DBMS" in out
        assert "(load dominates)" in out

    def test_sample_pushes_a_long_chain(self, tmp_path, capsys):
        # a 100-stage chain: sqlite's evaluation outweighs the load
        # (EXPERIMENTS "PLACE"; a 25-stage chain stays in the engine)
        path = tmp_path / "chain.xml"
        path.write_text(job_to_xml(build_chain_job(100)))
        assert main(["pushdown", str(path), "--sample", "5000"]) == 0
        out = capsys.readouterr().out
        assert "SELECT" in out and "pushed to the DBMS, ~" in out

    def test_sample_must_be_positive(self, job_xml_path):
        with pytest.raises(SystemExit, match="--sample must be >= 1"):
            main(["pushdown", job_xml_path, "--sample", "-3"])


class TestExplain:
    def test_one_line_per_operator(self, job_xml_path, capsys):
        from repro.compile import compile_job

        assert main(["explain", job_xml_path, "--sample", "200"]) == 0
        out = capsys.readouterr().out
        graph = compile_job(build_example_job())
        lines = out.splitlines()
        assert lines[-1].strip().startswith("total estimated cost:")
        rows = [line.strip() for line in lines[2:-1]]
        assert len(rows) == len(graph.operators)
        for op in graph.operators:
            assert any(row.startswith(f"{op.label} ") for row in rows), op.label


class TestErrors:
    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_retired_check_flag_is_not_an_abbreviation(
        self, job_xml_path, tmp_path, capsys
    ):
        # options are never matched by prefix: a leftover --check fails
        # instead of silently naming --checkpoint-dir
        with pytest.raises(SystemExit) as caught:
            main(["show", job_xml_path, "--check", str(tmp_path)])
        assert caught.value.code == 2
        assert "unrecognized arguments: --check" in capsys.readouterr().err


class TestOptimize:
    def test_optimized_job_round_trips(self, job_xml_path, tmp_path, capsys):
        out = tmp_path / "optimized.xml"
        assert main(["optimize", job_xml_path, "-o", str(out)]) == 0
        assert "OptimizationReport" in capsys.readouterr().err
        optimized = job_from_xml(out.read_text())
        instance = generate_instance(30)
        assert EtlEngine().execute(optimized, instance).same_bags(
            EtlEngine().execute(build_example_job(), instance)
        )


class TestExportOhm:
    def test_ohm_json_document(self, job_xml_path, tmp_path):
        out = tmp_path / "graph.json"
        assert main(["export-ohm", job_xml_path, "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["format"] == "orchid-ohm"
        kinds = [op["kind"] for op in document["operators"]]
        assert "GROUP" in kinds and "SPLIT" in kinds


class TestObservabilityFlags:
    def test_trace_prints_span_tree_to_stderr(self, job_xml_path, capsys):
        assert main(["show", job_xml_path, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "OHM instance" in captured.out  # primary output untouched
        assert "compile.job" in captured.err
        assert "compile.stage.Filter" in captured.err

    def test_stats_json_goes_to_stderr_and_parses(
        self, job_xml_path, capsys
    ):
        assert main(["show", job_xml_path, "--stats", "json"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.err[captured.err.index("{"):])
        assert any(
            name.startswith("compile.phase.") for name in document["timers"]
        )
        assert document["counters"]["compile.stages"] == 9

    def test_stats_text_sections(self, job_xml_path, capsys):
        assert main(["optimize", job_xml_path, "--stats", "text"]) == 0
        err = capsys.readouterr().err
        assert "counters:" in err and "timers:" in err
        assert "rewrite.rule." in err

    def test_flags_off_by_default(self, job_xml_path, capsys):
        assert main(["show", job_xml_path]) == 0
        err = capsys.readouterr().err
        assert "compile.job" not in err


ALL_FLAGS = [
    "--interpreted", "--on-error", "skip", "--max-retries", "2",
    "--deadline", "30", "--memory-budget", "500",
]


class TestFlagsAreScoped:
    """Every flag is an ``overriding`` scope around the dispatch: in
    force inside it, gone after it however it ends."""

    def _spy(self, monkeypatch, outcome):
        import repro.cli as cli
        from repro import config

        seen = {}

        def spy(args, orchid):
            seen.update(config.snapshot())
            return outcome()

        monkeypatch.setattr(cli, "_dispatch", spy)
        return seen

    def test_on_success(self, job_xml_path, tmp_path, monkeypatch):
        from repro import config

        before = config.snapshot()
        seen = self._spy(monkeypatch, lambda: 0)
        flags = ALL_FLAGS + ["--checkpoint-dir", str(tmp_path)]
        assert main(["show", job_xml_path] + flags) == 0
        assert seen == dict(
            before, compiled=False, on_error="skip",
            max_retries=2, deadline=30.0, memory_budget=500,
            checkpoint_dir=str(tmp_path),
        )
        assert config.snapshot() == before

    def test_when_dispatch_raises(self, job_xml_path, monkeypatch):
        from repro import config

        def boom():
            raise RuntimeError("boom")

        before = config.snapshot()
        seen = self._spy(monkeypatch, boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["show", job_xml_path] + ALL_FLAGS)
        assert seen["on_error"] == "skip"
        assert config.snapshot() == before

    def test_when_the_run_is_cancelled(self, job_xml_path, monkeypatch, capsys):
        from repro import config
        from repro.errors import RunCancelled

        def cancel():
            raise RunCancelled("out of time", "deadline", ["Customers"])

        before = config.snapshot()
        self._spy(monkeypatch, cancel)
        assert main(["show", job_xml_path] + ALL_FLAGS) == 4
        assert "committed frontier: Customers" in capsys.readouterr().err
        assert config.snapshot() == before

    @pytest.mark.parametrize(
        "flag,value,wording",
        [
            ("--max-retries", "-1", "--max-retries must be >= 0"),
            ("--deadline", "0", "--deadline must be > 0 seconds"),
            ("--memory-budget", "0", "--memory-budget must be >= 1 row"),
        ],
    )
    def test_range_errors_keep_their_wording(
        self, job_xml_path, capsys, flag, value, wording
    ):
        from repro import config

        before = config.snapshot()
        with pytest.raises(SystemExit) as caught:
            main(["show", job_xml_path, flag, value])
        assert caught.value.code == 2
        assert wording in capsys.readouterr().err
        assert config.snapshot() == before

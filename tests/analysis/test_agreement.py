"""Analyzer ↔ runtime agreement: a clean lint predicts a clean run,
seeded static defects are caught before row one, and ``check=True``
changes nothing about a clean run's results."""

import pytest

from repro import config
from repro.analysis import analyze_graph, analyze_job
from repro.compile import compile_job
from repro.data.dataset import Instance
from repro.errors import ValidationError
from repro.etl import EtlEngine, run_job, run_job_with_links
from repro.etl.model import Job
from repro.etl.stages import (
    FilterOutput,
    FilterStage,
    TableSource,
    TableTarget,
    Transformer,
    OutputLink,
)
from repro.mapping.executor import MappingExecutor
from repro.ohm.engine import OhmExecutor
from repro.schema import relation
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_faulty_job,
    build_kitchen_sink_job,
    build_star_join_job,
    generate_chain_instance,
    generate_faulty_instance,
    generate_instance,
    generate_kitchen_sink_instance,
    generate_star_instance,
    synthesize_instance,
)

REL = relation(
    "R", ("id", "int", False), ("name", "string", False),
    ("amt", "float", False),
)


def source_relations(job):
    return [
        s.relation for s in job.stages if isinstance(s, TableSource)
    ]


WORKLOADS = [
    ("example", lambda: build_example_job(),
     lambda job: generate_instance(60)),
    ("chain", lambda: build_chain_job(4),
     lambda job: generate_chain_instance(50)),
    ("fanout", lambda: build_fanout_job(3),
     lambda job: synthesize_instance(source_relations(job), 40)),
    ("star", lambda: build_star_join_job(3),
     lambda job: generate_star_instance(3, 40)),
    ("kitchen_sink", lambda: build_kitchen_sink_job(),
     lambda job: generate_kitchen_sink_instance(60)),
    ("faulty_clean", lambda: build_faulty_job(),
     lambda job: generate_faulty_instance(40, poison=0)[0]),
]


class TestCleanLintPredictsCleanRun:
    @pytest.mark.parametrize(
        "name,build,data", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_workload_lints_clean_and_runs(self, name, build, data):
        job = build()
        report = analyze_job(job)
        assert report.ok, report.to_text()
        ohm_report = analyze_graph(compile_job(build()))
        assert ohm_report.ok, ohm_report.to_text()
        # and the run the lint predicted is indeed clean
        targets = run_job(build(), data(job), check=True)
        assert sum(len(d) for d in targets) > 0


class TestDefectsCaughtBeforeRowOne:
    """Each seeded static-defect class is rejected with zero rows
    processed: the source stage is never even asked for data."""

    def run_counting(self, job, engine_cls=EtlEngine, **kwargs):
        pulls = []
        original = TableSource.extract

        def counting(self, *args, **kw):
            pulls.append(self.name)
            return original(self, *args, **kw)

        TableSource.extract = counting
        try:
            with pytest.raises(ValidationError, match="static analysis"):
                EtlEngine(check=True, **kwargs).run(job, Instance())
        finally:
            TableSource.extract = original
        assert pulls == []

    def bad_type_job(self):
        job = Job("bad_type")
        s = job.add(TableSource(REL))
        f = job.add(FilterStage([FilterOutput(where="name > 3")]))
        t = job.add(TableTarget(REL))
        job.chain(s, f, t, names=["a", "b"])
        return job

    def dangling_job(self):
        job = Job("dangling")
        s = job.add(TableSource(REL))
        f = job.add(FilterStage([FilterOutput(where="id > 0")]))
        job.link(s, f, name="a")  # filter output dangles
        return job

    def test_bad_type_rejected_statically(self):
        self.run_counting(self.bad_type_job())

    def test_dangling_link_rejected_statically(self):
        self.run_counting(self.dangling_job())

    @pytest.mark.parametrize("wrapper", [run_job, run_job_with_links])
    def test_wrappers_forward_check(self, wrapper):
        # regression: run_job_with_links accepted check= and dropped it
        with pytest.raises(ValidationError, match="static analysis"):
            wrapper(self.bad_type_job(), Instance(), check=True)

    def test_dead_column_is_a_warning_not_a_rejection(self):
        job = Job("dead")
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
        report = analyze_job(job)
        assert [d.code for d in report] == ["ORC020"]
        # warnings never block check=True runs
        data = synthesize_instance([REL], 10)
        targets = run_job(job, data, check=True)
        assert len(targets.dataset("R")) == 10

    def test_ohm_executor_checks_before_running(self):
        from repro.ohm import Filter, OhmGraph, Source, Target

        g = OhmGraph("bad")
        s = g.add(Source(REL))
        f = g.add(Filter("name > 3"))
        t = g.add(Target(REL))
        g.chain(s, f, t, names=["a", "b"])
        with pytest.raises(ValidationError, match="static analysis"):
            OhmExecutor(check=True).run(g, Instance())

    def test_mapping_executor_checks_before_running(self):
        from repro.mapping.model import Mapping, MappingSet, SourceBinding

        tgt = relation("T", ("id", "int", False))
        m = Mapping(
            [SourceBinding("r", REL)], tgt,
            [("id", "UPPER(r.name)")], name="M1",
        )
        with pytest.raises(ValidationError, match="static analysis"):
            MappingExecutor(check=True).execute(
                MappingSet([m]), Instance()
            )


class TestCheckIsTransparent:
    """``check=True`` runs of clean workloads are identical to
    ``check=False`` runs."""

    @pytest.mark.parametrize(
        "name,build,data", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_results_identical(self, name, build, data):
        job = build()
        instance = data(job)
        with_check = run_job(build(), instance, check=True)
        without = run_job(build(), instance, check=False)
        assert with_check.same_bags(without)

    def test_ohm_check_transparent(self):
        graph = compile_job(build_example_job())
        instance = generate_instance(50)
        a = OhmExecutor(check=True).execute(graph, instance)
        b = OhmExecutor(check=False).execute(graph, instance)
        assert a.same_bags(b)


class TestKnobTriad:
    """kwarg > ``overriding`` (the "setter") > env > default."""

    def test_default_off(self):
        assert config.resolve("check") is False
        assert EtlEngine().check is False

    def test_setter_wins(self):
        with config.overriding(check=True):
            assert config.resolve("check") is True
            assert EtlEngine().check is True
            assert OhmExecutor().check is True
            assert MappingExecutor().check is True

    def test_explicit_kwarg_beats_setter(self):
        with config.overriding(check=True):
            assert EtlEngine(check=False).check is False
            assert config.resolve("check", False) is False

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert config.resolve("check") is True
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert config.resolve("check") is False

    def test_env_rejected_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        job = Job("bad")
        s = job.add(TableSource(REL))
        f = job.add(FilterStage([FilterOutput(where="name > 3")]))
        t = job.add(TableTarget(REL))
        job.chain(s, f, t, names=["a", "b"])
        with pytest.raises(ValidationError, match="static analysis"):
            run_job(job, Instance())

"""Analyzer ↔ runtime agreement: a clean lint predicts a clean run,
seeded static defects are caught before row one by the check every run
makes, and that check changes nothing about a clean run's results."""

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
        targets = run_job(build(), data(job))
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
                EtlEngine(**kwargs).run(job, Instance())
        finally:
            TableSource.extract = original
        assert pulls == []

    def bad_type_job(self):
        return bad_type_job()

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
        # every run is checked, through either wrapper
        with pytest.raises(ValidationError, match="static analysis"):
            wrapper(self.bad_type_job(), Instance())

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
        # warnings never block a run
        data = synthesize_instance([REL], 10)
        targets = run_job(job, data)
        assert len(targets.dataset("R")) == 10

    def test_ohm_executor_checks_before_running(self):
        from repro.ohm import Filter, OhmGraph, Source, Target

        g = OhmGraph("bad")
        s = g.add(Source(REL))
        f = g.add(Filter("name > 3"))
        t = g.add(Target(REL))
        g.chain(s, f, t, names=["a", "b"])
        with pytest.raises(ValidationError, match="static analysis"):
            OhmExecutor().run(g, Instance())

    def test_mapping_executor_checks_before_running(self):
        from repro.mapping.model import Mapping, MappingSet, SourceBinding

        tgt = relation("T", ("id", "int", False))
        m = Mapping(
            [SourceBinding("r", REL)], tgt,
            [("id", "UPPER(r.name)")], name="M1",
        )
        with pytest.raises(ValidationError, match="static analysis"):
            MappingExecutor().execute(
                MappingSet([m]), Instance()
            )


@pytest.fixture
def unchecked(monkeypatch):
    """Runs with the pre-run check patched out: what an engine did
    before every run was checked."""
    monkeypatch.setattr(
        "repro.analysis.check_plan", lambda plan, registry=None: None
    )


class TestCheckIsTransparent:
    """A checked run of a clean workload is identical to the same run
    with the check patched out."""

    @pytest.mark.parametrize(
        "name,build,data", WORKLOADS, ids=[w[0] for w in WORKLOADS]
    )
    def test_results_identical(self, name, build, data, request):
        job = build()
        instance = data(job)
        with_check = run_job(build(), instance)
        request.getfixturevalue("unchecked")
        without = run_job(build(), instance)
        assert with_check.same_bags(without)

    def test_ohm_check_transparent(self, request):
        graph = compile_job(build_example_job())
        instance = generate_instance(50)
        a = OhmExecutor().execute(graph, instance)
        request.getfixturevalue("unchecked")
        b = OhmExecutor().execute(graph, instance)
        assert a.same_bags(b)


def bad_type_job():
    """A Filter comparing a string column with a number (ORC002)."""
    job = Job("bad_type")
    s = job.add(TableSource(REL))
    f = job.add(FilterStage([FilterOutput(where="name > 3")]))
    t = job.add(TableTarget(REL))
    job.chain(s, f, t, names=["a", "b"])
    return job


class TestKnobTriad:
    """The check was an option (kwarg > ``overriding`` > env >
    default); now every run is checked, and no layer of that triad can
    turn it off."""

    def test_default_off(self):
        # there is no default to be off: the option is gone
        assert "check" not in config.OPTIONS
        assert "check" not in config.snapshot()
        with pytest.raises(AttributeError):
            EtlEngine().check

    def test_setter_wins(self):
        with pytest.raises(TypeError, match="unknown option"):
            config.overriding(check=False)

    def test_explicit_kwarg_beats_setter(self):
        for engine in (EtlEngine, OhmExecutor, MappingExecutor):
            with pytest.raises(TypeError, match="check"):
                engine(check=False)

    def test_env_variable(self, monkeypatch):
        # a leftover REPRO_CHECK=0 turns nothing off
        monkeypatch.setenv("REPRO_CHECK", "0")
        with pytest.raises(ValidationError, match="static analysis"):
            run_job(bad_type_job(), Instance())

    def test_env_rejected_run(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        for run in (run_job, run_job_with_links):
            with pytest.raises(ValidationError, match="static analysis"):
                run(bad_type_job(), Instance())

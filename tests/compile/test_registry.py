"""Compiler plug-in registry tests: MRO lookup, hierarchy, extension."""

import pytest

from repro.compile import (
    CompiledStage,
    CompilerRegistry,
    DEFAULT_COMPILERS,
    StageCompiler,
    compile_job,
    compiler_for,
)
from repro.compile.stages import JoinStageCompiler, LookupCompiler
from repro.errors import CompilationError
from repro.etl import (
    Job,
    LookupStage,
    PeekStage,
    SequentialFileSource,
    Stage,
    TableSource,
    TableTarget,
)
from repro.ohm.subtypes import BasicProject
from repro.schema import relation


class TestLookup:
    def test_all_builtin_stage_types_covered(self):
        # the paper's "15 DataStage processing stages" claim: every stage
        # in the shipped library has a compiler
        from repro.etl.stages import STAGE_CLASSES

        for stage_class in STAGE_CLASSES.values():
            found = None
            for klass in stage_class.__mro__:
                for registered in DEFAULT_COMPILERS.supported_stage_classes():
                    if registered is klass:
                        found = registered
                        break
                if found:
                    break
            assert found is not None, f"no compiler for {stage_class}"

    def test_mro_fallback(self):
        # SequentialFileSource has no dedicated compiler; the TableSource
        # compiler serves it through the class hierarchy
        stage = SequentialFileSource(relation("R", ("a", "int")), "/tmp/x.csv")
        compiler = DEFAULT_COMPILERS.lookup(stage)
        assert type(compiler).__name__ == "TableSourceCompiler"

    def test_compiler_hierarchy_exists(self):
        # "compilers can be designed to form a hierarchy of compiler
        # classes" — the Lookup compiler specializes the Join compiler
        assert issubclass(LookupCompiler, JoinStageCompiler)
        lookup = DEFAULT_COMPILERS.lookup(
            LookupStage(keys=[("a", "a")])
        )
        assert isinstance(lookup, JoinStageCompiler)

    def test_unregistered_stage_raises(self):
        class MysteryStage(Stage):
            STAGE_TYPE = "Mystery"

        registry = CompilerRegistry()
        with pytest.raises(CompilationError):
            registry.lookup(MysteryStage())

    def test_duplicate_registration_rejected(self):
        registry = CompilerRegistry()

        class C(StageCompiler):
            pass

        registry.register(PeekStage, C())
        with pytest.raises(CompilationError):
            registry.register(PeekStage, C())


class TestExtension:
    def test_new_stage_with_new_compiler(self):
        """The paper's extensibility claim: adding a stage type requires a
        compiler plug-in and nothing else."""
        registry = CompilerRegistry()
        # borrow all default compilers
        for klass in DEFAULT_COMPILERS.supported_stage_classes():
            registry.register(klass, DEFAULT_COMPILERS._compilers[klass])

        class UppercaseStage(Stage):
            """A vendor-specific stage uppercasing every string column."""

            STAGE_TYPE = "Uppercase"

            def output_relations(self, inputs, out_names):
                return [inputs[0].renamed(out_names[0])]

            def execute(self, inputs, out_relations, planner, obs=None,
                        errors=None):
                from repro.data.dataset import Dataset

                rows = [
                    {
                        k: v.upper() if isinstance(v, str) else v
                        for k, v in row.items()
                    }
                    for row in inputs[0]
                ]
                return [Dataset(out_relations[0], rows, validate=False)]

        @compiler_for(UppercaseStage, registry=registry)
        class UppercaseCompiler(StageCompiler):
            def compile(self, stage, input_schemas, input_names,
                        output_names, graph):
                from repro.ohm.operators import Project
                from repro.expr.ast import ColumnRef, FunctionCall
                from repro.schema.types import STRING

                (incoming,) = input_schemas
                derivations = []
                for attr in incoming:
                    expr = ColumnRef(attr.name)
                    if attr.dtype is STRING:
                        expr = FunctionCall("UPPER", [expr])
                    derivations.append((attr.name, expr))
                op = graph.add(Project(derivations, label=stage.name))
                return CompiledStage([(op, 0)], [(op, 0)])

        rel = relation("R", ("id", "int", False), ("name", "varchar"))
        job = Job("ext")
        src = job.add(TableSource(rel))
        upper = job.add(UppercaseStage(name="up"))
        tgt = job.add(TableTarget(rel.renamed("Out")))
        job.link(src, upper)
        job.link(upper, tgt)

        graph = compile_job(job, registry=registry)
        assert "PROJECT" in graph.kinds_in_order()

        from repro.data.dataset import Dataset, Instance
        from repro.etl import run_job
        from repro.ohm import execute

        instance = Instance([Dataset(rel, [{"id": 1, "name": "ada"}])])
        assert execute(graph, instance).same_bags(run_job(job, instance))

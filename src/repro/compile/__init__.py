"""ETL→OHM compilation (paper section V-A): the plug-in compiler
registry, the built-in compilers for the supported stage library, and the
traversal driver."""

from repro.compile.driver import compile_job
from repro.compile.registry import (
    CompiledStage,
    CompilerRegistry,
    DEFAULT_COMPILERS,
    StageCompiler,
    compiler_for,
)

__all__ = [
    "compile_job",
    "CompiledStage",
    "CompilerRegistry",
    "DEFAULT_COMPILERS",
    "StageCompiler",
    "compiler_for",
]

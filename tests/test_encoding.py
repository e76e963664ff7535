"""Every file the package reads or writes is UTF-8 whatever the locale.

A text ``open()`` without ``encoding=`` uses the locale's encoding, so
a file written on one machine could misread on another. This runs a
round trip of a non-ASCII name through each file format in a child
interpreter that turns the warning for such an ``open()`` into an
error (``EncodingWarning`` exists from Python 3.10), and reads every
module of the package, its tests, examples and benchmark scripts for a
text-mode ``open()`` that names no encoding.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

SCRIPT = r'''
import os, sys
from repro.compile import compile_job
from repro.data import Dataset
from repro.data.csvio import read_csv, write_csv
from repro.etl.xmlio import read_job, write_job
from repro.fasttrack.orchid import Orchid
from repro.mapping.jsonio import read_mappings, write_mappings
from repro.ohm.jsonio import read_graph, write_graph
from repro.schema import relation
from repro.workloads import build_example_job

directory = sys.argv[1]
name = "Zoë 東京"
rel = relation("Kunden", ("id", "int", False), ("name", "varchar"))
data = Dataset(rel, [{"id": 1, "name": name}, {"id": 2, "name": "plain"}])
path = os.path.join(directory, "kunden.csv")
write_csv(data, path)
assert read_csv(path, rel).rows == data.rows
with open(path, "rb") as handle:
    assert name.encode("utf-8") in handle.read()

job = build_example_job()
job.name = name
path = os.path.join(directory, "job.xml")
write_job(job, path)
assert read_job(path).name == name

graph = compile_job(job)
path = os.path.join(directory, "graph.json")
write_graph(graph, path)
assert len(read_graph(path).operators) == len(graph.operators)

mappings = Orchid().to_mappings(graph)
path = os.path.join(directory, "mappings.json")
write_mappings(mappings, path)
assert read_mappings(path).names == mappings.names
print("OK")
'''


@pytest.mark.skipif(sys.version_info < (3, 10), reason="EncodingWarning is 3.10+")
def test_files_round_trip_a_non_ascii_name_with_no_locale_encoding(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [
            sys.executable, "-X", "warn_default_encoding",
            "-W", "error::EncodingWarning", "-c", SCRIPT, str(tmp_path),
        ],
        env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "OK"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the package, its tests and examples, and the benchmark scripts (the
#: harness under ``benchmarks/harness`` is the benchmark's own)
SCANNED = ["src/**/*.py", "tests/**/*.py", "examples/**/*.py", "benchmarks/*.py"]


def _text_opens_without_encoding(source):
    """``(line, call)`` of each ``open()`` / ``io.open()`` in ``source``
    whose mode is not a binary literal and that passes no ``encoding``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute)
            and func.attr == "open"
            and isinstance(func.value, ast.Name)
            and func.value.id == "io"
        )
        if not is_open or any(k.arg == "encoding" for k in node.keywords):
            continue
        mode = node.args[1] if len(node.args) > 1 else None
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_text_open_relies_on_the_locale():
    offenders = []
    for pattern in SCANNED:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            for line, call in _text_opens_without_encoding(source):
                offenders.append(f"{os.path.relpath(path, ROOT)}:{line}: {call}")
    assert offenders == []


def test_the_scan_tells_text_from_binary():
    source = (
        "open(p)\nopen(p, 'rb')\nio.open(p, mode='w')\n"
        "open(p, 'w', encoding='utf-8')\nopen(p, mode='ab')\nopen(p, m)\n"
    )
    assert _text_opens_without_encoding(source) == [
        (1, "open(p)"), (3, "io.open(p, mode='w')"), (6, "open(p, m)"),
    ]

"""Every file the package reads or writes is UTF-8 whatever the locale.

A text ``open()`` without ``encoding=`` uses the locale's encoding, so
a file written on one machine could misread on another. This runs a
round trip of a non-ASCII name through each file format in a child
interpreter that turns the warning for such an ``open()`` into an
error (``EncodingWarning`` exists from Python 3.10).
"""

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

"""Orchid reproduction: integrating schema mapping and ETL.

A from-scratch reproduction of *"Orchid: Integrating Schema Mapping and
ETL"* (Dessloch, Hernandez, Wisnesky, Radwan, Zhou - ICDE 2008): a system
converting declarative schema mappings into ETL jobs and vice versa
through a common abstract operator model (the Operator Hub Model, OHM),
with optimization and multi-platform deployment on top.

Layer map (paper Figure 1):

* External layer  - :mod:`repro.etl.xmlio` (job XML),
  :mod:`repro.mapping.jsonio` (mapping JSON)
* Intermediate layer - :mod:`repro.etl` (the DataStage-like substrate,
  whose :class:`~repro.etl.Job` is the graph the compilers walk)
* Abstract layer - :mod:`repro.ohm` (OHM), :mod:`repro.rewrite`
  (optimization), :mod:`repro.compile` (ETL to OHM),
  :mod:`repro.mapping` (mappings, OHM <-> mappings),
  :mod:`repro.deploy` (OHM to ETL / SQL / hybrid)

Quickstart::

    from repro import Orchid
    from repro.workloads import build_example_job

    orchid = Orchid()
    mappings = orchid.etl_to_mappings(build_example_job())
    print(mappings.to_text())
"""

from repro.data import Dataset, Instance
from repro.fasttrack import Orchid
from repro.mapping import Mapping, MappingSet, SourceBinding
from repro.schema import Attribute, Relation, Schema, relation

__version__ = "1.0.0"

__all__ = [
    "Orchid",
    "Dataset",
    "Instance",
    "Mapping",
    "MappingSet",
    "SourceBinding",
    "Attribute",
    "Relation",
    "Schema",
    "relation",
    "__version__",
]

"""The Clio-like schema mapping system and the OHM<->mapping translations."""

from repro.mapping.compose import can_compose, compose_all, compose_mappings
from repro.mapping.executor import MappingExecutor
from repro.mapping.jsonio import (
    mappings_from_json,
    mappings_to_json,
    read_mappings,
    write_mappings,
)
from repro.mapping.to_ohm import mappings_to_ohm
from repro.mapping.from_ohm import PartialMapping, ohm_to_mappings
from repro.mapping.model import Mapping, MappingSet, SourceBinding

__all__ = [
    "can_compose",
    "compose_all",
    "compose_mappings",
    "MappingExecutor",
    "PartialMapping",
    "ohm_to_mappings",
    "mappings_to_ohm",
    "mappings_from_json",
    "mappings_to_json",
    "read_mappings",
    "write_mappings",
    "Mapping",
    "MappingSet",
    "SourceBinding",
]

"""The DataStage-like ETL substrate (paper sections I, III, V).

Jobs are DAGs of stages connected by named links; this package provides
the stage library (15 processing stage types plus access stages), the
runtime engine, and the XML external exchange format Orchid's
Intermediate layer imports from.
"""

from repro.etl.engine import EtlEngine, EtlRunStats
from repro.etl.model import Job, Stage, next_link_name
from repro.etl.stages import (
    AGG_FUNCTIONS,
    STAGE_CLASSES,
    AggregatorStage,
    CombineRecords,
    CopyStage,
    CustomStage,
    FilterOutput,
    FilterStage,
    FunnelStage,
    JoinStage,
    LookupStage,
    Modify,
    OutputLink,
    PeekStage,
    PromoteSubrecord,
    RemoveDuplicatesStage,
    RowGenerator,
    SequentialFileSource,
    SequentialFileTarget,
    SortStage,
    SurrogateKey,
    SwitchStage,
    TableSource,
    TableTarget,
    Transformer,
)
from repro.etl.xmlio import job_from_xml, job_to_xml, read_job, write_job

__all__ = [
    "EtlEngine",
    "EtlRunStats",
    "Job",
    "Stage",
    "next_link_name",
    "AGG_FUNCTIONS",
    "STAGE_CLASSES",
    "AggregatorStage",
    "CombineRecords",
    "CopyStage",
    "CustomStage",
    "FilterOutput",
    "FilterStage",
    "FunnelStage",
    "JoinStage",
    "LookupStage",
    "Modify",
    "OutputLink",
    "PeekStage",
    "PromoteSubrecord",
    "RemoveDuplicatesStage",
    "RowGenerator",
    "SequentialFileSource",
    "SequentialFileTarget",
    "SortStage",
    "SurrogateKey",
    "SwitchStage",
    "TableSource",
    "TableTarget",
    "Transformer",
    "job_from_xml",
    "job_to_xml",
    "read_job",
    "write_job",
]

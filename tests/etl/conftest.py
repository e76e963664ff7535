"""Shared helpers for ETL stage tests."""

from typing import List

import pytest

from repro.data.dataset import Dataset
from repro.exec import ExpressionPlanner


def run_stage(stage, inputs: List[Dataset], out_names=None) -> List[Dataset]:
    """Validate, compute output schemas, and execute one stage directly."""
    input_relations = [d.relation for d in inputs]
    stage.validate(input_relations)
    if out_names is None:
        n_out = stage.max_outputs if stage.max_outputs is not None else None
        if n_out is None or n_out > 1:
            # infer from configuration where possible
            n_out = getattr(stage, "n_outputs", None)
            if n_out is None:
                outputs = getattr(stage, "outputs", None)
                schemas = getattr(stage, "output_schemas", None)
                keeps = getattr(stage, "keep_columns", None)
                if outputs is not None:
                    n_out = len(outputs)
                elif schemas is not None:
                    n_out = len(schemas)
                elif keeps is not None:
                    n_out = len(keeps)
                else:
                    n_out = 1
        out_names = [f"out{i}" for i in range(n_out)]
    out_relations = stage.output_relations(input_relations, out_names)
    return stage.execute(inputs, out_relations, ExpressionPlanner())


@pytest.fixture
def run():
    return run_stage

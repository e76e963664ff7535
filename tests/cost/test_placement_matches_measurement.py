"""The default cost model picks the placement the sweep measured faster.

``benchmarks/calibrate_cost.py --sweep`` timed never-push against
always-push for every family of :mod:`repro.workloads.placement`;
EXPERIMENTS "PLACE" records the runs. ``MEASURED`` copies each cell's
winner at 10³ and 2·10⁴ rows — ``"etl"`` (keep everything in the
engine) or ``"sql"`` (push) — or ``None`` where the two placements
came within 10 % of each other, a tie either pick wins. The test does
no timing: it plans each cell with the default model and checks the
pick. A recalibration that moves a pick away from the measured winner
fails here.
"""

import pytest

from repro.compile import compile_job
from repro.cost import catalog_for
from repro.deploy import plan_pushdown
from repro.workloads.placement import FAMILIES

MEASURED = {
    ("example", 1_000): "etl",
    ("example", 20_000): "etl",
    ("chain-25", 1_000): None,  # 1.09x the engine's, then 0.98x
    ("chain-25", 20_000): "etl",
    ("chain-100", 1_000): "sql",
    ("chain-100", 20_000): "sql",
    ("star-4", 1_000): "etl",
    ("star-4", 20_000): "etl",
    ("star-12", 1_000): None,  # 1.09x, then 1.15x in sqlite's favour
    ("star-12", 20_000): "sql",
    ("fan-out-16", 1_000): "etl",
    ("fan-out-16", 20_000): "etl",
    ("kitchen-sink", 1_000): "etl",
    ("kitchen-sink", 20_000): "etl",
}


def test_every_family_is_covered():
    assert {family for family, _rows in MEASURED} == set(FAMILIES)


@pytest.mark.parametrize("family, rows", sorted(MEASURED))
def test_default_model_picks_the_measured_winner(family, rows):
    build_job, build_instance = FAMILIES[family]
    plan = plan_pushdown(
        compile_job(build_job()), catalog=catalog_for(build_instance(rows))
    )
    picked = "sql" if plan.statements else "etl"
    if MEASURED[family, rows] is not None:
        assert picked == MEASURED[family, rows]

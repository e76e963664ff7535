"""The placement sweep's job families.

Each family is a job and a seeded instance of about ``rows`` source
rows. ``benchmarks/calibrate_cost.py --sweep`` times the never-push,
always-push and cost-based plans of every family at 10³, 2·10⁴ and
7·10⁴ rows, and ``tests/cost/test_placement_matches_measurement.py``
checks that the cost model picks the winner recorded for each cell.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.data.dataset import Instance
from repro.etl.model import Job
from repro.workloads.generators import (
    build_chain_job,
    build_fanout_job,
    build_star_join_job,
    generate_chain_instance,
    generate_star_instance,
)
from repro.workloads.kitchen_sink import (
    build_kitchen_sink_job,
    generate_kitchen_sink_instance,
)
from repro.workloads.paper_example import build_example_job, generate_instance

#: family name → (job builder, instance builder over about ``rows`` rows).
#: The example's rows are customers and accounts together (2.5 accounts
#: a customer), so 7·10⁴ rows is the benchmark's 20 000 customers; a
#: star's are its facts, the kitchen sink's its orders.
FAMILIES: Dict[str, Tuple[Callable[[], Job], Callable[[int], Instance]]] = {
    "example": (
        build_example_job, lambda rows: generate_instance(max(1, rows * 2 // 7))
    ),
    "chain-25": (lambda: build_chain_job(25), generate_chain_instance),
    "chain-100": (lambda: build_chain_job(100), generate_chain_instance),
    "star-4": (
        lambda: build_star_join_job(4),
        lambda rows: generate_star_instance(4, rows),
    ),
    "star-12": (
        lambda: build_star_join_job(12),
        lambda rows: generate_star_instance(12, rows),
    ),
    "fan-out-16": (lambda: build_fanout_job(16), generate_chain_instance),
    "kitchen-sink": (
        lambda: build_kitchen_sink_job(with_surrogate_key=False),
        lambda rows: generate_kitchen_sink_instance(rows, max(1, rows // 20)),
    ),
}


__all__ = ["FAMILIES"]

"""Measure the cost model's rates, and time placement against them.

    python benchmarks/calibrate_cost.py            # the rates
    python benchmarks/calibrate_cost.py --sweep    # ... and the placement sweep
    python benchmarks/calibrate_cost.py --quick    # smoke run: tiny sizes, one run

The rates are timed on one-operator OHM graphs at 2·10⁴ rows, best of
``--repeat`` runs, each on fresh datasets:

* the ETL engine's, on ``OhmExecutor`` over columnar input: per kind,
  the run of SOURCE → op → TARGET less the bare SOURCE → TARGET run,
  per input row; the write as the bare run's growth per cell from a
  quarter of the rows to all of them, and the scan as turning a base
  relation's rows into columns, per cell. A JOIN gets a rate per input
  row and one per output cell, solved from two joins of one fact table
  whose outputs differ tenfold: against a 20-row dimension and against
  two of its rows;
* sqlite's, through ``SqliteRunner``: loading a table, per cell;
  fetching ``SELECT *`` back as a block, per cell; and per kind the
  pushed one-operator statement less the fetch of its result, per input
  row.

FILTER, PROJECT and BASIC PROJECT — the kinds a fused chain is made of
— are timed on both platforms as one more operator in a chain of their
own kind: the run of a 10-operator chain less that of a 1-operator
chain, per input row of the nine added. Alone, such an operator's
result is consumed by nothing but the target, and it measures a third
to a half cheaper than it runs inside a chain.

The script prints them as the block ``src/repro/cost/model.py``
carries, in microseconds — the model's row-unit. ``--sweep`` then times
the never-push, always-push and cost-based plans of every family in
``repro.workloads.placement.FAMILIES`` at 10³, 2·10⁴ and 7·10⁴ rows
(``HybridPlan.execute`` on fresh datasets, median of ``--repeat``
alternating rounds), checks that the three give the same bags, and
names each cell's winner. The sweep is the held-out check: no rate is
fitted to it.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.compile import compile_job  # noqa: E402
from repro.cost import catalog_for  # noqa: E402
from repro.data.dataset import Dataset, Instance  # noqa: E402
from repro.deploy import plan_pushdown  # noqa: E402
from repro.deploy.datastage import deploy_to_job  # noqa: E402
from repro.deploy.pushdown import HybridPlan  # noqa: E402
from repro.deploy.sql import SqliteRunner  # noqa: E402
from repro.errors import DeploymentError  # noqa: E402
from repro.ohm import (  # noqa: E402
    BasicProject,
    ColumnMerge,
    ColumnSplit,
    Filter,
    Group,
    Join,
    KeyGen,
    Nest,
    OhmExecutor,
    OhmGraph,
    Project,
    Source,
    Split,
    Target,
    Union,
)
from repro.schema import relation  # noqa: E402
from repro.workloads import (  # noqa: E402
    chain_relation,
    generate_chain_instance,
    generate_star_instance,
)
from repro.workloads.placement import FAMILIES  # noqa: E402

CALIBRATION_ROWS = 20_000
SWEEP_ROWS = (1_000, 20_000, 70_000)
_US = 1e6
#: no measured rate is printed below this (a rate is never zero)
_FLOOR = 0.001

_R = chain_relation()  # id, category, amount, note
_PARTS = relation("N", ("id", "int", False), ("parts", "varchar"))
_DIM = relation("Dim0", ("dimID", "int", False), ("dimName", "varchar"))


def _fresh(instance: Instance) -> Instance:
    """New datasets over the same rows: nothing an earlier run cached."""
    return Instance(Dataset.adopt(d.relation, list(d.rows)) for d in instance)


def _collected(instance: Instance) -> Instance:
    """Fresh datasets, with the garbage of earlier runs collected."""
    gc.collect()
    return _fresh(instance)


def _columnar(instance: Instance) -> Instance:
    fresh = _fresh(instance)
    for data in fresh:
        data.as_block()
    return fresh


def _best(run: Callable[[Instance], object], prepare: Callable[[], Instance],
          repeat: int) -> float:
    """The fastest of ``repeat`` runs of ``run(prepare())``; only the
    run is timed."""
    times = []
    for _ in range(repeat):
        argument = prepare()
        start = time.perf_counter()
        run(argument)
        times.append(time.perf_counter() - start)
    return min(times)


def _cells(instance: Instance) -> int:
    return sum(len(d) * len(d.relation.attribute_names) for d in instance)


# -- the one-operator graphs ---------------------------------------------------


def _graph(op, sources) -> OhmGraph:
    """``sources`` → ``op`` → one TARGET per output (two for a SPLIT)."""
    g = OhmGraph()
    g.add(op)
    for port, rel in enumerate(sources):
        g.connect(g.add(Source(rel)), op, dst_port=port, name=f"in{port}")
    op.validate(list(sources))
    outputs = ["Out0", "Out1"] if isinstance(op, Split) else ["Out"]
    for port, out in enumerate(op.output_relations(list(sources), outputs)):
        g.connect(op, g.add(Target(out)), src_port=port, name=f"to{out.name}")
    return g


#: the kinds a fused chain is made of, each as an operator that keeps
#: its input's rows and columns, so that a chain of it can be timed
_CHAINED: Dict[str, Callable[[], object]] = {
    "FILTER": lambda: Filter("amount >= 0"),
    "PROJECT": lambda: Project([
        ("id", "id"), ("category", "UPPER(category)"),
        ("amount", "amount + 1"), ("note", "note"),
    ]),
    "BASIC PROJECT": lambda: BasicProject.identity(_R),
}
_CHAIN_LENGTH = 10


def _chain(make: Callable[[], object], length: int) -> OhmGraph:
    """SOURCE → ``length`` operators made by ``make`` → TARGET."""
    g = OhmGraph()
    previous = g.add(Source(_R))
    for i in range(length):
        op = g.add(make())
        g.connect(previous, op, name=f"link{i}")
        previous = op
    g.connect(previous, g.add(Target(_R.renamed("Out"))), name="toOut")
    return g


def _operators(rows: int) -> Dict[str, Tuple[OhmGraph, Instance]]:
    """Operator kind → (its one-operator graph, an instance for it), for
    the kinds that are not timed in a chain."""
    chain = generate_chain_instance(rows)
    data = chain.dataset("R")
    halves = Instance([
        Dataset.adopt(_R, list(data.rows[: rows // 2])),
        Dataset.adopt(_R.renamed("R2"), list(data.rows[rows // 2:])),
    ])
    parts = Instance([Dataset.adopt(_PARTS, [
        {"id": i, "parts": f"p{i}|q{i}"} for i in range(rows)
    ])])
    star = generate_star_instance(1, rows)
    fact = star.dataset("Fact")
    dim = Dataset.adopt(_DIM, [
        {"dimID": r["dim0ID"], "dimName": r["dim0Name"]}
        for r in star.dataset("Dim0").rows
    ])
    return {
        "KEYGEN": (_graph(KeyGen("rowKey"), [_R]), chain),
        "COLUMN MERGE": (_graph(
            ColumnMerge(["category", "note"], "label", "-"), [_R]
        ), chain),
        "COLUMN SPLIT": (_graph(
            ColumnSplit("parts", ["p", "q"], "|", passthrough=["id"]),
            [_PARTS],
        ), parts),
        "GROUP": (_graph(Group(
            ["category"], [("total", "SUM(amount)"), ("n", "COUNT(*)")]
        ), [_R]), chain),
        "UNION": (_graph(Union(), [_R, _R.renamed("R2")]), halves),
        "SPLIT": (_graph(Split(), [_R]), chain),
        "NEST": (_graph(Nest(["id"], ["parts"], "bag"), [_PARTS]), parts),
        "JOIN": (
            _graph(Join("dim0ID = dimID"), [fact.relation, _DIM]),
            Instance([fact, dim]),
        ),
    }


# -- the rates -----------------------------------------------------------------


def measure_rates(rows: int, repeat: int) -> Dict[str, object]:
    """Every rate ``repro.cost.model`` carries, in seconds."""
    base = generate_chain_instance(rows)
    cells = _cells(base)

    def run(graph: OhmGraph) -> Callable[[Instance], object]:
        return lambda instance: OhmExecutor().execute(graph, instance)

    bare = OhmGraph()
    bare.connect(bare.add(Source(_R)), bare.add(Target(_R.renamed("Out"))),
                 name="toOut")
    scan = _best(lambda i: [d.as_block() for d in i], lambda: _fresh(base),
                 repeat) / cells
    # a run's fixed cost is no target's: the write is the slope of the
    # bare run between a quarter of the rows and all of them
    quarter = generate_chain_instance(rows // 4)
    bare_run = _best(run(bare), lambda: _columnar(base), repeat)
    write = (bare_run - _best(run(bare), lambda: _columnar(quarter), repeat)) / (
        cells - _cells(quarter)
    )
    load = _best(lambda i: SqliteRunner(i).close(), lambda: _fresh(base),
                 repeat) / cells
    runner = SqliteRunner(_fresh(base))
    fetch = _best(lambda _: runner.query('SELECT * FROM "R"', _R),
                  lambda: base, repeat) / cells
    runner.close()

    etl_rows: Dict[str, float] = {}
    etl_cells = {"SOURCE": scan, "TARGET": write}
    sql_rows: Dict[str, float] = {}
    added = (_CHAIN_LENGTH - 1) * rows  # input rows of the chain's added operators
    for kind, make in _CHAINED.items():
        short, long = _chain(make, 1), _chain(make, _CHAIN_LENGTH)
        etl_rows[kind] = (
            _best(run(long), lambda: _columnar(base), repeat)
            - _best(run(short), lambda: _columnar(base), repeat)
        ) / added
        runner = SqliteRunner(_fresh(base))
        spent = []
        for graph in (short, long):
            statement = _pushed_statement(graph)
            if statement is None:
                raise SystemExit(f"a chain of {kind} no longer pushes down")
            sql, schema = statement
            spent.append(_best(lambda _: runner.query(sql, schema),
                               lambda: base, repeat))
        runner.close()
        sql_rows[kind] = (spent[1] - spent[0]) / added
    operators = _operators(rows)
    for kind, (graph, instance) in operators.items():
        rows_in = sum(len(d) for d in instance)
        out_cells = _cells(OhmExecutor().execute(graph, _columnar(instance)))
        if kind != "JOIN":
            etl_rows[kind] = (
                _best(run(graph), lambda: _columnar(instance), repeat) - bare_run
            ) / rows_in
        statement = _pushed_statement(graph)
        if statement is not None:
            sql, schema = statement
            runner = SqliteRunner(_fresh(instance))
            spent = _best(lambda _: runner.query(sql, schema),
                          lambda: instance, repeat)
            runner.close()
            sql_rows[kind] = (spent - fetch * out_cells) / rows_in
    # a JOIN's engine time grows with its input rows and with its output
    # cells: the fact table against every dimension row and against a
    # tenth of them (the same input, a tenth of the output), each run
    # less the bare run, give both rates
    graph, matched = operators["JOIN"]
    dim = matched.dataset(_DIM.name)
    selective = Instance([
        matched.dataset("Fact"),
        Dataset.adopt(_DIM, dim.rows[: max(1, len(dim) // 10)]),
    ])
    joins = []  # (input rows, output cells, seconds) of each JOIN
    for instance in (matched, selective):
        out_cells = _cells(OhmExecutor().execute(graph, _columnar(instance)))
        spent = _best(run(graph), lambda: _columnar(instance), repeat)
        joins.append((sum(len(d) for d in instance), out_cells,
                      spent - bare_run))
    (in1, out1, t1), (in2, out2, t2) = joins
    det = in1 * out2 - in2 * out1
    etl_rows["JOIN"] = (t1 * out2 - t2 * out1) / det
    etl_cells["JOIN"] = (in1 * t2 - in2 * t1) / det
    return {
        "ETL_ROW_COSTS": etl_rows,
        "ETL_CELL_COSTS": etl_cells,
        "SQL_ROW_COSTS": sql_rows,
        "SQL_LOAD_CELL_COST": load,
        "SQL_TRANSFER_CELL_COST": fetch,
    }


def _pushed_statement(graph: OhmGraph) -> Optional[Tuple[str, object]]:
    """The statement maximal pushdown makes of the graph's operator, or
    ``None`` when the DBMS cannot take that operator."""
    try:
        hybrid = plan_pushdown(graph)
    except DeploymentError:
        return None
    pushed = hybrid.pushed_operator_uids
    if any(not isinstance(op, Target) and op.uid not in pushed
           for op in graph.operators):
        return None
    ((name, sql),) = hybrid.statements.items()
    return sql, hybrid.frontier_schemas[name]


def render_rates(rates: Dict[str, object]) -> str:
    """The rates as the constants block of ``repro/cost/model.py``."""

    def number(value: float) -> str:
        return f"{max(value * _US, _FLOOR):.3f}"

    lines = []
    for name, value in rates.items():
        if isinstance(value, dict):
            lines.append(f"{name}: Dict[str, float] = {{")
            lines.extend(f'    "{k}": {number(v)},' for k, v in value.items())
            lines.append("}")
        else:
            lines.append(f"{name} = {number(value)}")
    return "\n".join(lines)


# -- the sweep -----------------------------------------------------------------


def _plans(graph: OhmGraph, instance: Instance) -> Dict[str, HybridPlan]:
    job, etl_plan = deploy_to_job(graph, name=f"{graph.name}_residual")
    return {
        "never": HybridPlan({}, {}, job, set(), etl_plan),
        "always": plan_pushdown(graph),
        "cost": plan_pushdown(graph, catalog=catalog_for(instance)),
    }


def sweep(sizes, repeat: int) -> List[dict]:
    """Time the three placements of every family at every size."""
    cells = []
    print("| family | rows | never s | always s | cost s | cost pushes | "
          "winner | cost ÷ min |")
    print("|---|---|---|---|---|---|---|---|")
    for family, (build_job, build_instance) in FAMILIES.items():
        for rows in sizes:
            instance = build_instance(rows)
            plans = _plans(compile_job(build_job()), instance)
            results = {k: p.execute(_fresh(instance)) for k, p in plans.items()}
            same = all(r.same_bags(results["never"]) for r in results.values())
            del results  # a bigger heap slows the collector in every run
            times: Dict[str, List[float]] = {k: [] for k in plans}
            order = list(plans)
            for round_ in range(repeat):
                for key in order[round_ % 3:] + order[: round_ % 3]:
                    times[key].append(_best(plans[key].execute,
                                            lambda: _collected(instance), 1))
            cell: dict = {k: statistics.median(v) for k, v in times.items()}
            best = min(cell["never"], cell["always"])
            cell.update(
                family=family, rows=rows, same_bags=same,
                pushed=len(plans["cost"].pushed_operator_uids),
                winner="etl" if cell["never"] <= cell["always"] else "sql",
            )
            cells.append(cell)
            print(
                f"| {family} | {rows} | {cell['never']:.4f} | "
                f"{cell['always']:.4f} | {cell['cost']:.4f} | "
                f"{cell['pushed']} | {cell['winner']} | "
                f"{cell['cost'] / best:.2f}"
                f"{'' if same else ' BAGS DIFFER'} |",
                flush=True,
            )
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sweep", action="store_true",
                        help="also time never / always / cost-based placement")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 500 rows, one run, no timing worth keeping")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    repeat = 1 if args.quick else args.repeat
    rows = 500 if args.quick else CALIBRATION_ROWS
    print(f"# measured by benchmarks/calibrate_cost.py at {rows} rows, "
          f"best of {repeat}")
    print(render_rates(measure_rates(rows, repeat)), flush=True)
    if args.sweep:
        cells = sweep((500,) if args.quick else SWEEP_ROWS, repeat)
        if not all(cell["same_bags"] for cell in cells):
            print("placements disagree on the result bags", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: convert between ETL jobs and mappings.

::

    orchid etl-to-mappings job.xml -o mappings.json
    orchid mappings-to-etl mappings.json -o job.xml
    orchid show job.xml              # render the OHM instance
    orchid pushdown job.xml          # print the hybrid SQL + ETL plan
    orchid optimize job.xml -o job2.xml   # OHM-level rewrites, redeployed
    orchid export-ohm job.xml -o g.json   # persist the abstract layer
    orchid lint job.xml              # static analysis, no execution

``lint`` reports ORC-coded diagnostics (``docs/analysis.md``) as text or
``--format json`` and exits 1 on errors (with ``--strict``, on warnings
too). Every plan an invocation executes passes the same analysis first:
an engine refuses a statically broken plan before row one.

Every subcommand additionally accepts ``--trace`` (print the span tree
of the run) and ``--stats {json,text}`` (print the metrics registry);
both reports go to *stderr* so the primary document on stdout stays
machine-readable (``docs/observability.md`` has the naming conventions).

The remaining shared flags each state one or two options of
:mod:`repro.config` for whatever the invocation executes — the table in
``docs/execution-model.md`` ("Options") lists flag, keyword, variable,
default and accepted values side by side. A run cancelled by
``--deadline`` exits with status 4 and prints the committed frontier.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence

from repro import config
from repro.config import ERROR_POLICIES
from repro.errors import RunCancelled, ValidationError
from repro.fasttrack.orchid import Orchid
from repro.obs import Observability


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="orchid",
        description="Convert between ETL jobs and schema mappings via the "
        "Operator Hub Model.",
        allow_abbrev=False,
    )
    observability = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    observability.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree of this run to stderr",
    )
    observability.add_argument(
        "--stats",
        choices=["json", "text"],
        help="print pipeline metrics (counters/gauges/timers) to stderr",
    )
    observability.add_argument(
        "--interpreted",
        action="store_true",
        help="run the semantic oracle: row kernels over the tree-walking "
        "interpreter, every output copied and validated "
        "(equivalent to REPRO_COMPILED=0)",
    )
    observability.add_argument(
        "--on-error",
        choices=list(ERROR_POLICIES),
        help="row-level error policy for everything this invocation "
        "executes (equivalent to REPRO_ON_ERROR)",
    )
    observability.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        help="retry transient source/target failures up to N times with "
        "exponential backoff (equivalent to REPRO_MAX_RETRIES)",
    )
    observability.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="snapshot completed ETL stages under DIR so interrupted "
        "runs resume from the last good frontier (equivalent to "
        "REPRO_CHECKPOINT_DIR)",
    )
    observability.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="cancel any run cooperatively once it has used SECONDS of "
        "wall clock; exits with status 4 and the committed frontier "
        "(equivalent to REPRO_DEADLINE — see docs/robustness.md)",
    )
    observability.add_argument(
        "--memory-budget",
        type=int,
        metavar="ROWS",
        help="cap blocking operators (join builds, aggregation state, "
        "sort buffers) at ROWS resident rows; overruns spill to "
        "temp-file runs with identical results (equivalent to "
        "REPRO_MEMORY_BUDGET)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "etl-to-mappings",
        parents=[observability],
        allow_abbrev=False,
        help="compile a job XML into composed mappings",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument("-o", "--output", help="write mappings JSON here")
    p.add_argument(
        "--notation",
        choices=["json", "query", "logic"],
        default="json",
        help="output notation (default: json)",
    )

    p = sub.add_parser(
        "mappings-to-etl",
        parents=[observability],
        allow_abbrev=False,
        help="deploy a mappings JSON document as a job",
    )
    p.add_argument("mappings", help="path to the mappings JSON document")
    p.add_argument("-o", "--output", help="write job XML here")
    p.add_argument(
        "--plan", action="store_true", help="also print the deployment plan"
    )

    p = sub.add_parser(
        "show",
        parents=[observability],
        allow_abbrev=False,
        help="print the OHM instance of a job",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument(
        "--dot", action="store_true", help="emit GraphViz instead of text"
    )

    p = sub.add_parser(
        "pushdown",
        parents=[observability],
        allow_abbrev=False,
        help="print the hybrid SQL + ETL deployment of a job",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument(
        "--explain",
        action="store_true",
        help="also print the per-operator cost plan (estimated "
        "cardinalities and row-unit costs)",
    )
    p.add_argument(
        "--sample",
        type=int,
        metavar="N",
        help="build a statistics catalog from N seeded synthetic rows "
        "per source relation, enabling cost-based placement",
    )

    p = sub.add_parser(
        "explain",
        parents=[observability],
        allow_abbrev=False,
        help="run a job over synthetic data and print estimated vs "
        "actual cardinalities and costs per operator",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument(
        "--sample",
        type=int,
        default=1000,
        metavar="N",
        help="synthetic rows per source relation (default: 1000)",
    )

    p = sub.add_parser(
        "optimize",
        parents=[observability],
        allow_abbrev=False,
        help="import a job, rewrite it at the OHM level, redeploy it",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument("-o", "--output", help="write the optimized job XML here")

    p = sub.add_parser(
        "export-ohm",
        parents=[observability],
        allow_abbrev=False,
        help="persist a job's OHM instance as JSON",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument("-o", "--output", help="write the OHM JSON here")

    p = sub.add_parser(
        "lint",
        parents=[observability],
        allow_abbrev=False,
        help="statically analyze a job without executing it "
        "(docs/analysis.md lists the ORC diagnostic codes)",
    )
    p.add_argument("job", help="path to the job XML document")
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    p.add_argument(
        "--ohm",
        action="store_true",
        help="lint the compiled OHM instance (pushdown-placement lints) "
        "instead of the ETL job layer",
    )

    args = parser.parse_args(argv)
    obs = Observability(
        trace=bool(args.trace), stats=args.stats is not None
    )
    try:
        scope = config.overriding(**_flags(args))
    except (ValueError, ValidationError) as exc:
        # "<option> must be …": say it with the flag's spelling
        option, _, rest = str(exc).partition(" ")
        parser.error(f"--{option.replace('_', '-')} {rest}")
    orchid = Orchid(obs=obs)
    try:
        with scope:
            return _dispatch(args, orchid)
    except RunCancelled as exc:
        # a deadline or cancel is an orderly outcome, not a crash:
        # report the committed (resumable) frontier and exit distinctly
        frontier = ", ".join(exc.frontier) if exc.frontier else "(none)"
        sys.stderr.write(
            f"run cancelled ({exc.reason}): {exc}\n"
            f"committed frontier: {frontier}\n"
        )
        return 4
    finally:
        if args.trace:
            sys.stderr.write(obs.tracer.to_text() + "\n")
        if args.stats == "json":
            sys.stderr.write(obs.metrics.to_json() + "\n")
        elif args.stats == "text":
            sys.stderr.write(obs.metrics.to_text() + "\n")


def _flags(args: argparse.Namespace) -> Dict[str, Any]:
    """The :mod:`repro.config` options this invocation's flags state —
    only those given, so an unstated flag leaves its option to the
    environment."""
    flags: Dict[str, Any] = {}
    if args.interpreted:
        flags["compiled"] = False
    for name in ("on_error", "max_retries", "checkpoint_dir", "deadline",
                 "memory_budget"):
        value = getattr(args, name)
        if value not in (None, ""):
            flags[name] = value
    return flags


def _synthetic_instance(graph, n_rows: int):
    """A seeded synthetic instance covering every table source of an
    OHM graph (provider-backed sources generate their own data)."""
    from repro.ohm.operators import Source
    from repro.workloads import synthesize_instance

    return synthesize_instance(
        [
            op.relation
            for op in graph.operators
            if isinstance(op, Source) and op.provider is None
        ],
        n_rows,
    )


def _dispatch(args: argparse.Namespace, orchid: Orchid) -> int:
    if args.command == "etl-to-mappings":
        mappings = orchid.etl_to_mappings(_read(args.job))
        if args.notation == "query":
            _write(mappings.to_text(), args.output)
        elif args.notation == "logic":
            _write(
                "\n".join(m.to_logical_notation() for m in mappings),
                args.output,
            )
        else:
            _write(Orchid.export_mappings_json(mappings), args.output)
        return 0

    if args.command == "mappings-to-etl":
        job, plan = orchid.mappings_to_etl(_read(args.mappings))
        if args.plan:
            sys.stderr.write(plan.describe() + "\n")
        _write(Orchid.export_etl_xml(job), args.output)
        return 0

    if args.command == "show":
        graph = orchid.import_etl(_read(args.job))
        if args.dot:
            _write(graph.to_dot(), None)
        else:
            lines = [f"OHM instance {graph.name!r}:"]
            for op in graph.topological_order():
                lines.append(f"  {op!r}")
            _write("\n".join(lines), None)
        return 0

    if args.command == "pushdown":
        from repro.cost import CardinalityEstimator, catalog_for, explain_graph

        graph = orchid.import_etl(_read(args.job))
        if args.sample:
            if args.sample < 1:
                raise SystemExit("--sample must be >= 1")
            orchid.catalog = catalog_for(
                _synthetic_instance(graph, args.sample)
            )
        plan = orchid.to_hybrid(graph)
        out = [plan.describe()]
        if args.explain:
            graph.propagate_schemas()
            out.append(explain_graph(
                graph,
                estimate=plan.estimate,
                estimator=CardinalityEstimator(orchid.catalog),
            ))
        _write("\n\n".join(out), None)
        return 0

    if args.command == "explain":
        from repro.cost import (
            CardinalityEstimator,
            actuals_from_metrics,
            catalog_for,
            explain_graph,
        )
        from repro.obs import Observability as _Obs
        from repro.ohm.engine import OhmExecutor

        if args.sample < 1:
            raise SystemExit("--sample must be >= 1")
        graph = orchid.import_etl(_read(args.job))
        graph.propagate_schemas()
        instance = _synthetic_instance(graph, args.sample)
        catalog = catalog_for(instance)
        estimate = CardinalityEstimator(catalog).estimate_graph(graph)
        run_obs = _Obs(stats=True)
        executor = OhmExecutor(obs=run_obs, catalog=catalog)
        rows = executor.run(graph, instance).rows
        actuals = actuals_from_metrics(run_obs.metrics)
        actuals.update(rows)
        _write(
            explain_graph(graph, estimate=estimate, actuals=actuals), None
        )
        return 0

    if args.command == "optimize":
        graph = orchid.import_etl(_read(args.job))
        report = orchid.optimize(graph)
        sys.stderr.write(f"{report!r}\n")
        job, _plan = orchid.to_etl(graph)
        _write(Orchid.export_etl_xml(job), args.output)
        return 0

    if args.command == "export-ohm":
        from repro.ohm import graph_to_json

        graph = orchid.import_etl(_read(args.job))
        _write(graph_to_json(graph), args.output)
        return 0

    if args.command == "lint":
        from repro.analysis import AnalysisReport
        from repro.errors import MappingError, ParseError, SchemaError
        from repro.etl.xmlio import job_from_xml

        try:
            job = job_from_xml(_read(args.job))
        except (ParseError, SchemaError, MappingError) as exc:
            # the document never became a plan: a one-diagnostic report
            report = AnalysisReport(subject=args.job)
            report.emit("ORC001", str(exc))
        else:
            if args.ohm:
                from repro.analysis import analyze_graph

                report = analyze_graph(
                    orchid.import_etl(job), registry=job.registry
                )
            else:
                from repro.analysis import analyze_job

                report = analyze_job(job)
        if args.format == "json":
            _write(report.to_json(), None)
        else:
            _write(report.to_text(), None)
        return report.exit_code(strict=args.strict)

    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

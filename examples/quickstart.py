#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Builds the Figure 3 DataStage-style job (Customers + Accounts →
BigCustomers / OtherCustomers), compiles it into an OHM instance
(Figure 5), extracts the declarative mappings (Figure 8), regenerates an
ETL job from them (Figures 9/10), and verifies on synthetic data that
every representation computes exactly the same result.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace          # span tree to stderr
      python examples/quickstart.py --stats text     # metrics to stdout
      python examples/quickstart.py --stats json     # metrics JSON ONLY on
                                                     # stdout (narrative moves
                                                     # to stderr) — pipeable
      python examples/quickstart.py --on-error reject --poison 5 --stats json
                                                     # fault-tolerant run: 5
                                                     # seeded bad rows land on
                                                     # the reject channel and
                                                     # show up as exec.errors.*
      python examples/quickstart.py --explain        # cost-based plan: estimated
                                                     # vs actual cardinalities
                                                     # and per-operator costs
                                                     # (see docs/planning.md)
"""

import argparse
import sys

from repro import Orchid, config
from repro.etl import EtlEngine
from repro.errors import RunCancelled
from repro.mapping import MappingExecutor
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import build_example_job, generate_instance


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree of the whole run to stderr",
    )
    parser.add_argument(
        "--stats",
        choices=["json", "text"],
        help="print pipeline metrics; 'json' prints ONLY the metrics "
        "document on stdout so it can be piped into a parser",
    )
    parser.add_argument(
        "--interpreted",
        action="store_true",
        help="run every engine with the tree-walking expression "
        "interpreter (the semantic oracle) instead of the compiler",
    )
    parser.add_argument(
        "--on-error",
        choices=["fail_fast", "skip", "reject"],
        default=None,
        help="row-level error policy for the fault-tolerance demo "
        "(see docs/robustness.md)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the cost-based plan for the example job: estimated vs "
        "actual cardinalities and per-operator costs (docs/planning.md)",
    )
    parser.add_argument(
        "--poison",
        type=int,
        default=0,
        metavar="N",
        help="poison N seeded rows of the demo workload so they error "
        "inside the Transformer (pairs with --on-error)",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help="cap blocking operators at ROWS resident rows; overruns "
        "spill to temp-file runs (exec.spill.* in --stats; see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cancel the run cooperatively after SECONDS of wall clock "
        "(exits 4 with the committed frontier; docs/robustness.md)",
    )
    parser.add_argument(
        "--export-job",
        default=None,
        metavar="PATH",
        help="write the example job as DataStage-style XML to PATH and "
        "exit (feed it to `orchid lint`; see docs/analysis.md)",
    )
    args = parser.parse_args(argv)
    if args.export_job is not None:
        from repro.etl import job_to_xml

        with open(args.export_job, "w", encoding="utf-8") as handle:
            handle.write(job_to_xml(build_example_job()))
        print(f"wrote {args.export_job}", file=sys.stderr)
        return
    # the flags given, as repro.config options (docs/execution-model.md)
    flags = {}
    if args.interpreted:
        flags["compiled"] = False
    if args.memory_budget is not None:
        flags["memory_budget"] = args.memory_budget
    if args.deadline is not None:
        flags["deadline"] = args.deadline

    obs = Observability(trace=args.trace, stats=args.stats is not None)
    # with --stats json, stdout is reserved for the metrics document
    out = sys.stderr if args.stats == "json" else sys.stdout

    orchid = Orchid(obs=obs)

    try:
        with config.overriding(**flags):
            _run_demo(args, orchid, obs, out)
        exit_code = 0
    except RunCancelled as exc:
        print(
            f"\n=== Run cancelled ({exc.reason}) ===\n  {exc}\n"
            f"  committed frontier: {', '.join(exc.frontier) or '(none)'}",
            file=out,
        )
        exit_code = 4

    # --- observability reports ----------------------------------------------------
    if args.trace:
        print("\n=== Trace ===", file=sys.stderr)
        print(obs.tracer.to_text(), file=sys.stderr)
    if args.stats == "json":
        print(obs.metrics.to_json())
    elif args.stats == "text":
        print("\n=== Metrics ===", file=out)
        print(obs.metrics.to_text(), file=out)
    if exit_code:
        raise SystemExit(exit_code)


def _run_demo(args, orchid, obs, out) -> None:
    # --- the ETL job (Figure 3) -------------------------------------------------
    job = build_example_job()
    print("=== ETL job ===", file=out)
    for stage in job.topological_order():
        print(f"  [{stage.STAGE_TYPE}] {stage.name}", file=out)

    # --- compile into the Operator Hub Model (Figure 5) --------------------------
    graph = orchid.import_etl(job)
    print("\n=== OHM instance (abstract layer) ===", file=out)
    for op in graph.topological_order():
        print(f"  {op!r}", file=out)

    # --- extract the declarative mappings (Figures 7/8) --------------------------
    mappings = orchid.to_mappings(graph)
    print("\n=== Extracted mappings ===", file=out)
    print(mappings.to_text(), file=out)

    # --- regenerate an ETL job from the mappings (Figures 9/10) ------------------
    regenerated, plan = orchid.mappings_to_etl(mappings)
    print("\n=== Deployment plan ===", file=out)
    print(plan.describe(), file=out)

    # --- verify all representations on data --------------------------------------
    instance = generate_instance(n_customers=200)
    engine = EtlEngine(obs=obs)
    baseline = engine.execute(job, instance)
    checks = {
        "OHM engine": OhmExecutor(obs=obs).execute(graph, instance),
        "mapping executor": MappingExecutor().execute(mappings, instance),
        "regenerated job": EtlEngine(obs=obs).execute(regenerated, instance),
    }
    print("\n=== Semantic checks (200 customers) ===", file=out)
    print(
        f"  original job: {len(baseline.dataset('BigCustomers'))} big, "
        f"{len(baseline.dataset('OtherCustomers'))} other customers",
        file=out,
    )
    for name, result in checks.items():
        status = "OK" if result.same_bags(baseline) else "MISMATCH"
        print(f"  {name:<18} {status}", file=out)

    # --- cost-based plan (docs/planning.md) ---------------------------------------
    if args.explain:
        from repro.cost import (
            CardinalityEstimator,
            actuals_from_metrics,
            catalog_for,
            explain_graph,
        )

        catalog = catalog_for(instance)
        estimator = CardinalityEstimator(catalog)
        estimate = estimator.estimate_graph(graph)
        explain_obs = Observability(stats=True)
        explained = OhmExecutor(obs=explain_obs, catalog=catalog)
        rows = explained.run(graph, instance).rows
        actuals = actuals_from_metrics(explain_obs.metrics)
        actuals.update(rows)
        print("\n=== Cost plan (estimated vs actual) ===", file=out)
        print(explain_graph(graph, estimate=estimate, actuals=actuals), file=out)

    # --- fault tolerance (docs/robustness.md) -------------------------------------
    if args.on_error or args.poison:
        from repro.resilience import format_row
        from repro.workloads import build_faulty_job, generate_faulty_instance

        policy = args.on_error or "reject"
        faulty_instance, fault_plan = generate_faulty_instance(
            n=100, seed=7, poison=args.poison or 5
        )
        faulty_engine = EtlEngine(obs=obs, on_error=policy)
        delivered = faulty_engine.execute(build_faulty_job(), faulty_instance)
        run = faulty_engine.last_run
        print(
            f"\n=== Fault-tolerant run (policy={policy}) ===", file=out
        )
        print(
            f"  {len(fault_plan.poisoned['Orders'])} poisoned rows, "
            f"{len(delivered.dataset('Premium'))} delivered, "
            f"{run.total_rejected} rejected, "
            f"{sum(run.skip_counts.values())} skipped",
            file=out,
        )
        for record in run.rejected[:3]:
            print(
                f"    [{record.error_code}] {record.stage} "
                f"row {record.row_index}: {format_row(record.row)}",
                file=out,
            )


if __name__ == "__main__":
    main()

"""The five workloads: what the parent generates, what one op runs.

Each workload has a parent half (:meth:`generate`: seeded inputs, input
files, and the reference digest from the tree-walking oracle on the
original job) and a worker half (:meth:`load`, :meth:`inputs`,
:meth:`op`, :meth:`check`). An op calls public functions of ``repro``
only, each wrapped in a span named after the layer that owns it; the
span names are the ``per_layer`` metric names of ``BENCHMARK.json``
without their ``_s`` suffix.
"""

from __future__ import annotations

import hashlib
import os
import re
from statistics import median
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis import check_plan
from repro.compile import compile_job
from repro.cost import catalog_for
from repro.data import Dataset, Instance
from repro.data.csvio import read_csv, write_csv
from repro.deploy import SqliteRunner, deploy_to_job, plan_pushdown
from repro.etl.engine import EtlEngine
from repro.etl.xmlio import job_from_xml, job_to_xml
from repro.mapping import mappings_to_ohm, ohm_to_mappings
from repro.mapping.executor import MappingExecutor
from repro.mapping.jsonio import mappings_from_json, mappings_to_json
from repro.obs import Observability
from repro.ohm.engine import OhmExecutor
from repro.ohm.subtypes import reset_keygen_sequences
from repro.rewrite import optimize
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_fanout_job,
    build_kitchen_sink_job,
    build_star_join_job,
    generate_chain_instance,
    generate_instance,
    generate_kitchen_sink_instance,
    generate_star_instance,
)

#: the box has 2 cores; every worker count the harness passes is this.
WORKERS = 2


# -- digests ---------------------------------------------------------------


def _canon(value) -> str:
    """One cell as text, under the equalities of ``Dataset.same_bag``
    (NULLs equal, 3 == 3.0) except that floats keep 10 significant
    digits: the tiers sum in different orders, and the last bits of a
    float sum are not part of a job's meaning."""
    if value is None:
        return "~"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, (int, float)):
        return format(float(value), ".10g")
    return f"{type(value).__name__}:{value}"


def digest(instance: Instance, detach: Dict[str, Sequence[str]] = None) -> str:
    """Order-insensitive digest of every dataset's bag of rows.

    ``detach`` names, per dataset, columns digested as their own bag of
    values apart from the rows (a surrogate key is unique, but which row
    gets which value depends on the order a runtime enumerates rows)."""
    outer = hashlib.sha256()
    for name in instance.names:
        data = instance.dataset(name)
        loose = tuple((detach or {}).get(name, ()))
        columns = [
            c for c in sorted(data.relation.attribute_names) if c not in loose
        ]
        bags = [
            sorted(
                "\x1f".join(_canon(row.get(c)) for c in columns)
                for row in data.rows
            )
        ]
        bags += [sorted(_canon(row.get(c)) for row in data.rows) for c in loose]
        inner = hashlib.sha256()
        for bag in bags:
            inner.update("\x1e".join(bag).encode())
            inner.update(b"\x1d")
        outer.update(f"{name}:{len(data)}:{inner.hexdigest()};".encode())
    return outer.hexdigest()


def _oracle(job, instance: Instance) -> Instance:
    """The reference: the interpreting tree-walker on the original job."""
    reset_keygen_sequences()
    return EtlEngine(compiled=False).execute(job, instance)


def _rows_of(instance: Instance) -> Dict[str, List[dict]]:
    return {data.name: data.rows for data in instance}


def _generated(job, instance: Instance, detach=None) -> dict:
    """What :meth:`Workload.generate` returns for one job over one
    instance: the rows for the worker, the oracle's digest, the rows as
    work units."""
    return {
        "payload": _rows_of(instance),
        "reference": digest(_oracle(job, instance), detach),
        "units": sum(len(data) for data in instance),
    }


def _fresh(relations: Iterable, rows: Dict[str, List[dict]]) -> Instance:
    """New ``Dataset`` objects over the same generated rows, so nothing
    a previous op cached on a dataset (columnar block, validated copy)
    is there for this one."""
    return Instance(Dataset.adopt(rel, rows[rel.name]) for rel in relations)


def _source_relations(job) -> List:
    return [stage.relation for stage in job.source_stages()]


def _scaled(size: int, scale: float) -> int:
    return max(1, int(size * scale))


def _import_job(text: str, T):
    """The front half the program paths share: job XML to a linted job
    and its optimised OHM graph."""
    with T.span("etl.xmlio.parse"):
        job = job_from_xml(text)
    with T.span("analysis.lint"):
        report = check_plan(job)
    with T.span("compile.job"):
        graph = compile_job(job)
    compiled = len(graph.operators)
    with T.span("rewrite.optimize"):
        rewrites = optimize(graph)
    if T.on:
        T.count("etl.xmlio.bytes", len(text))
        T.count("analysis.diagnostics", len(report.diagnostics))
        T.count("compile.operators_out", compiled)
        T.count("rewrite.rules_fired", rewrites.total)
        T.count("rewrite.operators_removed", compiled - len(graph.operators))
    return job, graph


class Workload:
    name = ""
    unit = ""  # the work unit ``units_per_s`` counts

    def generate(self, seed: int, scale: float, directory: str) -> dict:
        """Parent half. Returns ``payload`` (pickled for the worker),
        ``reference`` (what :meth:`check` must return) and ``units``."""
        raise NotImplementedError

    def load(self, payload, directory: str) -> SimpleNamespace:
        raise NotImplementedError

    def inputs(self, state) -> List[Instance]:
        """Fresh source instances for one op, built outside its timing."""
        return []

    def op(self, state, inputs: List[Instance], T):
        raise NotImplementedError

    def check(self, state, outputs) -> Tuple[object, str]:
        """``(digest, identity)``: the digest must equal the reference;
        the identity must be the same string on every op of a run. By
        default the outputs are one instance and have no identity but
        their digest."""
        return digest(outputs), ""

    def extras(self, state, attempt) -> Dict[str, float]:
        """Extra per-layer metrics measured after the traced ops."""
        return {}


# -- 1. translate-corpus ---------------------------------------------------


def _corpus(seed: int, scale: float):
    """(job, instance) pairs: every job family the repo can build, each
    with data from its own generator so that targets are not empty."""
    rows = max(10, int(300 * scale))

    def sizes(full):
        return sorted({_scaled(n, scale) for n in full})

    yield build_example_job(), generate_instance(rows // 3, seed=seed)
    yield build_kitchen_sink_job(), generate_kitchen_sink_instance(
        rows, rows // 10, seed=seed
    )
    for n in sizes((25, 50, 100)):
        yield build_chain_job(n, seed=seed), generate_chain_instance(rows, seed=seed)
    for k in sizes((4, 8, 12)):
        yield build_star_join_job(k), generate_star_instance(k, rows, seed=seed)
    for b in sizes((16, 64)):
        yield build_fanout_job(b, seed=seed), generate_chain_instance(rows, seed=seed)


class TranslateCorpus(Workload):
    name = "translate-corpus"
    unit = "stages"

    def generate(self, seed, scale, directory):
        payload, reference, units = {}, {}, 0
        for job, instance in _corpus(seed, scale):
            with open(os.path.join(directory, f"{job.name}.xml"), "w") as handle:
                handle.write(job_to_xml(job))
            payload[job.name] = _rows_of(instance)
            reference[job.name] = digest(_oracle(job, instance))
            units += len(job.stages)
        return {"payload": payload, "reference": reference, "units": units}

    def load(self, payload, directory):
        texts = {}
        for name in payload:
            with open(os.path.join(directory, f"{name}.xml")) as handle:
                texts[name] = handle.read()
        return SimpleNamespace(texts=texts, rows=payload)

    def op(self, state, inputs, T):
        outputs = []
        for name, text in state.texts.items():
            job, graph = _import_job(text, T)
            with T.span("mapping.from_ohm"):
                mappings = ohm_to_mappings(graph)
            with T.span("mapping.jsonio.dump"):
                mappings_json = mappings_to_json(mappings)
            with T.span("mapping.jsonio.load"):
                reloaded = mappings_from_json(mappings_json)
            with T.span("mapping.to_ohm"):
                regraph = mappings_to_ohm(reloaded)
            with T.span("deploy.datastage.deploy"):
                regenerated, _plan = deploy_to_job(regraph)
            with T.span("etl.xmlio.render"):
                xml = job_to_xml(regenerated)
            with T.span("deploy.pushdown.plan"):
                hybrid = plan_pushdown(graph)
            if T.on:
                T.count("etl.xmlio.bytes", len(xml))
                T.count("mapping.mappings_out", len(mappings))
                T.count("deploy.datastage.stages_out", len(regenerated.stages))
                T.count(
                    "deploy.pushdown.pushed_operators",
                    len(hybrid.pushed_operator_uids),
                )
            outputs.append(
                SimpleNamespace(
                    name=name, job=job, graph=graph, mappings=mappings,
                    mappings_json=mappings_json, regenerated=regenerated,
                )
            )
        return outputs

    def check(self, state, outputs):
        """What the op translated must be the same on every op. Byte for
        byte it cannot be: internal edge names (``stage~N``), stage names
        and operator uids come from process-wide counters, and one stage
        label from the iteration order of a set. So the mappings JSON is
        compared without its ``~N`` suffixes, the regenerated job and the
        optimised graph by shape here and, in :meth:`_execute`, by what
        they compute."""
        digests, identity = {}, hashlib.sha256()
        for out in outputs:
            shape = (
                re.sub(r"~\d+", "~", out.mappings_json),
                sorted(stage.STAGE_TYPE for stage in out.regenerated.stages),
                sorted(op.KIND for op in out.graph.operators),
            )
            identity.update(repr(shape).encode())
            digests[out.name] = self._execute(state, out)
        return digests, identity.hexdigest()

    def _execute(self, state, out) -> str:
        """Run the regenerated job and the optimised graph. A mapping that
        stands in for an operator with no mapping form (the kitchen
        sink's outer-join lookup) comes back from JSON as a Custom stage
        with no implementation, as the paper's placeholders do; bind the
        extracted mapping's executor to it first."""
        opaque = {m.reference: m.executor for m in out.mappings if m.is_opaque}
        for stage in out.regenerated.stages_of_type("Custom"):
            if stage.implementation is None:
                stage.implementation = (
                    lambda inputs, fn=opaque[stage.reference]: [fn(inputs)]
                )
        relations = _source_relations(out.job)
        rows = state.rows[out.name]
        reset_keygen_sequences()
        via_job = digest(
            EtlEngine().execute(out.regenerated, _fresh(relations, rows))
        )
        reset_keygen_sequences()
        via_graph = digest(OhmExecutor().execute(out.graph, _fresh(relations, rows)))
        if via_job == via_graph:
            return via_job
        return f"regenerated job {via_job} != optimised graph {via_graph}"


# -- 2. paper-files --------------------------------------------------------


class PaperFiles(Workload):
    name = "paper-files"
    unit = "rows"
    customers = 10_000

    def generate(self, seed, scale, directory):
        job = build_example_job()
        instance = generate_instance(_scaled(self.customers, scale), seed=seed)
        with open(os.path.join(directory, "job.xml"), "w") as handle:
            handle.write(job_to_xml(job))
        for data in instance:
            write_csv(data, os.path.join(directory, f"{data.name}.csv"))
        return dict(_generated(job, instance), payload=None)  # read from disk

    def load(self, payload, directory):
        return SimpleNamespace(directory=directory)

    def op(self, state, inputs, T):
        def path(name):
            return os.path.join(state.directory, f"{name}.csv")

        with T.span("etl.xmlio.parse"):
            with open(os.path.join(state.directory, "job.xml")) as handle:
                text = handle.read()
        _job, graph = _import_job(text, T)
        with T.span("deploy.datastage.deploy"):
            deployed, _plan = deploy_to_job(graph)
        with T.span("data.csvio.read"):
            sources = Instance(
                read_csv(path(rel.name), rel)
                for rel in _source_relations(deployed)
            )
        engine = EtlEngine(mode="auto", workers=WORKERS)
        with T.span("etl.engine.run"):
            targets = engine.execute(deployed, sources)
        with T.span("data.csvio.write"):
            for data in targets:
                write_csv(data, path(data.name))
        with T.span("data.csvio.read"):
            written = Instance(
                read_csv(path(data.name), data.relation) for data in targets
            )
        if T.on:
            T.count("deploy.datastage.stages_out", len(deployed.stages))
            T.count(
                "data.csvio.read_rows",
                sum(len(d) for d in sources) + sum(len(d) for d in written),
            )
            T.count("data.csvio.write_rows", sum(len(d) for d in targets))
            T.count(
                "data.csvio.bytes_written",
                sum(os.path.getsize(path(d.name)) for d in targets),
            )
            T.count("etl.engine.link_rows", engine.last_run.total_rows)
        if [len(d) for d in written] != [len(d) for d in targets]:
            raise AssertionError("row counts read back differ from those written")
        return written


# -- 3. paper-hybrid -------------------------------------------------------


class PaperHybrid(Workload):
    name = "paper-hybrid"
    unit = "rows"
    customers = 20_000

    def generate(self, seed, scale, directory):
        job = build_example_job()
        instance = generate_instance(_scaled(self.customers, scale), seed=seed)
        return _generated(job, instance)

    def load(self, payload, directory):
        job = build_example_job()
        return SimpleNamespace(
            job=job, relations=_source_relations(job), rows=payload
        )

    def inputs(self, state):
        return [_fresh(state.relations, state.rows)]

    def op(self, state, inputs, T):
        (instance,) = inputs
        with T.span("cost.catalog"):
            catalog = catalog_for(instance)
        with T.span("compile.job"):
            graph = compile_job(state.job)
        with T.span("deploy.pushdown.plan"):
            plan = plan_pushdown(graph, catalog=catalog)
        if not T.on:
            return plan.execute(instance)
        # traced: the public calls HybridPlan.execute makes, one by one
        T.count("compile.operators_out", len(graph.operators))
        T.count("deploy.pushdown.pushed_operators", len(plan.pushed_operator_uids))
        enriched = Instance(instance)
        if plan.statements:
            with T.span("deploy.sql.load"):
                runner = SqliteRunner(instance)
            T.count("deploy.sql.rows_loaded", sum(len(d) for d in instance))
            try:
                for name, sql in plan.statements.items():
                    with T.span("deploy.sql.query"):
                        frontier = runner.query(sql, plan.frontier_schemas[name])
                    enriched.put(frontier)
                    T.count("deploy.pushdown.frontier_rows", len(frontier))
            finally:
                runner.close()
        engine = EtlEngine()
        with T.span("etl.engine.run"):
            targets = engine.execute(plan.job, enriched)
        T.count("etl.engine.link_rows", engine.last_run.total_rows)
        return targets


# -- 4. sink-runtimes ------------------------------------------------------


class SinkRuntimes(Workload):
    name = "sink-runtimes"
    unit = "rows"
    orders, customers = 20_000, 1_000
    #: the mapping executor enumerates rows in another order than the
    #: two dataflow engines, so surrogate keys land on other rows
    detach = {"Enriched": ("rowKey",)}

    def generate(self, seed, scale, directory):
        job = build_kitchen_sink_job()
        instance = generate_kitchen_sink_instance(
            _scaled(self.orders, scale), _scaled(self.customers, scale), seed=seed
        )
        generated = _generated(job, instance, self.detach)
        generated["reference"] = dict.fromkeys(
            ("etl", "ohm", "mapping"), generated["reference"]
        )
        generated["units"] *= 3
        return generated

    def load(self, payload, directory):
        job = build_kitchen_sink_job()
        graph = compile_job(job)
        return SimpleNamespace(
            job=job, graph=graph, mappings=ohm_to_mappings(graph),
            relations=_source_relations(job), rows=payload,
        )

    def inputs(self, state):
        return [_fresh(state.relations, state.rows) for _runtime in range(3)]

    def op(self, state, inputs, T):
        for_etl, for_ohm, for_mappings = inputs
        reset_keygen_sequences()
        engine = EtlEngine(mode="auto", workers=WORKERS)
        with T.span("etl.engine.run"):
            etl = engine.execute(state.job, for_etl)
        if T.on:
            T.count("etl.engine.link_rows", engine.last_run.total_rows)
        reset_keygen_sequences()
        with T.span("ohm.engine.run"):
            ohm = OhmExecutor(mode="auto", workers=WORKERS).execute(
                state.graph, for_ohm
            )
        reset_keygen_sequences()
        with T.span("mapping.executor.run"):
            mapping = MappingExecutor(mode="auto", workers=WORKERS).execute(
                state.mappings, for_mappings
            )
        return {"etl": etl, "ohm": ohm, "mapping": mapping}

    def check(self, state, outputs):
        return {k: digest(v, self.detach) for k, v in outputs.items()}, ""

    #: the pinned tiers of ROADMAP item 3, as ``EtlEngine`` arguments
    tiers = {
        "oracle": dict(compiled=False),
        "rows": dict(mode="rows"),
        "block": dict(batched=True, fused=False),
        "fused": dict(batched=True, fused=True),
        "parallel": dict(mode="parallel", workers=WORKERS),
        "auto": dict(mode="auto", workers=WORKERS),
    }

    def extras(self, state, attempt):
        """One extra checked ``EtlEngine`` run per pinned tier, then the
        cost of observability and of supervision as shares of a plain
        ``auto`` run (three alternating pairs each, medians)."""
        def run(**kwargs) -> float:
            def checked():
                instance = self.inputs(state)[0]
                reset_keygen_sequences()
                engine = EtlEngine(**kwargs)
                started = perf_counter()
                targets = engine.execute(state.job, instance)
                seconds = perf_counter() - started
                found = digest(targets, self.detach)
                if found != state.reference["etl"]:
                    raise AssertionError(f"EtlEngine({kwargs}) digest {found}")
                return seconds

            return attempt(checked) or 0.0

        def overhead(extra) -> float:
            plain, loaded = [], []
            for _pair in range(3):
                plain.append(run(**self.tiers["auto"]))
                loaded.append(run(**self.tiers["auto"], **extra()))
            base = median(plain)
            return (median(loaded) - base) / base if base else float("nan")

        out = {f"exec.tier.{t}.run_s": run(**kw) for t, kw in self.tiers.items()}
        out["obs.overhead_share"] = overhead(
            lambda: dict(obs=Observability(trace=True, stats=True))
        )
        out["supervision.overhead_share"] = overhead(
            lambda: dict(deadline=3600, memory_budget=10**9)
        )
        return out


# -- 5. paper-mappings -----------------------------------------------------


class PaperMappings(Workload):
    name = "paper-mappings"
    unit = "rows"
    customers = 300
    #: the join is quadratic and a seed moves the account count by 8 %,
    #: so keep a fixed number, one every seed reaches (mean 2.5, -4 sigma)
    accounts_per_customer = 2.2

    def generate(self, seed, scale, directory):
        job = build_example_job()
        customers = _scaled(self.customers, scale)
        drawn = generate_instance(customers, seed=seed)
        instance = Instance(
            Dataset.adopt(
                data.relation,
                data.rows[: int(self.accounts_per_customer * customers)]
                if data.name == "Accounts" else data.rows,
            )
            for data in drawn
        )
        return _generated(job, instance)

    def load(self, payload, directory):
        job = build_example_job()
        return SimpleNamespace(
            mappings=ohm_to_mappings(compile_job(job)),
            relations=_source_relations(job), rows=payload,
        )

    def inputs(self, state):
        return [_fresh(state.relations, state.rows)]

    def op(self, state, inputs, T):
        with T.span("mapping.executor.run"):
            return MappingExecutor().execute(state.mappings, inputs[0])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        TranslateCorpus(), PaperFiles(), PaperHybrid(), SinkRuntimes(),
        PaperMappings(),
    )
}

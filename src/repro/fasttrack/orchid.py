"""The Orchid façade — the FastTrack integration surface (paper §I, §VII).

One object ties the whole pipeline together:

* import ETL jobs (object model or external XML) and mappings (object
  model or JSON) into the common OHM layer,
* convert in both directions (ETL → mappings for analyst review,
  mappings → ETL skeletons for programmers, including placeholder stages
  and business-rule annotation pass-through),
* optimize at the OHM level and redeploy — to the ETL platform, or to a
  hybrid SQL + ETL plan via pushdown analysis,
* round-trip: regenerate mappings from a refined job; "unless the users
  radically modify the ETL jobs, the regenerated mappings will match the
  original mappings but will contain the extra implementation details
  just entered by the programmers."
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.compile import CompilerRegistry, compile_job
from repro.cost import StatisticsCatalog
from repro.deploy.datastage import DATASTAGE, deploy_to_job
from repro.deploy.platform import DeploymentPlan, RuntimePlatform
from repro.deploy.pushdown import HybridPlan, plan_pushdown
from repro.etl.model import Job
from repro.etl.xmlio import job_from_xml, job_to_xml
from repro.mapping.from_ohm import ohm_to_mappings
from repro.mapping.jsonio import mappings_from_json, mappings_to_json
from repro.mapping.model import MappingSet
from repro.mapping.to_ohm import mappings_to_ohm
from repro.obs import NULL_OBS, Observability
from repro.ohm.graph import OhmGraph
from repro.rewrite.optimizer import OptimizationReport, optimize


class Orchid:
    """The system entry point.

    >>> orchid = Orchid()
    >>> # job → mappings → job, all through the OHM hub
    >>> # mappings = orchid.etl_to_mappings(job)
    >>> # job2, plan = orchid.mappings_to_etl(mappings)

    Pass an :class:`~repro.obs.Observability` to profile everything the
    facade touches — compilation phases, rewrite rules, deployment
    placement — into one shared trace and metrics registry.
    """

    def __init__(
        self,
        platform: Optional[RuntimePlatform] = None,
        compilers: Optional[CompilerRegistry] = None,
        obs: Optional[Observability] = None,
        catalog: Optional["StatisticsCatalog"] = None,
    ):
        self.platform = platform or DATASTAGE
        self.compilers = compilers
        self.obs = obs or NULL_OBS
        #: statistics catalog consulted by :meth:`to_hybrid` for
        #: cost-based placement (None keeps maximal pushdown).
        self.catalog = catalog

    # -- imports (external / intermediate → abstract layer) ---------------------------

    def import_etl(self, job: Union[Job, str]) -> OhmGraph:
        """Compile an ETL job — an object-model :class:`Job` or an
        external-format XML string — into an OHM instance."""
        if isinstance(job, str):
            job = job_from_xml(job)
        return compile_job(job, registry=self.compilers, obs=self.obs)

    def import_mappings(self, mappings: Union[MappingSet, str]) -> OhmGraph:
        """Compile mappings — a :class:`MappingSet` or a JSON document —
        into an OHM instance (Figure 9 template instantiation)."""
        if isinstance(mappings, str):
            mappings = mappings_from_json(mappings)
        with self.obs.tracer.span("compile.mappings"), self.obs.metrics.timer(
            "compile.phase.mappings.seconds"
        ):
            return mappings_to_ohm(mappings)

    # -- exports (abstract layer → external) --------------------------------------------

    def to_mappings(self, graph: OhmGraph) -> MappingSet:
        """OHM → composed mappings (section V-B)."""
        with self.obs.tracer.span(
            "extract.mappings", graph=graph.name
        ), self.obs.metrics.timer("extract.mappings.seconds"):
            return ohm_to_mappings(graph)

    def to_etl(self, graph: OhmGraph) -> Tuple[Job, DeploymentPlan]:
        """OHM → an ETL job on the configured platform (section VI-B)."""
        return deploy_to_job(graph, self.platform, obs=self.obs)

    def to_hybrid(self, graph: OhmGraph) -> HybridPlan:
        """OHM → combined SQL + ETL deployment via pushdown analysis:
        cost-based, part by part, when the facade carries a statistics
        catalog covering the pushable sources; the paper's maximal
        pushdown otherwise."""
        return plan_pushdown(
            graph, self.platform, obs=self.obs, catalog=self.catalog
        )

    # -- one-hop conveniences ----------------------------------------------------------

    def etl_to_mappings(self, job: Union[Job, str]) -> MappingSet:
        """The analyst-review direction: job → declarative mappings."""
        return self.to_mappings(self.import_etl(job))

    def mappings_to_etl(
        self, mappings: Union[MappingSet, str]
    ) -> Tuple[Job, DeploymentPlan]:
        """The programmer direction: mappings → ETL job (a *skeleton*
        when the mappings are incomplete — placeholder Join stages carry
        a ``placeholder`` annotation)."""
        return self.to_etl(self.import_mappings(mappings))

    def optimize(self, graph: OhmGraph) -> OptimizationReport:
        """Rewrite the OHM instance in place (cleanup + selection
        push-down et al.); then redeploy wherever needed."""
        return optimize(graph, obs=self.obs)

    def round_trip_etl(self, job: Union[Job, str]) -> Tuple[Job, MappingSet]:
        """job → mappings → job: what FastTrack does when programmers
        regenerate a job after analysts reviewed the mappings."""
        mappings = self.etl_to_mappings(job)
        regenerated, _plan = self.mappings_to_etl(mappings)
        return regenerated, mappings

    def round_trip_mappings(
        self, mappings: Union[MappingSet, str]
    ) -> Tuple[MappingSet, Job]:
        """mappings → job → mappings: regenerated mappings 'will match
        the original mappings but will contain the extra implementation
        details'."""
        job, _plan = self.mappings_to_etl(mappings)
        return self.etl_to_mappings(job), job

    # -- external formats ---------------------------------------------------------------

    @staticmethod
    def export_etl_xml(job: Job) -> str:
        return job_to_xml(job)

    @staticmethod
    def export_mappings_json(mappings: MappingSet) -> str:
        return mappings_to_json(mappings)


__all__ = ["Orchid"]

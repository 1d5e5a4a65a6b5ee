"""The four workloads, by name."""

from perfbench.workloads.daemon_tenants import DaemonTenants
from perfbench.workloads.elastic_session import ElasticSession
from perfbench.workloads.fleet_scale import FleetScale
from perfbench.workloads.paper_search import PaperSearch

WORKLOADS = {
    cls.name: cls for cls in (PaperSearch, FleetScale, ElasticSession, DaemonTenants)
}

__all__ = ["WORKLOADS"]

"""Multi-tenant exploration service over a pluggable shared result store.

``repro serve`` runs the long-lived HTTP front-end
(:class:`ExplorationService`), ``repro client`` talks to it
(:class:`ServeClient`).  See ``docs/serve.md`` for the API, the
tenancy/budget model, and backend selection.
"""

from .client import ServeClient
from .fleet import (
    FleetError,
    StitchedTrace,
    aggregate_fleet,
    collect_journal_files,
    fleet_chrome_trace,
    fleet_span_tree,
    render_fleet_metrics,
    render_fleet_status,
    render_fleet_tree,
    scrape_fleet,
    stitch_journals,
)
from .jobs import Job, JobSpec, merge_budgets
from .runner import execute_job
from .scheduler import FairShareScheduler, TenantPolicy
from .service import ExplorationService, ServiceThread
from .sse import JournalFollower, format_sse

__all__ = [
    "ServeClient",
    "FleetError",
    "StitchedTrace",
    "aggregate_fleet",
    "collect_journal_files",
    "fleet_chrome_trace",
    "fleet_span_tree",
    "render_fleet_metrics",
    "render_fleet_status",
    "render_fleet_tree",
    "scrape_fleet",
    "stitch_journals",
    "Job",
    "JobSpec",
    "merge_budgets",
    "execute_job",
    "FairShareScheduler",
    "TenantPolicy",
    "ExplorationService",
    "ServiceThread",
    "JournalFollower",
    "format_sse",
]

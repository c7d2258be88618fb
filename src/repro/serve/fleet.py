"""Fleet-wide observability: journal stitching and metric aggregation.

PR 5 made one run legible (journal + ``repro trace``); PRs 6 and 9 grew
the system into a multi-replica, failover-capable service whose requests
cross client → replica → engine → http store backend.  This
module is the read side that makes the *fleet* legible:

* **journal stitching** — :func:`stitch_journals` merges N replica
  journals (per-job ``events.jsonl`` files plus the store service's
  ``service-events.jsonl``) onto one timeline.  Each journal is re-timed
  from its own monotonic clock (``mono``) anchored at its first wall
  timestamp, so wall-clock skew between replicas cannot reorder causally
  linked events; cross-journal links (``parent_span_id`` pointing at a
  ``job_start`` span in another journal) then repair any residual skew
  by shifting whole journals forward to respect causality;
* **fleet span trees** — :func:`fleet_span_tree` groups stitched events
  by trace id and chains a job's incarnations (failover re-runs share
  the trace id) through explicit ``failover`` seam nodes, so
  :func:`repro.engine.trace.critical_path` walks *across* the seam;
  journalled store calls (``cache_call``) attach under the job span that
  made them;
* **fleet Chrome export** — :func:`fleet_chrome_trace` renders every
  journal as its own process lane (named after the replica) in one
  Chrome/Perfetto trace;
* **metric aggregation** — :func:`scrape_fleet` /
  :func:`aggregate_fleet` scrape every replica's ``/v1/metrics`` +
  ``/v1/stats`` and merge the snapshots (counters sum, histograms sum
  bucket-wise) into one Prometheus textfile plus a JSON snapshot with a
  per-replica breakdown.

Everything here is stdlib-only and read-only over the journals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..engine.telemetry import merge_metric_snapshots, render_prometheus_snapshot
from ..engine.trace import SpanNode, chrome_trace, read_events
from ..errors import ReproError, ServeClientError
from .client import ServeClient

__all__ = [
    "FleetError",
    "JournalView",
    "StitchedTrace",
    "collect_journal_files",
    "stitch_journals",
    "fleet_span_tree",
    "render_fleet_tree",
    "fleet_chrome_trace",
    "scrape_fleet",
    "aggregate_fleet",
    "render_fleet_metrics",
    "render_fleet_status",
]


class FleetError(ReproError):
    """Fleet tooling could not make sense of its inputs."""


# ----------------------------------------------------------------------
# journal discovery
# ----------------------------------------------------------------------


def collect_journal_files(targets: Iterable[str | Path]) -> list[Path]:
    """Expand targets (serve dirs, run dirs, journal files) to journals.

    A serve directory contributes every per-job journal under
    ``jobs/*/events.jsonl`` plus its ``service-events.jsonl`` (the store
    side of distributed traces); a plain directory with an
    ``events.jsonl`` contributes that; a file contributes itself.
    Directories with no journals (a replica that never ran a job, or
    was killed before its first) contribute nothing rather than failing
    the stitch; a named *file* that is missing is an error.  The result
    is deduplicated and sorted so stitching is deterministic in the
    *set* of inputs, not their order.
    """
    found: set[Path] = set()
    for target in targets:
        target = Path(target)
        if target.is_dir():
            jobs_dir = target / "jobs"
            if jobs_dir.is_dir():
                found.update(jobs_dir.glob("*/events.jsonl"))
            for name in ("service-events.jsonl", "events.jsonl"):
                candidate = target / name
                if candidate.exists():
                    found.add(candidate)
        elif target.exists():
            found.add(target)
        elif target.suffix:  # a named file that is not there
            raise FleetError(f"no journal at {target}")
    if not found:
        raise FleetError("no journals to stitch")
    return sorted(found, key=str)


# ----------------------------------------------------------------------
# stitching (skew alignment + causal repair)
# ----------------------------------------------------------------------


@dataclass
class JournalView:
    """One journal's events on the stitched timeline."""

    path: Path
    events: list[dict[str, Any]]
    replica_id: str | None = None
    #: Total shift applied by skew alignment + causal repair (seconds,
    #: relative to the journal's raw wall timestamps).
    shift_s: float = 0.0

    @property
    def label(self) -> str:
        if self.replica_id:
            return f"{self.replica_id} ({self.path.parent.name})"
        return str(self.path)


@dataclass
class StitchedTrace:
    """N journals merged onto one causally consistent timeline."""

    journals: list[JournalView]
    #: Distinct trace ids seen across all journals, sorted.
    trace_ids: list[str] = field(default_factory=list)

    def events(self) -> list[dict[str, Any]]:
        """Every event, globally ordered by aligned time (stable)."""
        merged: list[tuple[float, str, int, dict[str, Any]]] = []
        for view in self.journals:
            for record in view.events:
                merged.append(
                    (
                        float(record.get("aligned_ts", 0.0)),
                        str(view.path),
                        int(record.get("seq", 0) or 0),
                        record,
                    )
                )
        merged.sort(key=lambda item: item[:3])
        return [item[3] for item in merged]


def _align_journal(path: Path) -> JournalView:
    """Load one journal and re-time it from its monotonic clock.

    The first record carrying both ``ts`` (wall) and ``mono``
    (monotonic) anchors the journal: every later record with ``mono``
    gets ``aligned_ts = anchor_ts + (mono - anchor_mono)``, so the
    journal's internal timeline is immune to wall-clock steps; records
    without ``mono`` (older journals) keep their wall ``ts``.
    """
    events: list[dict[str, Any]] = []
    replica_id: str | None = None
    anchor_ts: float | None = None
    anchor_mono: float | None = None
    for record in read_events(path):
        record = dict(record)
        ts, mono = record.get("ts"), record.get("mono")
        if (
            anchor_ts is None
            and isinstance(ts, (int, float))
            and isinstance(mono, (int, float))
        ):
            anchor_ts, anchor_mono = float(ts), float(mono)
        if (
            anchor_mono is not None
            and anchor_ts is not None
            and isinstance(mono, (int, float))
        ):
            record["aligned_ts"] = anchor_ts + (float(mono) - anchor_mono)
        elif isinstance(ts, (int, float)):
            record["aligned_ts"] = float(ts)
        else:
            record["aligned_ts"] = 0.0
        if replica_id is None and isinstance(record.get("replica_id"), str):
            replica_id = record["replica_id"]
        events.append(record)
    return JournalView(path=path, events=events, replica_id=replica_id)


#: Minimum causal gap enforced between a parent span's start and its
#: cross-journal children (seconds) — keeps the order strict, not just
#: non-negative, so renders never show a child at its parent's instant.
_CAUSAL_EPSILON = 1e-6


def stitch_journals(
    targets: Iterable[str | Path], trace_id: str | None = None
) -> StitchedTrace:
    """Merge journals onto one timeline with skew alignment + repair.

    After per-journal monotonic re-timing, cross-journal causality is
    enforced: any event whose ``parent_span_id`` names a ``job_start``
    span recorded in *another* journal must not precede that span's
    start — a violation shifts the whole child journal forward (its
    internal timeline is trustworthy; its absolute offset is not).
    Repair iterates to a fixpoint, bounded by the journal count.  The
    result is deterministic in the set of journals: inputs are sorted,
    and every shift is a pure function of journal contents.

    ``trace_id`` filters the stitched view to one distributed trace
    (journals with no matching events drop out entirely).
    """
    views = [_align_journal(path) for path in collect_journal_files(targets)]
    if trace_id is not None:
        filtered: list[JournalView] = []
        for view in views:
            kept = [
                record
                for record in view.events
                if record.get("trace_id") == trace_id
                or "trace_id" not in record
            ]
            if any(record.get("trace_id") == trace_id for record in kept):
                view.events = kept
                filtered.append(view)
        views = filtered
        if not views:
            raise FleetError(f"no journal mentions trace {trace_id!r}")

    # Where does each span start?  (journal index, aligned start time)
    for _ in range(len(views) + 1):
        span_starts: dict[str, tuple[int, float]] = {}
        for index, view in enumerate(views):
            for record in view.events:
                span = record.get("span")
                if record.get("event") == "job_start" and isinstance(span, str):
                    span_starts.setdefault(
                        span, (index, float(record["aligned_ts"]))
                    )
        shifted = False
        for index, view in enumerate(views):
            delta = 0.0
            for record in view.events:
                parent = record.get("parent_span_id")
                if not isinstance(parent, str) or parent not in span_starts:
                    continue
                owner, parent_start = span_starts[parent]
                if owner == index:
                    continue
                gap = (parent_start + _CAUSAL_EPSILON) - float(
                    record["aligned_ts"]
                )
                delta = max(delta, gap)
            if delta > 0.0:
                for record in view.events:
                    record["aligned_ts"] = float(record["aligned_ts"]) + delta
                view.shift_s += delta
                shifted = True
        if not shifted:
            break

    trace_ids = sorted(
        {
            record["trace_id"]
            for view in views
            for record in view.events
            if isinstance(record.get("trace_id"), str)
        }
    )
    return StitchedTrace(journals=views, trace_ids=trace_ids)


# ----------------------------------------------------------------------
# fleet span tree + critical path
# ----------------------------------------------------------------------


@dataclass
class _Incarnation:
    job_id: str
    span_id: str | None
    replica_id: str
    start: float
    seconds: float
    state: str
    journal: Path


def _trace_incarnations(stitched: StitchedTrace, trace_id: str) -> list[_Incarnation]:
    incarnations: list[_Incarnation] = []
    for view in stitched.journals:
        start_record = None
        end_record = None
        for record in view.events:
            if record.get("trace_id") != trace_id:
                continue
            if record.get("event") == "job_start" and start_record is None:
                start_record = record
            elif record.get("event") == "job_end":
                end_record = record
        if start_record is None:
            continue
        seconds = 0.0
        state = "unknown"
        if end_record is not None:
            try:
                seconds = float(end_record.get("seconds", 0.0) or 0.0)
            except (TypeError, ValueError):
                seconds = 0.0
            state = str(end_record.get("state", "unknown"))
        else:
            # Killed mid-flight: the journal simply stops.  Extent of
            # what was recorded is the honest lower bound.
            tail = max(float(r["aligned_ts"]) for r in view.events)
            seconds = max(tail - float(start_record["aligned_ts"]), 0.0)
            state = "lost"
        incarnations.append(
            _Incarnation(
                job_id=str(start_record.get("job", "?")),
                span_id=(
                    start_record.get("span")
                    if isinstance(start_record.get("span"), str)
                    else None
                ),
                replica_id=str(
                    start_record.get("replica_id") or view.replica_id or "?"
                ),
                start=float(start_record["aligned_ts"]),
                seconds=seconds,
                state=state,
                journal=view.path,
            )
        )
    incarnations.sort(key=lambda inc: (inc.start, inc.job_id))
    return incarnations


def fleet_span_tree(
    stitched: StitchedTrace, trace_id: str | None = None
) -> list[SpanNode]:
    """One root span per distributed trace, failover seams made explicit.

    A trace's incarnations (the same logical job run on successive
    replicas — failover re-runs share the trace id) chain through
    ``failover`` seam nodes whose weight is the whole downstream chain,
    so the max-seconds walk of :func:`~repro.engine.trace.critical_path`
    crosses every seam instead of stopping at the killed replica.  Journalled store
    calls (``cache_call`` with a ``parent_span_id`` naming a job span)
    attach under the incarnation that made them.
    """
    wanted = [trace_id] if trace_id is not None else stitched.trace_ids
    roots: list[SpanNode] = []
    for tid in wanted:
        incarnations = _trace_incarnations(stitched, tid)
        if not incarnations:
            continue
        # Store calls grouped by the job span that made them.
        calls_by_span: dict[str, list[dict[str, Any]]] = {}
        for view in stitched.journals:
            for record in view.events:
                if (
                    record.get("event") == "cache_call"
                    and record.get("trace_id") == tid
                    and isinstance(record.get("parent_span_id"), str)
                ):
                    calls_by_span.setdefault(
                        record["parent_span_id"], []
                    ).append(record)

        chain_weights = [0.0] * (len(incarnations) + 1)
        for position in range(len(incarnations) - 1, -1, -1):
            chain_weights[position] = (
                incarnations[position].seconds + chain_weights[position + 1]
            )

        root = SpanNode(
            span=f"trace:{tid}",
            name=f"trace {tid[:8]}",
            kind="trace",
            parent=None,
            seconds=chain_weights[0],
            start_ts=incarnations[0].start,
        )
        previous: SpanNode = root
        for position, inc in enumerate(incarnations):
            node = SpanNode(
                span=f"{tid}/{inc.span_id or inc.job_id}",
                name=f"{inc.job_id}@{inc.replica_id}",
                kind="job" if inc.state != "lost" else "job-lost",
                parent=previous.span,
                seconds=inc.seconds,
                start_ts=inc.start,
            )
            for call in calls_by_span.get(inc.span_id or "", []):
                node.children.append(
                    SpanNode(
                        span=f"{tid}/call/{call.get('seq')}",
                        name=(
                            f"{call.get('method', '?')} "
                            f"cache:{call.get('key') or '*'}"
                        ),
                        kind="cache_call",
                        parent=node.span,
                        seconds=0.0,
                        start_ts=float(call["aligned_ts"]),
                    )
                )
            if position == 0:
                previous.children.append(node)
            else:
                seam = SpanNode(
                    span=f"{tid}/failover/{position}",
                    name=(
                        f"failover "
                        f"{incarnations[position - 1].replica_id}"
                        f" -> {inc.replica_id}"
                    ),
                    kind="failover",
                    parent=previous.span,
                    # The seam carries the whole downstream chain so the
                    # critical-path walk descends through it.
                    seconds=chain_weights[position],
                    start_ts=inc.start,
                )
                seam.children.append(node)
                previous.children.append(seam)
            previous = node
        roots.append(root)
    return roots


def render_fleet_tree(roots: list[SpanNode]) -> str:
    """Indented text render of the whole fleet span forest."""
    if not roots:
        return "no spans in these journals"
    lines: list[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        lines.append(
            f"{'  ' * depth}{node.name} [{node.kind}] {node.seconds:.2f}s"
        )
        for child in sorted(
            node.children, key=lambda n: (n.start_ts or 0.0, n.span)
        ):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def fleet_chrome_trace(stitched: StitchedTrace) -> dict[str, Any]:
    """One Chrome/Perfetto trace with a process lane per journal.

    Each journal renders at its aligned timestamps under its own pid,
    with a ``process_name`` metadata record naming the replica — load
    the export in https://ui.perfetto.dev and the fleet reads as one
    timeline.
    """
    combined: list[dict[str, Any]] = []
    unknown: dict[str, int] = {}
    for index, view in enumerate(stitched.journals, start=1):
        combined.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": index,
                "args": {"name": view.label},
            }
        )
        retimed = [
            dict(record, ts=record.get("aligned_ts", record.get("ts")))
            for record in view.events
        ]
        sub = chrome_trace(retimed, pid=index)
        combined.extend(sub["traceEvents"])
        for kind, count in (
            sub.get("metadata", {}).get("unknown_events", {}).items()
        ):
            unknown[kind] = unknown.get(kind, 0) + count
    out: dict[str, Any] = {"traceEvents": combined, "displayTimeUnit": "ms"}
    if unknown:
        out["metadata"] = {"unknown_events": unknown}
    return out


# ----------------------------------------------------------------------
# fleet metrics aggregation
# ----------------------------------------------------------------------


def scrape_fleet(
    urls: Iterable[str], timeout: float = 10.0
) -> dict[str, Any]:
    """Scrape every replica's health, stats and metrics (JSON form).

    Unreachable replicas land in ``errors`` instead of failing the whole
    scrape — a fleet status that dies when one replica is down would be
    useless exactly when it matters.
    """
    replicas: list[dict[str, Any]] = []
    errors: dict[str, str] = {}
    for url in urls:
        try:
            client = ServeClient(url, timeout=timeout, propagate_trace=False)
            replicas.append(
                {
                    "url": url,
                    "health": client.health(),
                    "stats": client.stats(),
                    "metrics": client.metrics_json(),
                }
            )
        except (ServeClientError, OSError) as exc:
            errors[url] = str(exc)
    return {"replicas": replicas, "errors": errors}


def aggregate_fleet(scrape: dict[str, Any]) -> dict[str, Any]:
    """Merge a fleet scrape into one snapshot with per-replica breakdown.

    ``merged`` is the series-wise sum of every replica's metrics
    (counters/gauges add, histograms add bucket-wise) — exactly
    :func:`~repro.engine.telemetry.merge_metric_snapshots` over the
    scrapes, which the tests assert.
    """
    replicas = scrape.get("replicas", [])
    merged = merge_metric_snapshots([r["metrics"] for r in replicas])
    return {
        "fleet_size": len(replicas),
        "errors": dict(scrape.get("errors", {})),
        "replicas": [
            {
                "url": r["url"],
                "replica_id": r["health"].get("replica_id"),
                "status": r["health"].get("status"),
                "uptime_s": r["health"].get("uptime_s"),
                "jobs": r["health"].get("jobs"),
                "stats": r["stats"],
                "metrics": r["metrics"],
            }
            for r in replicas
        ],
        "merged": merged,
    }


def render_fleet_metrics(aggregate: dict[str, Any]) -> str:
    """The merged snapshot as a Prometheus textfile."""
    return render_prometheus_snapshot(aggregate["merged"])


def render_fleet_status(aggregate: dict[str, Any]) -> str:
    """Human one-liner per replica plus fleet totals."""
    lines = [
        f"fleet: {aggregate['fleet_size']} replica(s) up, "
        f"{len(aggregate['errors'])} unreachable"
    ]
    for replica in aggregate["replicas"]:
        stats = replica.get("stats", {})
        states = stats.get("jobs_by_state", {})
        lines.append(
            f"  {replica.get('replica_id') or '?'} {replica['url']} "
            f"status={replica.get('status')} jobs={replica.get('jobs')} "
            f"completed={states.get('completed', 0)} "
            f"failed={states.get('failed', 0)} "
            f"uptime={replica.get('uptime_s', 0):.0f}s"
        )
    for url, error in sorted(aggregate.get("errors", {}).items()):
        lines.append(f"  DOWN {url}: {error}")
    return "\n".join(lines)

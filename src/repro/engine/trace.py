"""Post-hoc trace analysis: read a run journal, answer "where did the time go".

The write side lives in :mod:`repro.engine.telemetry` (the
:class:`~repro.engine.telemetry.RunJournal`); this module is the read
side, backing the ``repro trace`` CLI:

* :func:`read_events` — stream a journal (current file plus rotated
  predecessors, torn lines skipped) as dicts;
* :func:`summarize` / :class:`TraceSummary` — per-phase wall-time
  totals, evaluation/cache counters, per-workload search breakdowns,
  resume-attempt accounting and sequence-number integrity;
* :func:`slowest_tasks` — the top-N slowest evaluations/tasks by
  worker-measured latency;
* :func:`critical_path` — the chain of nested spans that dominated the
  run's wall clock, over one journal's span tree or a stitched fleet's;
* :func:`chrome_trace` — export to Chrome/Perfetto trace-event JSON
  (load in ``chrome://tracing`` or https://ui.perfetto.dev).

Everything here is read-only and tolerant: a journal truncated by a
crash, or mid-write at copy time, still analyzes — bad lines are
counted, not fatal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..errors import ReproError
from .events import EngineMetrics
from .telemetry import JOURNAL_FILE, journal_files


class TraceError(ReproError):
    """A journal could not be located or yielded no events."""


#: The event vocabulary the structural readers understand.  Journals
#: written by newer layers (the serve fleet's ``replica_failover``,
#: circuit-breaker transitions, ...) may carry kinds outside this set;
#: readers skip those with a *counted* warning instead of misparsing.
KNOWN_EVENTS = frozenset(
    {
        "evaluation",
        "cache_hit",
        "cache_miss",
        "batch",
        "retry",
        "task_timeout",
        "pool_restart",
        "checkpoint",
        "fallback",
        "phase_start",
        "phase_end",
        "span_start",
        "span_end",
        "task_span",
        "search_run",
        "strategy_timing",
        "pareto_front",
        "quarantine",
        "storage_degraded",
        "lock_takeover",
        # serve-layer vocabulary (PR 6+): understood as instants/spans.
        "job_start",
        "job_end",
        "cache_call",
        "replica_failover",
        "circuit_open",
        "circuit_close",
        "circuit_half_open",
    }
)


def resolve_journal(target: str | Path) -> Path:
    """Map a run directory or journal path to the journal file itself."""
    target = Path(target)
    if target.is_dir():
        candidate = target / JOURNAL_FILE
        if not candidate.exists() and not journal_files(candidate):
            raise TraceError(
                f"{target} has no {JOURNAL_FILE}; was the run started with "
                "--run-dir or --journal? (see docs/observability.md)"
            )
        return candidate
    if not target.exists() and not journal_files(target):
        raise TraceError(f"no journal at {target}")
    return target


def read_events(target: str | Path) -> Iterator[dict]:
    """Stream every parsable event of a journal, oldest first.

    ``target`` may be a run directory, the current journal file, or any
    rotated segment's base name.  Unparsable lines (torn by a crash) are
    skipped silently — :func:`summarize` counts them via sequence gaps.
    """
    journal = resolve_journal(target)
    for file_path in journal_files(journal):
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict) and "event" in record:
                        yield record
        except OSError:
            continue


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------


@dataclass
class SearchTrace:
    """Aggregate of one workload's ``search_run`` events."""

    workload: str
    runs: int = 0
    evaluations: int = 0
    moves: int = 0
    best_score: float = 0.0
    strategies: set[str] = field(default_factory=set)


@dataclass
class TraceSummary:
    """Everything ``repro trace summary`` prints, structured.

    Counters and phase times come from ``metrics``, the journal's records
    replayed through the engine's own fold, so they are the numbers the
    run's ``--stats`` and ``--metrics-out`` reported; the fields here are
    what only a journal knows.  Attribute reads the summary does not
    define (``evaluations``, ``phase_seconds``, ...) fall through to it.
    """

    events: int = 0
    first_ts: float | None = None
    last_ts: float | None = None
    attempts: int = 0  # distinct trace ids == run attempts (resumes + 1)
    seq_first: int | None = None
    seq_last: int | None = None
    monotonic: bool = True
    metrics: EngineMetrics = field(default_factory=EngineMetrics)
    searches: dict[str, SearchTrace] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    unknown_events: dict[str, int] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        if name == "metrics":  # not yet set: avoid recursing
            raise AttributeError(name)
        return getattr(self.metrics, name)

    @property
    def wall_seconds(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return max(self.last_ts - self.first_ts, 0.0)

    @property
    def task_spans(self) -> int:
        return self.metrics.registry.get("repro_task_seconds").count

    @property
    def task_seconds(self) -> float:
        return self.metrics.registry.get("repro_task_seconds").sum

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "seq_first": self.seq_first,
            "seq_last": self.seq_last,
            "monotonic": self.monotonic,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "batches": self.batches,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "checkpoints": self.checkpoints,
            "fallbacks": self.fallbacks,
            "task_spans": self.task_spans,
            "task_seconds": self.task_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "searches": {
                name: {
                    "runs": s.runs,
                    "evaluations": s.evaluations,
                    "moves": s.moves,
                    "best_score": s.best_score,
                    "strategies": sorted(s.strategies),
                }
                for name, s in self.searches.items()
            },
            "event_counts": dict(self.counts),
            "unknown_events": dict(self.unknown_events),
        }

    def render(self) -> str:
        lines = [
            f"events: {self.events} over {self.wall_seconds:.2f}s wall "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''}, "
            f"seq {self.seq_first}..{self.seq_last}, "
            f"{'monotonic' if self.monotonic else 'NON-MONOTONIC'})",
            f"evaluations: {self.evaluations} simulated, "
            f"{self.cache_hits} cache hits "
            f"({self.hit_rate * 100:.1f}% hit rate), {self.batches} batches",
        ]
        if self.task_spans:
            lines.append(
                f"worker tasks: {self.task_spans} spans, "
                f"{self.task_seconds:.2f}s in-worker time"
            )
        if self.retries or self.timeouts or self.pool_restarts or self.fallbacks:
            lines.append(
                f"resilience: {self.retries} retries, {self.timeouts} timeouts, "
                f"{self.pool_restarts} pool restarts, "
                f"{self.fallbacks} serial fallbacks"
            )
        if self.checkpoints:
            lines.append(f"checkpoints: {self.checkpoints}")
        for name, seconds in sorted(
            self.phase_seconds.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"phase {name}: {seconds:.2f}s")
        if self.searches:
            lines.append("searches:")
            for name in sorted(self.searches):
                s = self.searches[name]
                strategies = ",".join(sorted(s.strategies)) or "?"
                lines.append(
                    f"  {name}: {s.runs} runs ({strategies}), "
                    f"{s.evaluations} evaluations, best {s.best_score:.2f}"
                )
        if self.unknown_events:
            skipped = sum(self.unknown_events.values())
            kinds = ", ".join(sorted(self.unknown_events))
            lines.append(
                f"warning: skipped {skipped} event(s) of "
                f"{len(self.unknown_events)} unknown kind(s): {kinds}"
            )
        return "\n".join(lines)


def _as_int(value: Any, default: int = 0) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _as_float(value: Any, default: float = 0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def summarize(events: Iterable[dict]) -> TraceSummary:
    """Fold an event stream into a :class:`TraceSummary` (single pass).

    Each record is replayed through :meth:`EngineMetrics.on_event`, the
    fold the live run used; this pass adds only sequence integrity,
    attempts, event-kind tallies and the per-workload search table.
    Event kinds outside :data:`KNOWN_EVENTS` (journals written by newer
    or foreign layers) still count toward totals and timing but are
    tallied in ``unknown_events`` and surfaced as a warning, never
    misparsed as the PR 5 vocabulary.
    """
    summary = TraceSummary()
    traces_seen: set[str] = set()
    previous_seq: int | None = None
    for record in events:
        summary.events += 1
        name = record.get("event", "?")
        summary.counts[name] = summary.counts.get(name, 0) + 1
        if name not in KNOWN_EVENTS:
            summary.unknown_events[name] = summary.unknown_events.get(name, 0) + 1
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            if summary.first_ts is None:
                summary.first_ts = float(ts)
            summary.last_ts = float(ts)
        seq = record.get("seq")
        if isinstance(seq, int):
            if summary.seq_first is None:
                summary.seq_first = seq
            summary.seq_last = seq
            if previous_seq is not None and seq <= previous_seq:
                summary.monotonic = False
            previous_seq = seq
        trace = record.get("trace")
        if isinstance(trace, str):
            traces_seen.add(trace)

        try:
            summary.metrics.on_event(name, record)
        except (TypeError, ValueError):
            pass  # a malformed payload: its counters are skipped, not fatal
        if name == "search_run":
            workload = record.get("workload", "?")
            entry = summary.searches.setdefault(workload, SearchTrace(workload))
            entry.runs += 1
            entry.evaluations += _as_int(record.get("evaluations", 0))
            entry.moves += _as_int(record.get("moves", 0))
            entry.best_score = max(
                entry.best_score, _as_float(record.get("best_score", 0.0))
            )
            strategy = record.get("strategy")
            if isinstance(strategy, str):
                entry.strategies.add(strategy)
    summary.attempts = len(traces_seen) if traces_seen else (1 if summary.events else 0)
    return summary


# ----------------------------------------------------------------------
# slowest tasks
# ----------------------------------------------------------------------


def slowest_tasks(events: Iterable[dict], top: int = 10) -> list[dict]:
    """The ``top`` slowest task/worker spans, slowest first.

    Sort key is worker-measured seconds; ties break on sequence number
    so the order is reproducible for one journal.
    """
    tasks = [
        record
        for record in events
        if record.get("event") == "task_span" and record.get("seconds") is not None
    ]
    tasks.sort(key=lambda r: (-float(r["seconds"]), r.get("seq", 0)))
    return tasks[: max(top, 0)]


def render_slowest(tasks: list[dict]) -> str:
    if not tasks:
        return "no task spans in this journal (serial run, or tracing was off)"
    lines = [f"{'seconds':>9}  {'wait':>7}  {'pid':>7}  task"]
    for record in tasks:
        wait = record.get("queue_wait_s")
        label = record.get("name", "task")
        key = record.get("key")
        if key:
            label = f"{label} {key}"
        items = record.get("items")
        if items and items != 1:
            label += f" ({items} items)"
        lines.append(
            f"{float(record['seconds']):9.4f}  "
            f"{f'{float(wait):7.4f}' if wait is not None else '      -'}  "
            f"{record.get('worker_pid', '-'):>7}  {label}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# span tree and critical path
# ----------------------------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span (phase, batch, search or worker task)."""

    span: str
    name: str
    kind: str
    parent: str | None
    seconds: float = 0.0
    start_ts: float | None = None
    children: list["SpanNode"] = field(default_factory=list)


def build_span_tree(events: Iterable[dict]) -> list[SpanNode]:
    """Reconstruct the span forest of a journal (roots returned).

    Spans arrive as ``phase_start``/``phase_end``, ``span_start``/
    ``span_end`` and point-like ``task_span`` events; an end without a
    start (rotated-away head) synthesizes its node.  Parent links that
    point at spans from another attempt (a resume) fall back to roots.
    """
    nodes: dict[str, SpanNode] = {}
    order: list[str] = []

    def ensure(record: dict) -> SpanNode | None:
        span = record.get("span")
        if not isinstance(span, str):
            return None
        # A resumed run reuses span ids under a new trace id; qualify.
        trace = record.get("trace")
        key = f"{trace}/{span}" if isinstance(trace, str) else span
        node = nodes.get(key)
        if node is None:
            parent = record.get("parent")
            parent_key = (
                f"{trace}/{parent}"
                if isinstance(trace, str) and isinstance(parent, str)
                else parent
            )
            node = SpanNode(
                span=key,
                name=record.get("name", "?"),
                kind=record.get("kind", "span"),
                parent=parent_key if isinstance(parent_key, str) else None,
                start_ts=record.get("ts"),
            )
            nodes[key] = node
            order.append(key)
        return node

    for record in events:
        event = record.get("event")
        if event in ("phase_start", "span_start"):
            ensure(record)
        elif event in ("phase_end", "span_end"):
            node = ensure(record)
            if node is not None:
                node.seconds += _as_float(record.get("seconds", 0.0))
        elif event == "task_span":
            node = ensure(record)
            if node is not None:
                node.kind = "task"
                node.seconds += _as_float(record.get("seconds", 0.0))

    roots: list[SpanNode] = []
    for key in order:
        node = nodes[key]
        parent = nodes.get(node.parent) if node.parent is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def critical_path(roots: list[SpanNode]) -> list[SpanNode]:
    """The root-to-leaf chain of spans with the largest wall time.

    Walks a span forest — :func:`build_span_tree` of one journal, or the
    stitched fleet tree of :func:`repro.serve.fleet.fleet_span_tree` —
    following at each level the child with the most recorded seconds:
    the answer to "which nesting of phases dominated this run".
    """
    path: list[SpanNode] = []
    node = max(roots, key=lambda n: n.seconds, default=None)
    while node is not None:
        path.append(node)
        node = max(node.children, key=lambda n: n.seconds, default=None)
    return path


def render_critical_path(path: list[SpanNode], title: str = "critical path") -> str:
    if not path:
        return "no spans in this journal"
    total = path[0].seconds
    lines = [f"{title} ({total:.2f}s at the root):"]
    for depth, node in enumerate(path):
        share = node.seconds / total * 100 if total > 0 else 0.0
        lines.append(
            f"{'  ' * depth}{node.name} [{node.kind}] "
            f"{node.seconds:.2f}s ({share:.0f}%)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


#: Event kinds rendered as Chrome instant ('i') markers.
_INSTANT_EVENTS = frozenset(
    {
        "retry",
        "task_timeout",
        "pool_restart",
        "checkpoint",
        "fallback",
        "quarantine",
        "storage_degraded",
        "lock_takeover",
        "search_run",
        "job_start",
        "cache_call",
        "replica_failover",
        "circuit_open",
        "circuit_close",
        "circuit_half_open",
    }
)


def chrome_trace(events: Iterable[dict], pid: int = 1) -> dict[str, Any]:
    """Chrome trace-event JSON for a journal (complete 'X' events).

    Wall-clock timestamps anchor each span's end; the worker-measured
    duration places its start.  Worker task spans carry their worker
    pid as ``tid`` so per-worker lanes render separately.  ``pid``
    distinguishes journals when a fleet export merges several replicas
    into one trace.  Event kinds outside the known vocabulary are
    skipped and tallied in ``metadata.unknown_events``.
    """
    trace_events: list[dict[str, Any]] = []
    unknown: dict[str, int] = {}
    for record in events:
        event = record.get("event")
        ts = record.get("ts")
        if not isinstance(ts, (int, float)):
            continue
        micros = float(ts) * 1e6
        if event in ("phase_end", "span_end", "job_end"):
            seconds = _as_float(record.get("seconds", 0.0))
            trace_events.append(
                {
                    "name": record.get("name") or record.get("job") or "?",
                    "cat": record.get("kind", "span") if event != "job_end" else "job",
                    "ph": "X",
                    "ts": micros - seconds * 1e6,
                    "dur": seconds * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "span": record.get("span"),
                        "seq": record.get("seq"),
                        "trace_id": record.get("trace_id"),
                        "replica_id": record.get("replica_id"),
                    },
                }
            )
        elif event == "task_span":
            seconds = _as_float(record.get("seconds", 0.0))
            start = record.get("start_ts")
            start_us = (
                float(start) * 1e6
                if isinstance(start, (int, float))
                else micros - seconds * 1e6
            )
            trace_events.append(
                {
                    "name": record.get("name", "task"),
                    "cat": "task",
                    "ph": "X",
                    "ts": start_us,
                    "dur": seconds * 1e6,
                    "pid": pid,
                    "tid": record.get("worker_pid", 0),
                    "args": {
                        "key": record.get("key"),
                        "queue_wait_s": record.get("queue_wait_s"),
                        "seq": record.get("seq"),
                    },
                }
            )
        elif event in _INSTANT_EVENTS:
            trace_events.append(
                {
                    "name": event,
                    "cat": "event",
                    "ph": "i",
                    "s": "g",
                    "ts": micros,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        k: v
                        for k, v in record.items()
                        if k not in ("event", "ts")
                    },
                }
            )
        elif event not in KNOWN_EVENTS:
            key = event if isinstance(event, str) else "?"
            unknown[key] = unknown.get(key, 0) + 1
    out: dict[str, Any] = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if unknown:
        out["metadata"] = {"unknown_events": unknown}
    return out

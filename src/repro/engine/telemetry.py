"""Durable telemetry: the run journal, metrics registry and heartbeat.

Everything the engine announces on its :class:`~repro.engine.events.EventBus`
evaporates at process exit; this module makes the announcement durable
and measurable, so a three-hour pipeline run can be debugged *after* it
finished (or crashed):

* :class:`RunJournal` — an append-only JSONL journal of every bus event,
  one line per event with a monotonic sequence number and wall-clock
  timestamp, except that count-only ``cache_hit``/``cache_miss``/
  ``evaluation`` counters are summed and written in bursts.  Lines are
  flushed as written (a SIGKILL loses at most the pending burst and the
  line in flight), rotation is size-capped (``events.jsonl`` →
  ``events.jsonl.1`` …), and reopening a journal — a resumed run —
  recovers the last sequence number so numbering stays monotonic across
  attempts.  Storage failures degrade (warn once, keep computing),
  mirroring the manifest/cache tiers.
* :class:`MetricsRegistry` / :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — a minimal metrics surface with log-scale
  histogram buckets, exportable as JSON or Prometheus textfile format
  (the ``--metrics-out`` flag).  The engine's one fold from bus events
  to these series is :class:`~repro.engine.events.EngineMetrics`.
* :class:`ProgressLine` — a lightweight single-line TTY heartbeat
  (``\\r``-rewritten, rate-limited) over an engine's metrics, so
  interactive runs show progress without scrolling; inert on non-TTY
  streams.

Analysis of a written journal lives in :mod:`repro.engine.trace` (the
``repro trace`` CLI).  Telemetry is strictly passive: attaching or
detaching any of these subscribers never changes computed results.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import math
import os
import re
import secrets
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, TextIO

from .io_atomic import is_storage_error, write_text_atomic

if TYPE_CHECKING:  # events imports this module at runtime
    from .events import EngineMetrics, EventBus

#: Journal file name inside a run directory.
JOURNAL_FILE = "events.jsonl"

#: Default journal rotation threshold (per file, not total).
DEFAULT_ROTATE_BYTES = 32 * 1024 * 1024

_ROTATED_RE = re.compile(r"\.(\d+)$")

#: Counter events the journal sums instead of writing one line each,
#: when their payload is exactly ``{"count": <int>}``.
COALESCED_EVENTS = frozenset({"cache_hit", "cache_miss", "evaluation"})

#: Coalesced events after which the pending sums are written anyway, so
#: a live follower of the journal still sees progress.
DRAIN_EVERY = 256


def _jsonable(value: Any) -> Any:
    """Best-effort JSON fallback: telemetry must never raise on payloads."""
    return repr(value)


#: The journal's one line encoder: the bytes of ``json.dumps(record,
#: separators=(",", ":"), default=_jsonable)`` without building a new
#: encoder per line.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_jsonable)


# ----------------------------------------------------------------------
# distributed trace context (W3C-traceparent-style)
# ----------------------------------------------------------------------

#: HTTP header carrying the trace context across the serve layer.
TRACEPARENT_HEADER = "traceparent"

#: Version prefix of the ``traceparent`` value we mint.
_TRACE_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def mint_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return secrets.token_hex(16)


def mint_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class TraceContext:
    """One hop of a distributed trace: ``(trace_id, span_id)``.

    ``trace_id`` names the whole request tree (one client submit, every
    replica incarnation and store call it causes); ``span_id`` is the
    *sender's* current span, which the receiver records as its
    ``parent_span_id``.  The wire format is the W3C ``traceparent``
    shape, ``00-<trace_id>-<span_id>-01``.
    """

    trace_id: str
    span_id: str

    @classmethod
    def mint(cls) -> "TraceContext":
        return cls(trace_id=mint_trace_id(), span_id=mint_span_id())

    def child(self) -> "TraceContext":
        """Same trace, a freshly minted span id (the next hop's parent)."""
        return TraceContext(trace_id=self.trace_id, span_id=mint_span_id())

    def header(self) -> str:
        return f"{_TRACE_VERSION}-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(value: str | None) -> TraceContext | None:
    """Decode a ``traceparent`` header (None for absent/malformed).

    Malformed values are dropped rather than rejected: trace context is
    telemetry, and a bad header must never fail a job submission.
    """
    if not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    return TraceContext(trace_id=match.group(2), span_id=match.group(3))


_active_trace: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_active_trace", default=None
)


def current_trace() -> TraceContext | None:
    """The trace context active on this thread/task, if any."""
    return _active_trace.get()


@contextlib.contextmanager
def activate_trace(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``context`` the ambient trace for the enclosed block.

    The serve layer wraps job execution in this so outbound calls made
    on the job's thread — the ``http:`` cache backend above all — can
    stamp the job's trace context onto their requests without plumbing
    it through every engine signature.
    """
    token = _active_trace.set(context)
    try:
        yield context
    finally:
        _active_trace.reset(token)


# ----------------------------------------------------------------------
# the durable event journal
# ----------------------------------------------------------------------


def journal_files(path: str | Path) -> list[Path]:
    """Every file of one journal, oldest first (rotations then current).

    ``path`` is the current journal file (``events.jsonl``); rotated
    predecessors are ``events.jsonl.1``, ``events.jsonl.2``, … in
    rotation order.
    """
    path = Path(path)
    rotated = []
    if path.parent.exists():
        for candidate in path.parent.iterdir():
            if not candidate.name.startswith(path.name + "."):
                continue
            match = _ROTATED_RE.search(candidate.name)
            if match is not None:
                rotated.append((int(match.group(1)), candidate))
    files = [p for _, p in sorted(rotated)]
    if path.exists():
        files.append(path)
    return files


class RunJournal:
    """Append-only JSONL journal of one run's event stream.

    Parameters
    ----------
    path:
        The journal file (conventionally ``<run-dir>/events.jsonl``).
        If it (or a rotated predecessor) already exists, sequence
        numbering continues from the last recorded event — a killed and
        resumed run yields one coherent journal.
    rotate_bytes:
        Size cap per journal file; exceeding it rotates the current file
        to ``<name>.<n>`` and starts a fresh one (sequence numbers keep
        counting — rotation is invisible to readers).
    context:
        Fields stamped onto *every* record (after the payload, which
        wins on key collisions).  The serve layer passes
        ``{trace_id, parent_span_id, replica_id}`` here so a journal's
        lines are attributable in a stitched fleet trace.

    Use :meth:`attach` to subscribe it to a bus (this also flips the
    bus's ``tracing`` flag on, telling the pool to ship per-task span
    telemetry home from workers), and :meth:`close` to flush and fsync.

    Counters coalesce: an event in :data:`COALESCED_EVENTS` whose payload
    is exactly ``{"count": <int>}`` is added to a pending per-kind sum.
    The sums are written as one ``{"count": N}`` line per kind, in
    first-seen order, before any other line, on :meth:`sync`/
    :meth:`close`/:meth:`detach`, and after :data:`DRAIN_EVERY` coalesced
    events.  Counts folded from the journal therefore equal the live
    ones, and no counter moves across another line.
    """

    def __init__(
        self,
        path: str | Path,
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        context: dict[str, Any] | None = None,
    ) -> None:
        self.path = Path(path)
        self.rotate_bytes = max(int(rotate_bytes), 4096)
        self.context = dict(context or {})
        self._handle: TextIO | None = None
        self._size = 0
        self._degraded = False
        self._bus: EventBus | None = None
        self._pending: dict[str, int] = {}
        self._coalesced = 0
        self._seq = self._recover_seq()

    # -- recovery -------------------------------------------------------

    def _recover_seq(self) -> int:
        """Last sequence number already on disk (0 for a fresh journal)."""
        for file_path in reversed(journal_files(self.path)):
            seq = _last_seq_in(file_path)
            if seq is not None:
                return seq
        return 0

    @property
    def seq(self) -> int:
        """The last sequence number written (0 before any event)."""
        return self._seq

    @property
    def degraded(self) -> bool:
        """True once storage failed and the journal stopped writing."""
        return self._degraded

    # -- wiring ---------------------------------------------------------

    def attach(self, bus: EventBus) -> "RunJournal":
        """Subscribe to ``bus`` and enable fine-grained tracing on it."""
        self._bus = bus
        bus.subscribe(self._on_event)
        bus.tracing = True
        return self

    def detach(self) -> None:
        """Unsubscribe from the bus (tracing stays as-is) and flush."""
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None
        self.close()

    # -- writing --------------------------------------------------------

    def _on_event(self, event: str, payload: dict) -> None:
        self.append(event, payload)

    def append(self, event: str, payload: dict | None = None) -> None:
        """Journal one event (no-op once degraded).

        A count-only counter joins the pending sums; anything else first
        drains them, then is written as its own JSON line.
        """
        if self._degraded:
            return
        if event in COALESCED_EVENTS and payload is not None and len(payload) == 1:
            count = payload.get("count")
            if type(count) is int:
                self._pending[event] = self._pending.get(event, 0) + count
                self._coalesced += 1
                if self._coalesced >= DRAIN_EVERY:
                    self._drain()
                return
        self._drain()
        self._write(event, payload)

    def _drain(self) -> None:
        """Write the pending counter sums, one line per kind."""
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._coalesced = 0
        for event, count in pending.items():
            self._write(event, {"count": count})

    def _write(self, event: str, payload: dict | None) -> None:
        """Encode, write and flush one record (no-op once degraded)."""
        if self._degraded:
            return
        record: dict[str, Any] = {
            "seq": self._seq + 1,
            "ts": round(time.time(), 6),
            # The monotonic clock is what the fleet stitcher aligns on:
            # wall clocks step (NTP, VM migration), monotonic deltas
            # within one process never do.
            "mono": round(time.monotonic(), 6),
            "event": event,
        }
        for key, value in (payload or {}).items():
            if key not in record:
                record[key] = value
        for key, value in self.context.items():
            if key not in record:
                record[key] = value
        line = _LINE_ENCODER.encode(record) + "\n"
        try:
            if self._size + len(line) > self.rotate_bytes and self._size > 0:
                self._rotate()
            handle = self._ensure_handle()
            handle.write(line)
            handle.flush()
        except OSError as exc:
            self._degrade(exc)
            return
        self._seq += 1
        self._size += len(line)

    def _ensure_handle(self) -> TextIO:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            self._size = self._handle.tell()
        return self._handle

    def _rotate(self) -> None:
        """Move the full journal aside and start a fresh file."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
        existing = journal_files(self.path)
        next_index = len([p for p in existing if p != self.path]) + 1
        os.replace(self.path, self.path.with_name(f"{self.path.name}.{next_index}"))
        self._size = 0

    def _degrade(self, exc: OSError) -> None:
        """Storage went away: stop journaling, warn once, keep the run."""
        self._degraded = True
        try:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
        except OSError:
            pass
        self._handle = None
        reason = f"journal append failed ({exc}); telemetry disabled for this run"
        print(f"warning: {reason}", file=sys.stderr)
        if self._bus is not None and is_storage_error(exc):
            # Safe reentrancy: degraded is already set, so the journal
            # skips its own storage_degraded event.
            self._bus.emit(
                "storage_degraded", tier="journal", path=str(self.path), reason=reason
            )

    def sync(self) -> None:
        """Drain pending counters, then flush and fsync (``close`` calls this)."""
        self._drain()
        if self._handle is None or self._handle.closed:
            return
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def close(self) -> None:
        """Flush, fsync and close the journal file (idempotent)."""
        self.sync()
        if self._handle is not None and not self._handle.closed:
            try:
                self._handle.close()
            except OSError:
                pass
        self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _last_seq_in(path: Path) -> int | None:
    """The last parsable event's ``seq`` in one journal file, if any.

    Reads only the file's tail; tolerates a torn final line (the crash
    case journals exist for) by falling back to earlier lines.
    """
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            handle.seek(max(0, size - 65536))
            tail = handle.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    for line in reversed(tail.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            seq = record.get("seq")
            if isinstance(seq, int):
                return seq
        except ValueError:
            continue
    return None


# ----------------------------------------------------------------------
# metrics: counters, gauges, log-scale histograms
# ----------------------------------------------------------------------


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: ``\\``, ``"`` and newline.

    The exposition format requires exactly these three escapes inside a
    quoted label value; everything else passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_suffix(labels: dict[str, str] | None) -> str:
    """``{k="v",...}`` with escaped values ('' when unlabeled)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def series_key(name: str, labels: dict[str, str] | None = None) -> str:
    """Registry key of one series: the name plus its label suffix."""
    return name + _label_suffix(labels)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount

    def to_jsonable(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind, "help": self.help, "value": self.value
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def to_jsonable(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind, "help": self.help, "value": self.value
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


def log_buckets(
    low: float = 1e-6, high: float = 1e3, per_decade: int = 2
) -> list[float]:
    """Logarithmically spaced bucket upper bounds spanning [low, high]."""
    if low <= 0 or high <= low or per_decade < 1:
        raise ValueError("log_buckets needs 0 < low < high and per_decade >= 1")
    steps = int(round(math.log10(high / low) * per_decade))
    return [round(low * 10 ** (i / per_decade), 12) for i in range(steps + 1)]


class Histogram:
    """A log-scale-bucketed distribution (latency-shaped by default).

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics);
    observations above the last bound land only in ``+Inf`` (the total
    count).  ``sum``/``count``/``min``/``max`` are tracked exactly.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        labels: dict[str, str] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds = sorted(set(buckets)) if buckets is not None else log_buckets()
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            return
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_jsonable(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "help": self.help,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {_fmt_num(b): c for b, c in zip(self.bounds, self.counts)},
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload


def _fmt_num(value: float) -> str:
    """Compact numeric rendering (integers without a trailing ``.0``)."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus export.

    Series are keyed by name plus (sorted, escaped) label suffix, so
    ``counter("x_total", labels={"tenant": "a"})`` and the unlabeled
    ``counter("x_total")`` are distinct series under one metric family;
    the Prometheus rendering emits the family's HELP/TYPE once.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(name, Counter, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(name, Gauge, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        key = series_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, help, buckets=buckets, labels=labels)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {key!r} is a {metric.kind}, not a histogram")
        return metric

    def _get_or_create(
        self, name: str, cls: type, help: str, labels: dict[str, str] | None = None
    ) -> Any:
        key = series_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help, labels=labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {key!r} is a {metric.kind}, not a {cls.kind}")
        return metric

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Any:
        return self._metrics.get(name)

    def to_jsonable(self) -> dict[str, Any]:
        return {name: metric.to_jsonable() for name, metric in self._metrics.items()}

    def render_prometheus(self) -> str:
        """Prometheus textfile-collector format (HELP/TYPE + samples)."""
        return render_prometheus_snapshot(self.to_jsonable())

    def write(self, path: str | Path) -> Path:
        """Persist the registry: ``.json`` paths get JSON, others
        Prometheus textfile format (atomic write either way)."""
        path = Path(path)
        if path.suffix == ".json":
            text = json.dumps(self.to_jsonable(), indent=2, default=_jsonable) + "\n"
        else:
            text = self.render_prometheus()
        return write_text_atomic(path, text)


# ----------------------------------------------------------------------
# snapshot merging (the fleet-aggregation primitive)
# ----------------------------------------------------------------------


def merge_metric_snapshots(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Merge ``MetricsRegistry.to_jsonable()`` snapshots series-wise.

    Counters and gauges sum their values; histograms sum bucket-wise
    (non-cumulative per-bucket counts, as stored), sum their ``count``/
    ``sum`` and fold ``min``/``max``; ``mean`` is recomputed from the
    merged totals.  Series are matched by their full key — name plus
    label suffix — so per-tenant series merge with their twins only.
    ``repro fleet metrics`` is exactly this over N replicas' scrapes.
    """
    merged: dict[str, Any] = {}
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        for key, entry in snapshot.items():
            if not isinstance(entry, dict):
                continue
            current = merged.get(key)
            if current is None:
                merged[key] = json.loads(json.dumps(entry))  # deep copy
                continue
            if current.get("kind") != entry.get("kind"):
                raise ValueError(
                    f"series {key!r} changes kind across snapshots "
                    f"({current.get('kind')} vs {entry.get('kind')})"
                )
            if entry.get("kind") == "histogram":
                current["count"] = int(current.get("count", 0)) + int(
                    entry.get("count", 0)
                )
                current["sum"] = float(current.get("sum", 0.0)) + float(
                    entry.get("sum", 0.0)
                )
                for side, fold in (("min", min), ("max", max)):
                    theirs = entry.get(side)
                    if theirs is not None:
                        ours = current.get(side)
                        current[side] = (
                            theirs if ours is None else fold(ours, theirs)
                        )
                current["mean"] = (
                    current["sum"] / current["count"] if current["count"] else 0.0
                )
                buckets = current.setdefault("buckets", {})
                for bound, count in (entry.get("buckets") or {}).items():
                    buckets[bound] = int(buckets.get(bound, 0)) + int(count)
            else:
                current["value"] = float(current.get("value", 0.0)) + float(
                    entry.get("value", 0.0)
                )
    return merged


def render_prometheus_snapshot(snapshot: dict[str, Any]) -> str:
    """Prometheus textfile rendering of a (possibly merged) JSON snapshot.

    The one Prometheus renderer: :meth:`MetricsRegistry.render_prometheus`
    is this over the registry's own :meth:`~MetricsRegistry.to_jsonable`,
    and ``repro fleet metrics`` is this over a merged snapshot.  Each
    series is rebuilt from its entry (labels are already baked into the
    series key); a histogram's ``le`` label comes last.
    """
    out = io.StringIO()
    seen_families: set[str] = set()
    for key, entry in snapshot.items():
        if not isinstance(entry, dict):
            continue
        family = key.split("{", 1)[0]
        suffix = key[len(family):]
        if family not in seen_families:
            seen_families.add(family)
            if entry.get("help"):
                out.write(f"# HELP {family} {entry['help']}\n")
            out.write(f"# TYPE {family} {entry.get('kind', 'untyped')}\n")
        if entry.get("kind") == "histogram":
            buckets = entry.get("buckets") or {}
            cumulative = 0
            inner = suffix[1:-1] if suffix else ""
            for bound in sorted(buckets, key=float):
                cumulative += int(buckets[bound])
                le = f'le="{bound}"'
                label_part = f"{inner},{le}" if inner else le
                out.write(f"{family}_bucket{{{label_part}}} {cumulative}\n")
            le = 'le="+Inf"'
            label_part = f"{inner},{le}" if inner else le
            out.write(
                f"{family}_bucket{{{label_part}}} {int(entry.get('count', 0))}\n"
            )
            out.write(f"{family}_sum{suffix} {_fmt_num(entry.get('sum', 0.0))}\n")
            out.write(f"{family}_count{suffix} {int(entry.get('count', 0))}\n")
        else:
            out.write(f"{key} {_fmt_num(entry.get('value', 0))}\n")
    return out.getvalue()


# ----------------------------------------------------------------------
# TTY heartbeat
# ----------------------------------------------------------------------


class ProgressLine:
    """A rate-limited, single-line progress heartbeat for TTYs.

    Subscribes to the bus of an engine's :class:`EngineMetrics` and, on
    its events, rewrites one ``\\r``-terminated stderr line (current
    phase, and the metrics' evaluation count and cache hit rate, elapsed
    time) at most every ``interval`` seconds.  On a non-TTY stream every
    update is suppressed, so batch logs and tests never see it.  Call
    :meth:`close` to clear the line before normal output resumes.
    """

    def __init__(
        self,
        metrics: EngineMetrics,
        stream: TextIO | None = None,
        interval: float = 0.5,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._started = time.monotonic()
        self._last_write = 0.0
        self._phase = ""
        self._dirty = False
        self._width = 0
        self._metrics = metrics
        self._bus = metrics.bus
        self._bus.subscribe(self._on_event)

    def _enabled(self) -> bool:
        try:
            return self.stream.isatty()
        except (AttributeError, ValueError):
            return False

    @property
    def active(self) -> bool:
        """True when the stream is a TTY (updates will actually render)."""
        return self._enabled()

    def _on_event(self, event: str, payload: dict) -> None:
        if event == "phase_start":
            self._phase = payload.get("name", "")
        self._maybe_render()

    def _maybe_render(self) -> None:
        if not self._enabled():
            return
        now = time.monotonic()
        if now - self._last_write < self.interval:
            return
        self._last_write = now
        elapsed = now - self._started
        metrics = self._metrics
        rate = f"{metrics.hit_rate * 100:.0f}%" if metrics.lookups else "-"
        line = (
            f"[{self._phase or 'run'}] evals {metrics.evaluations} | "
            f"cache {rate} | {elapsed:.0f}s"
        )
        pad = max(self._width - len(line), 0)
        self._width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except OSError:
            pass
        self._dirty = True

    def close(self) -> None:
        """Clear the heartbeat line and unsubscribe."""
        self._bus.unsubscribe(self._on_event)
        if self._dirty and self._enabled():
            try:
                self.stream.write("\r" + " " * self._width + "\r")
                self.stream.flush()
            except OSError:
                pass
        self._dirty = False

"""Evaluation engine: the shared runtime under every exploration.

This package is the scaling substrate the ROADMAP's north star calls
for: all code that needs simulation results routes through one
:class:`~repro.engine.pool.EvaluationEngine`, which provides

* content-addressed result caching (:mod:`repro.engine.keys`,
  :mod:`repro.engine.cache`) — in memory, optionally persisted to SQLite;
* deduplicated, vectorized in-process batch evaluation, and
  process-parallel ``map`` over whole searches (:mod:`repro.engine.pool`);
* checkpoint/resume of long explorations
  (:mod:`repro.engine.checkpoint`);
* progress/metrics hooks (:mod:`repro.engine.events`);
* integrity checking of every result, and retry/timeout/backoff
  resilience for pooled tasks (:mod:`repro.engine.resilience`) with a
  deterministic fault-injection harness for testing it
  (:mod:`repro.engine.faults`);
* durable run orchestration (:mod:`repro.engine.runs`): run directories
  with versioned manifests, exclusive locks with stale-lock takeover,
  cooperative SIGINT/SIGTERM shutdown and artifact integrity
  verification, on top of the atomic write-rename primitives of
  :mod:`repro.engine.io_atomic`;
* end-to-end observability (:mod:`repro.engine.telemetry`,
  :mod:`repro.engine.trace`): a durable JSONL event journal per run,
  hierarchical spans stitched across worker processes, a
  counters/gauges/histograms registry exportable as JSON or Prometheus
  textfiles, and the post-hoc analysis behind ``repro trace``.

See ``docs/engine.md`` for the key scheme, checkpoint format and
parallelism model, ``docs/resilience.md`` for the failure model,
``docs/runs.md`` for run directories and resume semantics, and
``docs/observability.md`` for the event vocabulary, journal schema and
trace CLI.
"""

from .cache import CacheStats, ResultCache
from .cache_backends import (
    CacheBackend,
    CacheBackendError,
    CacheCorruption,
    CacheUnavailable,
    MemoryBackend,
    SQLiteBackend,
    backend_names,
    make_backend,
    register_backend,
)
from .checkpoint import CheckpointManager
from .events import EngineMetrics, EventBus
from .io_atomic import (
    file_sha256,
    is_storage_error,
    read_json,
    write_json_atomic,
    write_text_atomic,
)
from .runs import (
    RunDirectory,
    RunInterrupted,
    RunLock,
    RunManifest,
    ShutdownCoordinator,
    VerifyReport,
    interrupt_exit_code,
    list_runs,
)
from .faults import (
    CRASH,
    HANG,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
)
from .keys import (
    RESTART_SEED_STRIDE,
    ROUND_SEED_STRIDE,
    canonical,
    derive_seed,
    digest,
    evaluation_key,
    simulator_id,
    unit_draw,
)
from .pool import EvaluationEngine
from .resilience import ResultIntegrityError, RetryPolicy, validate_result
from .telemetry import (
    JOURNAL_FILE,
    TRACEPARENT_HEADER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProgressLine,
    RunJournal,
    TraceContext,
    activate_trace,
    current_trace,
    escape_label_value,
    journal_files,
    merge_metric_snapshots,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    render_prometheus_snapshot,
)
from .trace import (
    KNOWN_EVENTS,
    TraceSummary,
    chrome_trace,
    critical_path,
    read_events,
    slowest_tasks,
    summarize,
)
from .serialize import (
    config_from_jsonable,
    config_to_jsonable,
    simresult_from_jsonable,
    simresult_to_jsonable,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "CacheBackend",
    "CacheBackendError",
    "CacheCorruption",
    "CacheUnavailable",
    "MemoryBackend",
    "SQLiteBackend",
    "backend_names",
    "make_backend",
    "register_backend",
    "CheckpointManager",
    "EngineMetrics",
    "EventBus",
    "file_sha256",
    "is_storage_error",
    "read_json",
    "write_json_atomic",
    "write_text_atomic",
    "RunDirectory",
    "RunInterrupted",
    "RunLock",
    "RunManifest",
    "ShutdownCoordinator",
    "VerifyReport",
    "interrupt_exit_code",
    "list_runs",
    "CRASH",
    "HANG",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "ResultIntegrityError",
    "RetryPolicy",
    "validate_result",
    "RESTART_SEED_STRIDE",
    "ROUND_SEED_STRIDE",
    "canonical",
    "derive_seed",
    "digest",
    "evaluation_key",
    "simulator_id",
    "unit_draw",
    "EvaluationEngine",
    "JOURNAL_FILE",
    "TRACEPARENT_HEADER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressLine",
    "RunJournal",
    "TraceContext",
    "activate_trace",
    "current_trace",
    "escape_label_value",
    "journal_files",
    "merge_metric_snapshots",
    "mint_span_id",
    "mint_trace_id",
    "parse_traceparent",
    "render_prometheus_snapshot",
    "KNOWN_EVENTS",
    "TraceSummary",
    "chrome_trace",
    "critical_path",
    "read_events",
    "slowest_tasks",
    "summarize",
    "config_from_jsonable",
    "config_to_jsonable",
    "simresult_from_jsonable",
    "simresult_to_jsonable",
]

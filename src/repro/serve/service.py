"""The exploration service: job-slot threads over one shared result store.

``repro serve`` turns the one-shot CLI into a long-running multi-tenant
HTTP API (ROADMAP: *serve heavy traffic from a long-lived process*).
The moving parts:

* **HTTP front-end** — a stdlib ``socketserver.ThreadingTCPServer``,
  one thread per connection, speaking the subset in
  :mod:`repro.serve.http` and exposing the REST API under ``/v1``:
  submit a job, poll it, stream its progress as Server-Sent Events,
  fetch its result;
* **admission** — a :class:`FairShareScheduler` with bounded per-tenant
  queues (429 on overflow) and per-tenant budget caps;
* **execution** — ``--jobs`` slot threads, each blocked in
  :meth:`FairShareScheduler.take` until a job is ready.  A slot opens
  its own serial :class:`EvaluationEngine` with its first job and keeps
  it; every engine owns its *own* connection to the *shared* result
  store (``--cache-backend``), so N slots — and M replicas in other
  processes — deduplicate work through one persistent cache (the
  WAL-mode SQLite backend makes that safe);
* **observability** — each job journals its engine's event stream to a
  private :class:`RunJournal` (the SSE source), and per-job engine/cache
  counter deltas are folded into one shared
  :class:`~repro.engine.telemetry.MetricsRegistry` served at
  ``/v1/metrics`` (Prometheus or JSON);
* **shutdown** — SIGINT/SIGTERM via the existing
  :class:`ShutdownCoordinator`: admissions stop (503), running jobs
  finish, queued jobs fail honestly, the slots exit and their engines
  close, and the process exits ``128 + signum``.

Every job state transition happens on the slot thread that runs the
job, guarded by one service lock — so a drain completes correctly even
after the listener is shut down by a signal.

API summary (details in ``docs/serve.md``)::

    POST /v1/jobs                  submit    -> 202 {id, ...} | 400 | 429 | 503
    GET  /v1/jobs                  list      -> 200 [{id, state, ...}]
    GET  /v1/jobs/<id>             status    -> 200 | 404
    GET  /v1/jobs/<id>/result      result    -> 200 | 404 | 409 (pending)
    GET  /v1/jobs/<id>/events      SSE       (Last-Event-ID resume)
    GET  /v1/healthz               liveness
    GET  /v1/metrics               Prometheus (?format=json for JSON)
    GET  /v1/stats                 scheduler + store snapshot
    GET  /v1/cache                 store row count + keys
    GET  /v1/cache/<key>           one row   -> 200 {value, checksum} | 404
    PUT  /v1/cache/<key>           store row -> 204
    DELETE /v1/cache[/<key>]       clear / delete one row -> 204

The ``/v1/cache`` rows make any replica a *network result store*: the
``http:`` :class:`~repro.engine.cache_backends.HttpBackend` points other
replicas' engines at this API, so a fleet shares one store without a
shared filesystem (see ``docs/serve.md`` § HA & failure handling).
"""

from __future__ import annotations

import contextlib
import os
import re
import selectors
import socket
import socketserver
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, BinaryIO

from ..engine import (
    EvaluationEngine,
    MemoryBackend,
    MetricsRegistry,
    ResultCache,
    RunInterrupted,
    RunJournal,
    ShutdownCoordinator,
    make_backend,
)
from ..engine.telemetry import (
    TRACEPARENT_HEADER,
    TraceContext,
    activate_trace,
    mint_span_id,
    parse_traceparent,
    render_prometheus_snapshot,
)
from ..engine.cache_backends import CacheCorruption, CacheUnavailable
from ..errors import QueueFullError, ReproError, ServeError
from .http import (
    BadRequest,
    Request,
    error_response,
    json_response,
    read_request,
    response_bytes,
    sse_head,
)
from .jobs import COMPLETED, FAILED, QUEUED, RUNNING, Job, JobSpec
from .runner import execute_job
from .scheduler import FairShareScheduler, TenantPolicy
from .sse import JournalFollower, format_sse

#: Engine counters attributed per job (delta of EngineMetrics.snapshot()).
_ENGINE_DELTA_KEYS = (
    "evaluations",
    "cache_hits",
    "cache_misses",
    "retries",
    "timeouts",
    "pool_restarts",
    "quarantines",
)

_JOB_PATH_RE = re.compile(r"^/v1/jobs/([A-Za-z0-9._-]+)(/result|/events)?$")

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Rows the ``/v1/cache`` store keeps under a ``memory`` spec (LRU).
MEMORY_STORE_ROWS = 65_536


class _Listener(socketserver.ThreadingTCPServer):
    """The listening socket; each connection runs on a daemon thread.

    The address family comes from ``getaddrinfo`` (so an IPv6 literal
    binds), ``SO_REUSEADDR`` is set and the listen backlog is 100.
    """

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 100
    #: ``handle_request()`` runs once select() saw a connection; it must
    #: not wait for another.
    timeout = 0

    def __init__(self, service: "ExplorationService", host: str, port: int) -> None:
        family, _, _, _, address = socket.getaddrinfo(
            host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
        )[0]
        self.address_family = family
        self.service = service
        super().__init__(address, _Connection)


class _Connection(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # SSE frames go out as they are written

    def handle(self) -> None:
        self.server.service._handle_connection(self.rfile, self.wfile)


class ExplorationService:
    """One service instance: scheduler + job slots + HTTP handlers.

    Parameters
    ----------
    jobs:
        Concurrent job slots, each a thread with its own engine.
    cache_backend:
        Shared result-store spec for :func:`make_backend` (``memory``,
        ``sqlite:<file>``, ``http://host:port``); ``none`` disables
        caching.
        Each slot's engine opens its own handle to a persistent store;
        under ``memory`` each slot keeps only its bounded LRU and the
        ``/v1/cache`` API has a memory store of its own.
    serve_dir:
        Directory for per-job journals (a temp dir when omitted).
    tenant_policy / max_total_queued:
        Admission limits (see :mod:`repro.serve.scheduler`).
    replica_id:
        Stable identity stamped on every journal line and surfaced by
        ``/v1/healthz``/``/v1/stats`` so fleet tooling can tell replicas
        apart; defaults to ``host:pid``.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache_backend: str | None = "memory",
        serve_dir: str | Path | None = None,
        tenant_policy: TenantPolicy | None = None,
        max_total_queued: int = 64,
        replica_id: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ServeError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_backend_spec = cache_backend
        self.replica_id = replica_id or f"{socket.gethostname()}:{os.getpid()}"
        self.serve_dir = Path(
            serve_dir
            if serve_dir is not None
            else tempfile.mkdtemp(prefix="repro-serve-")
        )
        self.scheduler = FairShareScheduler(tenant_policy, max_total_queued)
        self.registry = MetricsRegistry()

        self._jobs: dict[str, Job] = {}
        self._job_counter = 0
        self._state_lock = threading.Lock()

        self._slots: list[threading.Thread] = []
        #: Each slot's engine, opened with the slot's first job.
        self._slot_engines: list[EvaluationEngine | None] = [None] * jobs

        #: The service's own handle on the shared store, serving the
        #: /v1/cache API (lazily opened; engines keep separate handles).
        self._store = None

        #: Journal of /v1/cache API calls that carried a trace context —
        #: the http store backend's half of a distributed trace (lazy;
        #: only written when traced calls actually arrive).
        self._service_journal: RunJournal | None = None
        #: Guards both lazy opens and the journal's appends: /v1/cache
        #: requests arrive on concurrent connection threads.
        self._store_lock = threading.Lock()

        self._stopping = False
        self._drained = False

        self._stop = threading.Event()
        #: request_stop() writes here to wake the accept loop at once.
        self._woken, self._waker = socket.socketpair()
        self._ready = threading.Event()
        self._started_at = time.time()
        self.host: str | None = None
        self.port: int | None = None

        self._metrics_lock = threading.Lock()
        r = self.registry
        self._m_submitted = r.counter(
            "repro_serve_jobs_submitted_total", "Jobs admitted to the queue"
        )
        self._m_rejected = r.counter(
            "repro_serve_jobs_rejected_total", "Jobs rejected with 429 (queue full)"
        )
        self._m_completed = r.counter(
            "repro_serve_jobs_completed_total", "Jobs finished successfully"
        )
        self._m_failed = r.counter(
            "repro_serve_jobs_failed_total", "Jobs that ended in an error"
        )
        self._m_evaluations = r.counter(
            "repro_serve_evaluations_total", "Fresh simulations run for jobs"
        )
        self._m_cache_hits = r.counter(
            "repro_serve_cache_hits_total", "Result-store lookups served from cache"
        )
        self._m_cache_misses = r.counter(
            "repro_serve_cache_misses_total", "Result-store lookups that simulated"
        )
        self._m_cache_stores = r.counter(
            "repro_serve_cache_stores_total", "Results written to the shared store"
        )
        self._m_queue_depth = r.gauge(
            "repro_serve_queue_depth", "Jobs waiting for a slot, all tenants"
        )
        self._m_running = r.gauge(
            "repro_serve_running_jobs", "Jobs currently executing"
        )
        self._m_job_seconds = r.histogram(
            "repro_serve_job_seconds", "Job execution wall time"
        )
        self._m_queue_wait = r.histogram(
            "repro_serve_queue_wait_seconds", "Delay between submit and job start"
        )
        self._m_cache_api = r.counter(
            "repro_serve_cache_api_total", "Requests served by the /v1/cache API"
        )
        self._m_cache_api_errors = r.counter(
            "repro_serve_cache_api_errors_total",
            "Cache API requests answered 5xx (store unavailable or corrupt)",
        )

    def _tenant_inc(self, name: str, help: str, tenant: str, n: int = 1) -> None:
        """Bump the per-tenant series of a counter (caller holds the lock).

        The unlabeled series stays the fleet-wide total; these labeled
        twins give the per-tenant breakdown (label values escaped by the
        registry's Prometheus renderer).
        """
        self.registry.counter(name, help, labels={"tenant": tenant}).inc(n)

    def _make_engine(self) -> EvaluationEngine:
        spec = self.cache_backend_spec
        cache = None
        if spec not in (None, "none"):
            backend = make_backend(spec)
            # A slot's memory backend would be a private, unbounded dict
            # behind the LRU that nothing else reads: keep the LRU alone.
            cache = ResultCache(backend=backend if backend.persistent else None)
        return EvaluationEngine(jobs=1, cache=cache)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit_job(self, payload: Any, trace: TraceContext | None = None) -> Job:
        """Validate and admit one job (raises ServeError/QueueFullError).

        ``trace`` is the caller's trace context (parsed from the
        ``traceparent`` header): the job's journal and every span it
        emits will carry that trace id, with the caller's span as
        parent.
        """
        if self._stopping:
            raise ServeError("service is draining; not accepting jobs")
        tenant = "default"
        if isinstance(payload, dict) and "tenant" in payload:
            tenant = payload["tenant"]
            if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
                raise ServeError(
                    "tenant must be 1-64 characters of [A-Za-z0-9._-]"
                )
        spec = JobSpec.from_payload(payload)
        with self._state_lock:
            self._job_counter += 1
            job_id = f"j{self._job_counter:05d}-{spec.content_digest[:10]}"
            job = Job(id=job_id, tenant=tenant, spec=spec)
            if trace is not None:
                job.trace_id = trace.trace_id
                job.parent_span_id = trace.span_id
            job.journal_path = self.serve_dir / "jobs" / job_id / "events.jsonl"
            self._jobs[job_id] = job
        try:
            self.scheduler.submit(job)
        except QueueFullError:
            with self._state_lock:
                self._jobs.pop(job_id, None)
            with self._metrics_lock:
                self._m_rejected.inc()
            raise
        with self._metrics_lock:
            self._m_submitted.inc()
            self._tenant_inc(
                "repro_serve_jobs_submitted_total",
                "Jobs admitted to the queue",
                tenant,
            )
        self._update_gauges()
        return job

    def get_job(self, job_id: str) -> Job | None:
        with self._state_lock:
            return self._jobs.get(job_id)

    def job_summaries(self) -> list[dict[str, Any]]:
        with self._state_lock:
            jobs = list(self._jobs.values())
        return [job.to_jsonable() for job in sorted(jobs, key=lambda j: j.id)]

    # ------------------------------------------------------------------
    # execution (job-slot threads)
    # ------------------------------------------------------------------

    def _slot(self, index: int) -> None:
        """One job slot: run jobs until the scheduler drains.

        The slot's engine opens with its first job.  A store that cannot
        open fails only that job, and the next job retries the open; an
        exception escaping a job fails that job, never the slot.
        """
        while (job := self.scheduler.take()) is not None:
            self._update_gauges()
            try:
                if self._slot_engines[index] is None:
                    self._slot_engines[index] = self._make_engine()
                self._run_job(job, self._slot_engines[index])
            except BaseException as exc:  # noqa: BLE001 - last line of defense
                with self._state_lock:
                    job.state = FAILED
                    job.error = f"internal error: {exc!r}"
                    job.finished_at = time.time()
                print(f"serve: job {job.id} crashed: {exc!r}", file=sys.stderr)
            finally:
                self.scheduler.job_finished(job.tenant)
                self._update_gauges()

    def _run_job(self, job: Job, engine: EvaluationEngine) -> None:
        # Every journal line carries the distributed-trace identity: the
        # caller's trace id, the caller's span as parent, and which
        # replica wrote the line (the stitcher's correlation keys).
        span_id = mint_span_id()
        context: dict[str, Any] = {"replica_id": self.replica_id}
        if job.trace_id is not None:
            context["trace_id"] = job.trace_id
            context["parent_span_id"] = job.parent_span_id
        journal = RunJournal(job.journal_path, context=context)
        try:
            with self._state_lock:
                job.state = RUNNING
                job.started_at = time.time()
            queue_wait = job.started_at - job.submitted_at
            journal.append(
                "job_start",
                {
                    "job": job.id,
                    "span": span_id,
                    "tenant": job.tenant,
                    "kind": job.spec.kind,
                    "queue_wait_s": round(queue_wait, 6),
                },
            )
            journal.attach(engine.events)
            before = engine.metrics.snapshot()
            cache_before = (
                engine.cache.stats.snapshot() if engine.cache is not None else None
            )

            error: str | None = None
            result: Any = None
            # Downstream calls (the http: store backend) inherit the
            # trace with this job's span as their parent.
            ambient = (
                activate_trace(TraceContext(job.trace_id, span_id))
                if job.trace_id is not None
                else contextlib.nullcontext()
            )
            started = time.perf_counter()
            with ambient:
                try:
                    result = execute_job(job.spec, engine)
                except ReproError as exc:
                    error = str(exc)
                except RunInterrupted:
                    error = "interrupted by service shutdown"
                except Exception as exc:  # pragma: no cover - defensive
                    error = f"internal error: {exc!r}"
                # Write the job's buffered rows before the job is seen to
                # end: a client told "completed" may next ask a sibling
                # replica of the same store.
                if engine.cache is not None:
                    engine.cache.flush()
            seconds = time.perf_counter() - started

            after = engine.metrics.snapshot()
            deltas = {
                key: int(after[key]) - int(before[key]) for key in _ENGINE_DELTA_KEYS
            }
            cache_deltas: dict[str, int] = {}
            if cache_before is not None and engine.cache is not None:
                cache_after = engine.cache.stats.snapshot()
                cache_deltas = {
                    key: cache_after[key] - cache_before[key] for key in cache_after
                }

            journal.detach()  # unsubscribe before the direct epilogue line
            journal.append(
                "job_end",
                {
                    "job": job.id,
                    "span": span_id,
                    "state": FAILED if error is not None else COMPLETED,
                    "seconds": round(seconds, 6),
                    "error": error,
                    **{f"delta_{k}": v for k, v in deltas.items()},
                },
            )
            journal.close()

            with self._state_lock:
                job.stats = {
                    "seconds": seconds,
                    "queue_wait_s": queue_wait,
                    **deltas,
                    "cache": cache_deltas,
                }
                job.finished_at = time.time()
                if error is None:
                    job.state = COMPLETED
                    job.result = result
                else:
                    job.state = FAILED
                    job.error = error

            with self._metrics_lock:
                (self._m_failed if error is not None else self._m_completed).inc()
                if error is not None:
                    self._tenant_inc(
                        "repro_serve_jobs_failed_total",
                        "Jobs that ended in an error",
                        job.tenant,
                    )
                else:
                    self._tenant_inc(
                        "repro_serve_jobs_completed_total",
                        "Jobs finished successfully",
                        job.tenant,
                    )
                self._m_job_seconds.observe(seconds)
                self.registry.histogram(
                    "repro_serve_job_seconds",
                    "Job execution wall time",
                    labels={"tenant": job.tenant},
                ).observe(seconds)
                self._m_queue_wait.observe(max(queue_wait, 0.0))
                self._m_evaluations.inc(deltas["evaluations"])
                self._m_cache_hits.inc(deltas["cache_hits"])
                self._m_cache_misses.inc(deltas["cache_misses"])
                self._m_cache_stores.inc(cache_deltas.get("stores", 0))
        finally:
            journal.detach()  # idempotent; also closes the file

    def _update_gauges(self) -> None:
        depths = self.scheduler.depths()
        with self._metrics_lock:
            self._m_queue_depth.set(depths["queued"])
            self._m_running.set(depths["running"])

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------

    def _handle_connection(self, rfile: BinaryIO, writer: BinaryIO) -> None:
        """Answer the one request on a connection (its thread runs this)."""
        try:
            try:
                request = read_request(rfile)
            except BadRequest as exc:
                writer.write(error_response(400, str(exc)))
                return
            if request is None:
                return
            self._route(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # pragma: no cover - defensive
            with contextlib.suppress(Exception):
                writer.write(error_response(500, f"internal error: {exc!r}"))

    def _route(self, request: Request, writer: BinaryIO) -> None:
        path = request.path.rstrip("/") or "/"

        if path == "/v1/healthz":
            writer.write(
                json_response(
                    200,
                    {
                        "status": "draining" if self._stopping else "ok",
                        "replica_id": self.replica_id,
                        "uptime_s": round(time.time() - self._started_at, 3),
                        "jobs": len(self._jobs),
                        "slots": self.jobs,
                        "backend": str(self.cache_backend_spec),
                    },
                )
            )
        elif path == "/v1/metrics":
            self._update_gauges()
            # Slot threads add series as new tenants appear.
            with self._metrics_lock:
                snapshot = self.registry.to_jsonable()
            if request.query_one("format") == "json":
                writer.write(json_response(200, snapshot))
            else:
                writer.write(
                    response_bytes(
                        200,
                        render_prometheus_snapshot(snapshot),
                        content_type="text/plain; version=0.0.4",
                    )
                )
        elif path == "/v1/stats":
            writer.write(json_response(200, self.stats()))
        elif path == "/v1/cache" or path.startswith("/v1/cache/"):
            self._handle_cache(request, writer, path)
        elif path == "/v1/jobs":
            if request.method == "POST":
                self._handle_submit(request, writer)
            elif request.method == "GET":
                writer.write(json_response(200, {"jobs": self.job_summaries()}))
            else:
                writer.write(error_response(405, f"{request.method} not allowed"))
        else:
            match = _JOB_PATH_RE.match(path)
            if match is None:
                writer.write(error_response(404, f"no route for {path}"))
            else:
                job = self.get_job(match.group(1))
                if job is None:
                    writer.write(error_response(404, f"no job {match.group(1)!r}"))
                elif match.group(2) == "/events":
                    self._handle_events(request, writer, job)
                elif match.group(2) == "/result":
                    with self._state_lock:
                        done = job.done
                    if not done:
                        writer.write(
                            json_response(
                                409,
                                {
                                    "error": "job is not finished",
                                    "state": job.state,
                                    "id": job.id,
                                },
                                extra_headers={"Retry-After": "1"},
                            )
                        )
                    else:
                        writer.write(
                            json_response(200, job.to_jsonable(include_result=True))
                        )
                else:
                    writer.write(json_response(200, job.to_jsonable()))

    # ------------------------------------------------------------------
    # the /v1/cache network-store API
    # ------------------------------------------------------------------

    def _store_handle(self):
        """The service's own backend handle (None when caching is off)."""
        if self.cache_backend_spec in (None, "none"):
            return None
        with self._store_lock:
            if self._store is None:
                self._store = make_backend(self.cache_backend_spec)
                if isinstance(self._store, MemoryBackend):
                    self._store.max_rows = MEMORY_STORE_ROWS
            return self._store

    def _journal_cache_call(self, request: Request, path: str) -> None:
        """Journal a /v1/cache call that carried a trace context.

        This is the store-side half of a distributed trace: the calling
        engine's ``http:`` backend injects ``traceparent`` with the
        job's span as parent, so the fleet stitcher can attach these
        store calls under the job that made them.  Untraced calls are
        not journalled.
        """
        trace = parse_traceparent(request.header(TRACEPARENT_HEADER))
        if trace is None:
            return
        key = request.path[len("/v1/cache/"):] if path != "/v1/cache" else None
        with self._store_lock:
            if self._service_journal is None:
                self._service_journal = RunJournal(
                    self.serve_dir / "service-events.jsonl",
                    context={"replica_id": self.replica_id},
                )
            self._service_journal.append(
                "cache_call",
                {
                    "method": request.method,
                    "key": key,
                    "trace_id": trace.trace_id,
                    "parent_span_id": trace.span_id,
                },
            )

    def _handle_cache(self, request: Request, writer, path: str) -> None:
        """Serve the shared store over HTTP (the ``http:`` backend's peer).

        Backend trouble maps onto the wire the same way the cache maps
        it locally: :class:`CacheUnavailable` answers 503 + Retry-After
        (the remote should retry/degrade, the store file is fine), and
        :class:`CacheCorruption` answers 500 with ``"corruption": true``
        so the remote can quarantine its tier instead of retrying.
        """
        with self._metrics_lock:
            self._m_cache_api.inc()
        with contextlib.suppress(Exception):
            self._journal_cache_call(request, path)
        store = self._store_handle()
        if store is None:
            writer.write(error_response(404, "no shared store configured"))
            return
        # Row keys come from the *raw* path so every character survives;
        # the collection route is the exact "/v1/cache" path.
        key = request.path[len("/v1/cache/"):] if path != "/v1/cache" else None
        try:
            if key is None:
                if request.method == "GET":
                    writer.write(
                        json_response(
                            200, {"count": len(store), "keys": list(store.keys())}
                        )
                    )
                elif request.method == "DELETE":
                    store.clear()
                    writer.write(response_bytes(204))
                else:
                    writer.write(
                        error_response(405, f"{request.method} not allowed")
                    )
            elif request.method == "GET":
                row = store.get(key)
                if row is None:
                    writer.write(error_response(404, "no such row"))
                else:
                    writer.write(
                        json_response(
                            200,
                            {"key": key, "value": row[0], "checksum": row[1]},
                        )
                    )
            elif request.method == "PUT":
                try:
                    payload = request.json()
                except ValueError as exc:
                    writer.write(error_response(400, f"invalid JSON body: {exc}"))
                    return
                if not isinstance(payload, dict) or "value" not in payload:
                    writer.write(
                        error_response(400, "body must be {value, checksum?}")
                    )
                    return
                checksum = payload.get("checksum")
                store.put(
                    key,
                    str(payload["value"]),
                    None if checksum is None else str(checksum),
                )
                writer.write(response_bytes(204))
            elif request.method == "DELETE":
                store.delete(key)
                writer.write(response_bytes(204))
            else:
                writer.write(error_response(405, f"{request.method} not allowed"))
        except CacheUnavailable as exc:
            with self._metrics_lock:
                self._m_cache_api_errors.inc()
            writer.write(
                error_response(503, str(exc), extra_headers={"Retry-After": "1"})
            )
        except CacheCorruption as exc:
            with self._metrics_lock:
                self._m_cache_api_errors.inc()
            writer.write(
                json_response(
                    500, {"error": str(exc), "status": 500, "corruption": True}
                )
            )

    def _handle_submit(self, request: Request, writer: BinaryIO) -> None:
        if self._stopping or self.scheduler.draining:
            writer.write(
                error_response(
                    503, "service is draining", extra_headers={"Retry-After": "5"}
                )
            )
            return
        try:
            payload = request.json()
        except ValueError as exc:
            writer.write(error_response(400, f"invalid JSON body: {exc}"))
            return
        trace = parse_traceparent(request.header(TRACEPARENT_HEADER))
        try:
            job = self.submit_job(payload, trace=trace)
        except QueueFullError as exc:
            writer.write(
                error_response(
                    429,
                    str(exc),
                    extra_headers={
                        "Retry-After": str(max(int(exc.retry_after_s), 1))
                    },
                )
            )
            return
        except ServeError as exc:
            writer.write(error_response(400, str(exc)))
            return
        writer.write(
            json_response(
                202,
                {
                    **job.to_jsonable(),
                    "links": {
                        "self": f"/v1/jobs/{job.id}",
                        "result": f"/v1/jobs/{job.id}/result",
                        "events": f"/v1/jobs/{job.id}/events",
                    },
                },
            )
        )

    def _handle_events(self, request: Request, writer: BinaryIO, job: Job) -> None:
        """Stream the job's journal as SSE, resuming from Last-Event-ID."""
        after_raw = request.header("last-event-id") or request.query_one("after")
        after_seq = 0
        if after_raw is not None:
            try:
                after_seq = max(int(after_raw), 0)
            except ValueError:
                writer.write(error_response(400, f"bad Last-Event-ID {after_raw!r}"))
                return
        writer.write(sse_head())
        follower = JournalFollower(job.journal_path, after_seq=after_seq)
        while True:
            with self._state_lock:
                done = job.done
            events = follower.poll()
            if events:
                writer.write("".join(format_sse(e) for e in events).encode("utf-8"))
            if done and not events:
                break
            if self._stop.wait(0.05):
                break
        writer.write(b": stream complete\n\n")

    def stats(self) -> dict[str, Any]:
        """Scheduler depths plus aggregate engine/cache counters."""
        depths = self.scheduler.depths()
        engines = [engine for engine in self._slot_engines if engine is not None]
        with self._state_lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        payload = {
            "replica_id": self.replica_id,
            "scheduler": depths,
            "jobs_by_state": states,
            "engines": len(engines),
            "backend": str(self.cache_backend_spec),
            "draining": self._stopping,
        }
        # Network store tiers carry degrade/circuit telemetry; surface
        # every engine handle's snapshot so operators (and the chaos
        # harness) can see breaker transitions over the API.
        snapshots = []
        for engine in engines:
            backend = getattr(getattr(engine, "cache", None), "backend", None)
            snapshot = getattr(backend, "stats_snapshot", None)
            if callable(snapshot):
                with contextlib.suppress(Exception):
                    snapshots.append(snapshot())
        if snapshots:
            payload["store"] = snapshots
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def serve_forever(
        self, host: str = "127.0.0.1", port: int = 8023, install_signals: bool = True
    ) -> int:
        """Run until stopped; returns the process exit code.

        ``install_signals=True`` (the CLI path, main thread only) wires
        SIGINT/SIGTERM through a :class:`ShutdownCoordinator`: the first
        signal stops the listener and triggers a graceful drain —
        running jobs finish, queued jobs fail honestly — and the return
        value is ``128 + signum``.  A second signal (after the handlers
        are restored) escalates to immediate termination.
        """
        coordinator = None
        if install_signals:
            coordinator = ShutdownCoordinator().install()
        exit_code = 0
        try:
            with (
                _Listener(self, host, port) as server,
                selectors.DefaultSelector() as selector,
            ):
                self.host, self.port = server.server_address[:2]
                self._slots = [
                    threading.Thread(
                        target=self._slot, args=(i,), name=f"repro-serve-slot-{i}",
                        daemon=True,
                    )
                    for i in range(self.jobs)
                ]
                for thread in self._slots:
                    thread.start()
                selector.register(server, selectors.EVENT_READ)
                selector.register(self._woken, selectors.EVENT_READ)
                self._ready.set()
                while not self._stop.is_set():
                    if any(key.fileobj is server for key, _ in selector.select()):
                        server.handle_request()
        except RunInterrupted as exc:
            exit_code = exc.exit_code
            running = self.scheduler.depths()["running"]
            print(
                f"serve: {exc}; draining ({running} running jobs)...",
                file=sys.stderr,
            )
        finally:
            if coordinator is not None:
                coordinator.uninstall()
            self.drain()
        return exit_code

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to stop (thread-safe; tests and CLI)."""
        self._stop.set()
        with contextlib.suppress(OSError):  # closed once drained
            self._waker.send(b"\0")

    def wait_ready(self, timeout: float = 10.0) -> bool:
        return self._ready.wait(timeout)

    def drain(self) -> None:
        """Stop admissions, let running jobs finish, close the engines."""
        if self._drained:
            return
        self._drained = True
        self._stopping = True
        for job in self.scheduler.drain():
            with self._state_lock:
                if job.state == QUEUED:
                    job.state = FAILED
                    job.error = "service shut down before the job started"
                    job.finished_at = time.time()
        for thread in self._slots:
            thread.join()
        for i, engine in enumerate(self._slot_engines):
            self._slot_engines[i] = None
            if engine is not None:
                with contextlib.suppress(Exception):
                    engine.close()
        with self._store_lock:
            store, self._store = self._store, None
            journal, self._service_journal = self._service_journal, None
        if store is not None:
            with contextlib.suppress(Exception):
                store.close()
        if journal is not None:
            with contextlib.suppress(Exception):
                journal.close()
        self._woken.close()
        self._waker.close()
        self._update_gauges()

    def __enter__(self) -> "ExplorationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.drain()


class ServiceThread:
    """Run one service on a daemon thread (tests and the benchmark).

    Signals are not installed (not the main thread); stop with
    :meth:`stop`, which requests a shutdown and then drains.
    """

    def __init__(
        self,
        service: ExplorationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    def _run(self) -> None:
        self.service.serve_forever(self.host, self.port, install_signals=False)

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self.service.wait_ready(timeout=15):
            raise ServeError("service failed to start listening within 15s")
        return self

    @property
    def base_url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self, timeout: float = 60.0) -> None:
        self.service.request_stop()
        self._thread.join(timeout)
        self.service.drain()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

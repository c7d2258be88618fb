"""Job-slot worker processes: each serve slot runs its jobs in a process of its own.

A slot thread of :class:`~repro.serve.service.ExplorationService` keeps
the scheduling, job-state and metrics work; the job itself runs in a
:class:`SlotWorker`, a child interpreter that belongs to that slot.  So
two slots anneal on two interpreters (two GILs), not on one.

The worker opens its engine and store from the service's backend spec
(:func:`make_slot_engine`) at boot and keeps them for its lifetime.  Per
job it writes the job's journal, runs :func:`execute_job`, flushes the
store and sends back a :class:`JobOutcome`: the state, result, time,
engine/cache counter deltas and the backend's ``stats_snapshot()``.

How the process is started is a matter of correctness, not style:

* the ``spawn`` context, never ``fork``: a forked child inherits every
  descriptor the service holds open (listener sockets, other slots'
  pipes, a caller's subprocess pipes) and keeps them open;
* one ``Process`` per slot over a ``Pipe``: the worker exits when its
  parent dies, whether it waits in ``recv()`` (``EOFError``) or is
  mid-job (a watchdog on the parent's sentinel);
* the worker ignores SIGINT and SIGTERM, so a drain lets a running job
  finish; the parent hangs up its pipe before multiprocessing's exit
  hook joins its children, or an undrained worker would keep the
  parent's interpreter from exiting.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..engine import EvaluationEngine, ResultCache, RunJournal, make_backend
from ..engine.telemetry import TraceContext, activate_trace, mint_span_id
from ..errors import ReproError, ServeError
from .jobs import COMPLETED, FAILED, Job
from .runner import execute_job

_SPAWN = multiprocessing.get_context("spawn")

#: Seconds a closing worker gets to close its engine and exit.
CLOSE_TIMEOUT_S = 30.0

#: Engine counters attributed per job (delta of EngineMetrics.snapshot()).
ENGINE_DELTA_KEYS = (
    "evaluations",
    "cache_hits",
    "cache_misses",
    "retries",
    "timeouts",
    "pool_restarts",
    "quarantines",
)


def make_slot_engine(backend_spec: str | None) -> EvaluationEngine:
    """The serial engine a slot's worker runs its jobs on."""
    cache = None
    if backend_spec not in (None, "none"):
        backend = make_backend(backend_spec)
        # A slot's memory backend would be a private, unbounded dict
        # behind the LRU that nothing else reads: keep the LRU alone.
        cache = ResultCache(backend=backend if backend.persistent else None)
    return EvaluationEngine(jobs=1, cache=cache)


@dataclass
class JobOutcome:
    """What a worker sends home for one job."""

    error: str | None
    result: Any
    seconds: float
    deltas: dict[str, int]
    cache_deltas: dict[str, int]
    #: The store backend's ``stats_snapshot()`` (None if it keeps none).
    store: dict | None


def run_job(
    job: Job, engine: EvaluationEngine, replica_id: str, queue_wait: float
) -> JobOutcome:
    """Journal and run one job on ``engine``, and flush its store rows."""
    # Every journal line carries the distributed-trace identity: the
    # caller's trace id, the caller's span as parent, and which replica
    # wrote the line (the stitcher's correlation keys).
    span_id = mint_span_id()
    context: dict[str, Any] = {"replica_id": replica_id}
    if job.trace_id is not None:
        context["trace_id"] = job.trace_id
        context["parent_span_id"] = job.parent_span_id
    journal = RunJournal(job.journal_path, context=context)
    try:
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
        # Downstream calls (the http: store backend) inherit the trace
        # with this job's span as their parent.
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
            key: int(after[key]) - int(before[key]) for key in ENGINE_DELTA_KEYS
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
    finally:
        journal.detach()  # idempotent; also closes the file

    return JobOutcome(
        error, result, seconds, deltas, cache_deltas, store_snapshot(engine)
    )


def store_snapshot(engine: EvaluationEngine) -> dict | None:
    """The engine's store backend ``stats_snapshot()``, if it keeps one."""
    snapshot = getattr(getattr(engine.cache, "backend", None), "stats_snapshot", None)
    if callable(snapshot):
        with contextlib.suppress(Exception):
            return snapshot()
    return None


def _exit_with_parent() -> None:
    """Exit at once when the parent process dies, even mid-job."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _serve(conn, backend_spec: str | None, replica_id: str) -> None:
    """The worker's main: boot, then run jobs until the pipe closes.

    The boot reply is the store's :func:`store_snapshot` once the engine
    is open, or the repr of the error that stopped it opening (then the
    worker exits).  Each job is answered with a :class:`JobOutcome`, or
    with the repr of an exception that escaped :func:`run_job`.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        engine = make_slot_engine(backend_spec)
    except Exception as exc:  # noqa: BLE001 - reported to the slot
        conn.send(repr(exc))
        return
    try:
        conn.send(store_snapshot(engine))
        while True:
            try:
                job, queue_wait = conn.recv()
            except EOFError:
                return
            try:
                reply: JobOutcome | str = run_job(job, engine, replica_id, queue_wait)
            except Exception as exc:  # noqa: BLE001 - fails the job, not the worker
                reply = repr(exc)
            try:
                conn.send(reply)
            except OSError:  # the slot hung up mid-job
                return
    finally:
        engine.close()


class WorkerFailed(ServeError):
    """A slot's worker could not open its engine, failed a job or died."""


class SlotWorker:
    """One slot's worker process and the parent's end of its pipe.

    The constructor returns once the worker's engine is open, and raises
    :class:`WorkerFailed` if it cannot open (the worker has then exited).
    """

    def __init__(self, backend_spec: str | None, replica_id: str, name: str) -> None:
        self._conn, child = _SPAWN.Pipe()
        self.process = _SPAWN.Process(
            target=_serve, args=(child, backend_spec, replica_id), name=name, daemon=True
        )
        self.process.start()
        child.close()
        # Runs at close(), or at interpreter exit before multiprocessing
        # joins its children: the worker then sees EOF and exits.
        self._hang_up = multiprocessing.util.Finalize(
            self, self._conn.close, exitpriority=0
        )
        try:
            boot = self._receive()
        except WorkerFailed:
            self.close()
            raise
        if isinstance(boot, str):
            self.close()
            raise WorkerFailed(boot)
        #: The worker's latest :func:`store_snapshot` (at boot, then
        #: after each job).
        self.store: dict | None = boot

    def _receive(self) -> Any:
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            self.process.join(CLOSE_TIMEOUT_S)
            raise WorkerFailed(f"worker exited with {self.process.exitcode}") from None

    @property
    def alive(self) -> bool:
        return not self._conn.closed and self.process.is_alive()

    def run(self, job: Job, queue_wait: float) -> JobOutcome:
        """Run ``job`` in the worker and wait for its outcome."""
        try:
            self._conn.send((job, queue_wait))
        except OSError:
            pass  # the worker is gone; _receive reports how it exited
        outcome = self._receive()
        if isinstance(outcome, str):
            raise WorkerFailed(outcome)
        self.store = outcome.store
        return outcome

    def close(self) -> None:
        """Close the pipe and wait for the worker to close its engine."""
        if self._conn.closed:
            return
        self._hang_up()
        self.process.join(CLOSE_TIMEOUT_S)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.process.close()

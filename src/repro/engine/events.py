"""Progress and metrics hooks for the evaluation engine.

The engine announces what it is doing through a tiny synchronous
:class:`EventBus`; anything — the CLI's ``--stats`` printer, a test
asserting "zero simulator invocations", the durable run journal
(:class:`~repro.engine.telemetry.RunJournal`) — subscribes a callback.
The bus deliberately has no queue or thread: callbacks run inline on the
emitting thread, so subscribers see events in exact program order.

The full event vocabulary (every event name and its payload keys) is
documented in ``docs/observability.md``; the bus itself does not
restrict names.  A raising subscriber never aborts the emitting code:
its exception is swallowed, a warning is printed once per subscriber,
and delivery continues to the remaining subscribers.

Beyond flat events, the bus carries **hierarchical spans**:
:meth:`EventBus.phase` and :meth:`EventBus.span` bracket a code region
with start/end events that carry stable ``trace``/``span``/``parent``
identifiers, so a subscriber (the journal) can reconstruct the nesting
tree of a whole run — including per-task spans stitched in from worker
processes by the pool (see :mod:`repro.engine.telemetry`).

:class:`EngineMetrics` is the standard subscriber and the engine's only
fold from events to counters: it keeps evaluations, hit rate, per-phase
wall time and the rest in a :class:`~repro.engine.telemetry.MetricsRegistry`
that ``--stats``, ``--metrics-out``, ``repro trace summary`` and the TTY
heartbeat all read.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .telemetry import MetricsRegistry, mint_trace_id

Callback = Callable[[str, dict], Any]


class EventBus:
    """Synchronous publish/subscribe hub for engine progress events.

    The bus also owns the run's **trace context**: a ``trace_id`` naming
    this process's event stream and a stack of open spans.  Span
    identifiers are allocated in emission order (``s00001``, ``s00002``,
    ...), so they are stable for a given program order — two runs of the
    same deterministic computation produce the same span topology, and
    only timing fields differ.  ``tracing`` marks whether a durable
    subscriber (the run journal) wants fine-grained spans; the engine
    pool consults it before paying for worker-side span round-trips.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callback] = []
        self._warned: set[int] = set()
        self.trace_id = mint_trace_id()
        self.tracing = False
        self._span_stack: list[str] = []
        self._span_count = 0

    def subscribe(self, callback: Callback) -> Callback:
        """Register ``callback(event, payload)``; returns it for symmetry."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callback) -> None:
        """Remove a previously subscribed callback (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def emit(self, event: str, **payload: Any) -> None:
        """Deliver one event to every subscriber, in subscription order.

        Subscriber exceptions are isolated: a raising callback is warned
        about once (to stderr) and delivery continues — a sick stats
        printer or journal must never abort the engine mid-batch.
        """
        for callback in list(self._subscribers):
            try:
                callback(event, payload)
            except Exception as exc:
                marker = id(callback)
                if marker not in self._warned:
                    self._warned.add(marker)
                    print(
                        f"warning: event subscriber {callback!r} raised "
                        f"{type(exc).__name__}: {exc}; continuing without it "
                        "(warned once)",
                        file=sys.stderr,
                    )

    # -- spans ----------------------------------------------------------

    def next_span_id(self) -> str:
        """Allocate the next span identifier (stable in program order)."""
        self._span_count += 1
        return f"s{self._span_count:05d}"

    @property
    def current_span(self) -> str | None:
        """The innermost open span's id, or ``None`` outside all spans."""
        return self._span_stack[-1] if self._span_stack else None

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        _start_event: str = "span_start",
        _end_event: str = "span_end",
        **attrs: Any,
    ) -> Iterator[str]:
        """Bracket a code region as a hierarchical span.

        Emits ``span_start``/``span_end`` (payload: ``name``, ``span``,
        ``parent``, ``trace``, ``kind``, plus any ``attrs``; ``seconds``
        on end).  Nested spans parent automatically; yields the span id
        so callers can parent out-of-band work (worker tasks) under it.
        """
        span_id = self.next_span_id()
        parent = self.current_span
        self.emit(
            _start_event,
            name=name,
            span=span_id,
            parent=parent,
            trace=self.trace_id,
            kind=kind,
            **attrs,
        )
        self._span_stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self._span_stack.pop()
            self.emit(
                _end_event,
                name=name,
                span=span_id,
                parent=parent,
                trace=self.trace_id,
                kind=kind,
                seconds=time.perf_counter() - started,
                **attrs,
            )

    def phase(self, name: str):
        """Bracket a code region with ``phase_start``/``phase_end`` events.

        A phase is a span of kind ``"phase"`` that keeps its historical
        event names, so existing subscribers (metrics, run manifests)
        are untouched while the journal gains the span identifiers.
        """
        return self.span(
            name, kind="phase", _start_event="phase_start", _end_event="phase_end"
        )


#: ``(attribute, series, help)`` of every plain counter, in export order.
_COUNTERS = (
    ("evaluations", "repro_evaluations_total", "Fresh simulator invocations"),
    ("cache_hits", "repro_cache_hits_total", "Result-cache lookups served from cache"),
    ("cache_misses", "repro_cache_misses_total", "Result-cache lookups that simulated"),
    ("batches", "repro_batches_total", "evaluate_many batch dispatches"),
    ("retries", "repro_retries_total", "Evaluation retries"),
    (
        "timeouts",
        "repro_task_timeouts_total",
        "Tasks that overran the per-task deadline",
    ),
    ("pool_restarts", "repro_pool_restarts_total", "Worker-pool rebuilds"),
    ("searches", "repro_search_runs_total", "Design-space searches completed"),
    ("checkpoints", "repro_checkpoints_total", "Checkpoint saves"),
    ("fallbacks", "repro_fallbacks_total", "Serial fallbacks after the pool broke"),
    ("quarantines", "repro_quarantines_total", "Corrupt stored entries set aside"),
    (
        "storage_degradations",
        "repro_storage_degradations_total",
        "Storage tiers that went memory-only",
    ),
    ("lock_takeovers", "repro_lock_takeovers_total", "Stale run locks taken over"),
    (
        "search_evaluations",
        "repro_search_evaluations_total",
        "Evaluations requested by searches",
    ),
)


class _Reading:
    """Read-only attribute view of one registry series' value.

    ``evaluations = _Reading()`` on :class:`EngineMetrics` reads
    ``self._evaluations.value``; the registry stays the only store.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._series = "_" + name

    def __get__(self, metrics: Any, owner: type | None = None) -> Any:
        if metrics is None:
            return self
        return getattr(metrics, self._series).value


class EngineMetrics:
    """The engine's odometer: the one fold from bus events to metrics.

    Every counter and histogram lives in :attr:`registry`, so the
    ``--stats`` summary, the ``--metrics-out`` file, the journal replay
    of ``repro trace summary`` and the TTY heartbeat agree by
    construction.  ``evaluations`` counts *actual simulator invocations*
    (cache hits do not simulate, so they are excluded — this is the
    counter the redundancy tests assert on).  ``phase_seconds``
    accumulates wall time per named phase.
    """

    evaluations = _Reading()
    cache_hits = _Reading()
    cache_misses = _Reading()
    batches = _Reading()
    fallbacks = _Reading()
    checkpoints = _Reading()
    retries = _Reading()
    timeouts = _Reading()
    pool_restarts = _Reading()
    quarantines = _Reading()
    storage_degradations = _Reading()
    lock_takeovers = _Reading()
    searches = _Reading()
    search_evaluations = _Reading()
    search_plateau_max = _Reading()

    def __init__(self, bus: EventBus | None = None) -> None:
        self.bus = bus
        self.registry = r = MetricsRegistry()
        for attr, series, help in _COUNTERS:  # self._evaluations, ...
            setattr(self, "_" + attr, r.counter(series, help))
        self._search_plateau_max = r.gauge(
            "repro_search_plateau_max", "Longest plateau of any search"
        )
        self._batch_size = r.histogram(
            "repro_batch_size",
            "Pairs requested per evaluate_many batch",
            buckets=[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096],
        )
        self._task_seconds = r.histogram(
            "repro_task_seconds",
            "Wall time of one pooled map task, measured in its worker",
        )
        self._queue_wait = r.histogram(
            "repro_queue_wait_seconds",
            "Delay between map submission and task start in a worker",
        )
        self._phase_hist = r.histogram(
            "repro_phase_seconds", "Wall time per completed phase"
        )
        self._search_seconds = r.histogram(
            "repro_search_seconds", "Wall time per design-space search"
        )
        self._move_latency = r.histogram(
            "repro_search_move_latency_seconds",
            "Mean per-move latency of timed searches",
        )
        self._acceptance = r.histogram(
            "repro_search_acceptance_rate",
            "Acceptance rate per search",
            buckets=[i / 10 for i in range(1, 11)],
        )
        if bus is not None:
            bus.subscribe(self.on_event)

    def on_event(self, event: str, payload: dict) -> None:
        """Fold one event (a bus delivery or a replayed journal record)."""
        if event == "evaluation":
            self._evaluations.inc(payload.get("count", 1))
        elif event == "cache_hit":
            self._cache_hits.inc(payload.get("count", 1))
        elif event == "cache_miss":
            self._cache_misses.inc(payload.get("count", 1))
        elif event == "batch":
            self._batches.inc()
            self._batch_size.observe(payload.get("size", 0))
        elif event == "fallback":
            self._fallbacks.inc()
        elif event == "checkpoint":
            self._checkpoints.inc()
        elif event == "retry":
            self._retries.inc()
        elif event == "task_timeout":
            self._timeouts.inc()
        elif event == "pool_restart":
            self._pool_restarts.inc()
        elif event == "quarantine":
            self._quarantines.inc()
        elif event == "storage_degraded":
            self._storage_degradations.inc()
        elif event == "lock_takeover":
            self._lock_takeovers.inc()
        elif event == "task_span":
            seconds = payload.get("seconds")
            if seconds is not None:
                self._task_seconds.observe(seconds)
            wait = payload.get("queue_wait_s")
            if wait is not None:
                self._queue_wait.observe(max(float(wait), 0.0))
        elif event == "search_run":
            self._searches.inc()
            self._search_evaluations.inc(payload.get("evaluations", 0))
            self._search_plateau_max.set(
                max(self._search_plateau_max.value, payload.get("plateau", 0))
            )
            self._acceptance.observe(payload.get("acceptance_rate", 0.0))
            self.registry.counter(
                "repro_strategy_runs_total",
                "Design-space searches completed, per strategy",
                labels={"strategy": payload.get("strategy", "?")},
            ).inc()
            self._observe_search_time(payload)
        elif event == "strategy_timing":
            self._observe_search_time(payload)
        elif event == "phase_end":
            seconds = payload.get("seconds", 0.0)
            self._phase_hist.observe(seconds)
            self.registry.counter(
                "repro_phase_wall_seconds_total",
                "Wall time per named phase",
                labels={"phase": payload.get("name", "?")},
            ).inc(seconds)

    def _observe_search_time(self, payload: dict) -> None:
        seconds = payload.get("seconds")
        if seconds is not None:
            self._search_seconds.observe(seconds)
            moves = max(int(payload.get("moves", 0) or 0), 1)
            self._move_latency.observe(seconds / moves)

    def _labelled(self, name: str, label: str) -> dict[str, Any]:
        """``{label value: value}`` of one labelled family, in first-seen order."""
        return {
            metric.labels[label]: metric.value
            for metric in self.registry
            if metric.name == name
        }

    @property
    def searches_by_strategy(self) -> dict[str, int]:
        """Completed searches per strategy name."""
        return self._labelled("repro_strategy_runs_total", "strategy")

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Accumulated wall time per named phase."""
        return self._labelled("repro_phase_wall_seconds_total", "phase")

    @property
    def lookups(self) -> int:
        """Total cache lookups observed."""
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served from cache (0 when none)."""
        total = self.lookups
        return self.cache_hits / total if total else 0.0

    @property
    def mean_acceptance_rate(self) -> float:
        """Mean per-search acceptance rate (0 when no searches ran)."""
        return self._acceptance.sum / self.searches if self.searches else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of every counter (for before/after deltas)."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "batches": self.batches,
            "fallbacks": self.fallbacks,
            "checkpoints": self.checkpoints,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "quarantines": self.quarantines,
            "storage_degradations": self.storage_degradations,
            "lock_takeovers": self.lock_takeovers,
            "searches": self.searches,
            "search_evaluations": self.search_evaluations,
            "search_plateau_max": self.search_plateau_max,
            "mean_acceptance_rate": self.mean_acceptance_rate,
            "searches_by_strategy": self.searches_by_strategy,
            "phase_seconds": self.phase_seconds,
        }

    def summary(self) -> str:
        """Human-readable one-stop summary for the CLI's ``--stats``."""
        lines = [
            f"evaluations: {self.evaluations} simulated, "
            f"{self.cache_hits} cache hits "
            f"({self.hit_rate * 100:.1f}% hit rate over {self.lookups} lookups)",
        ]
        if self.searches:
            by_strategy = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.searches_by_strategy.items())
            )
            lines.append(
                f"searches: {self.searches} runs ({by_strategy}), "
                f"{self.search_evaluations} search evaluations, "
                f"mean acceptance {self.mean_acceptance_rate * 100:.1f}%, "
                f"longest plateau {self.search_plateau_max}"
            )
        # Hottest phase first: sorted descending by wall time (ties by
        # name) so the line that matters leads, not insertion order.
        for name, seconds in sorted(
            self.phase_seconds.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"phase {name}: {seconds:.2f}s")
        if self.fallbacks:
            lines.append(f"serial fallbacks: {self.fallbacks}")
        if self.retries or self.timeouts or self.pool_restarts or self.quarantines:
            lines.append(
                f"resilience: {self.retries} retries, {self.timeouts} timeouts, "
                f"{self.pool_restarts} pool restarts, "
                f"{self.quarantines} quarantined"
            )
        if self.storage_degradations or self.lock_takeovers:
            lines.append(
                f"durability: {self.storage_degradations} storage degradations, "
                f"{self.lock_takeovers} lock takeovers"
            )
        return "\n".join(lines)

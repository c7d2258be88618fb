"""The evaluation engine: cache-aware batch evaluation, parallel ``map``.

:class:`EvaluationEngine` is the single funnel through which exploration
and characterization code runs simulations.  It layers, in order:

1. **content-addressed caching** — every request is keyed by
   :func:`repro.engine.keys.evaluation_key`; hits skip the simulator
   entirely and are bit-identical to a fresh evaluation
   (:meth:`~EvaluationEngine.simulate_many` skips this layer for pairs
   that do not recur, such as sampled design points);
2. **batch deduplication** — :meth:`evaluate_many` simulates each
   distinct (workload, configuration) pair at most once per batch, no
   matter how often the batch repeats it (the Table-5 matrix fill
   overlaps heavily with cross-seeding);
3. **in-process batch simulation** — misses go through the simulator's
   vectorized batch path, and every result passes integrity validation;
   a violation raises at once, because a deterministic simulator would
   fail the same way on every retry;
4. **process parallelism at map granularity** — :meth:`map` runs
   coarse tasks (one search per workload, one restart, one sweep point)
   across ``jobs`` worker processes — the one place work can fail
   without the code being wrong — with per-task timeouts, retries under
   the engine's :class:`~repro.engine.resilience.RetryPolicy` (bounded
   exponential backoff, deterministic jitter), pool restarts up to the
   policy's budget, and a permanent fallback to serial execution beyond it.

Single evaluations never go to the pool: a batched interval-model
evaluation costs about as much as pickling its result back from a
worker, so per-pair dispatch loses at every worker count
(``docs/engine.md``).

Results are deterministic by construction: caching returns the exact
stored result, batches and maps preserve request order, and the work
itself is deterministic — so ``jobs=1`` and ``jobs=N`` produce
bit-identical outputs, *including* under retries, pool restarts and
injected faults (a retried task re-runs the same deterministic code).

Fault injection (:class:`~repro.engine.faults.FaultPlan`, the
``faults=`` parameter) exists to *test* the pooled map layer, and so
needs an engine with more than one worker: see ``docs/resilience.md``.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..errors import EngineError
from ..sim.interval_batch import BatchIntervalModel
from ..sim.metrics import SimResult
from ..workloads.profile import WorkloadProfile
from .cache import ResultCache
from .events import EngineMetrics, EventBus
from .faults import FaultPlan, InjectedFault, enact
from .keys import digest, finish_key, key_prefix, key_suffix, simulator_id
from .resilience import RetryPolicy, failure_reason, validate_result

T = TypeVar("T")
U = TypeVar("U")

Pair = tuple[WorkloadProfile, Any]

#: Sentinel distinguishing "default cache" from "explicitly no cache".
_DEFAULT_CACHE = object()


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def _is_broken_pool(exc: BaseException) -> bool:
    return type(exc).__name__ == "BrokenProcessPool"


def _simulate_pairs(sim: Any, pairs: Sequence[Pair]) -> list[SimResult]:
    """Simulate pairs through the simulator's batch path when it has one.

    Pairs are grouped by profile (first-seen order) and each group goes
    through ``evaluate_batch`` in one call; results come back in input
    order.  Simulators without a batch path — and unbatchable inputs
    (single pair, unhashable profile subtype) — take the plain scalar
    loop.
    """
    evaluate_batch = getattr(sim, "evaluate_batch", None)
    if evaluate_batch is None or len(pairs) < 2:
        return [sim.evaluate(profile, config) for profile, config in pairs]
    # Group by object identity first: hashing a profile walks all of its
    # fields, and a batch repeats a few profile objects many times.
    by_id: dict[int, tuple[Any, list[int]]] = {}
    for i, (profile, _) in enumerate(pairs):
        by_id.setdefault(id(profile), (profile, []))[1].append(i)
    # Then merge distinct objects that compare equal.
    groups: dict[Any, list[int]] = {}
    try:
        for profile, indices in by_id.values():
            groups.setdefault(profile, []).extend(indices)
    except TypeError:  # unhashable profile subtype
        return [sim.evaluate(profile, config) for profile, config in pairs]
    results: list[SimResult | None] = [None] * len(pairs)
    for profile, indices in groups.items():
        indices.sort()  # merged groups interleave; batch in input order
        batch = evaluate_batch(profile, [pairs[i][1] for i in indices])
        for i, result in zip(indices, batch):
            results[i] = result
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# worker-process plumbing (module level: must be picklable by name)
# ----------------------------------------------------------------------


def _map_key(index: int) -> str:
    """The retry/backoff/fault key of map task ``index``."""
    return f"map:{index}"


def _map_call(
    payload: tuple[Callable, Any, str, int, FaultPlan | None, float],
) -> tuple[Any, dict]:
    """Run one :meth:`EvaluationEngine.map` task in a pool worker.

    The engine's fault plan (if any) is enacted first, for this task's
    key and attempt: a hard crash really kills the worker and a hang
    really overruns the parent's deadline.

    Workers cannot reach the parent's bus, so the task returns
    ``(value, record)`` and the parent emits the ``task_span`` event —
    with span ids allocated parent-side in harvest order, so trace
    topology stays deterministic.  ``queue_wait_s`` compares two wall
    clocks on the same machine (submit in parent, start in worker),
    which is exactly the pool's dispatch latency.  A failing attempt
    raises before any record exists; the parent's ``retry`` event
    covers it.
    """
    fn, item, key, attempt, plan, submit_ts = payload
    start_ts = time.time()
    t0 = time.perf_counter()
    if plan is not None:
        enact(plan, key, attempt)
    value = fn(item)
    return value, {
        "worker_pid": os.getpid(),
        "start_ts": start_ts,
        "seconds": time.perf_counter() - t0,
        "queue_wait_s": max(start_ts - submit_ts, 0.0),
    }


class EvaluationEngine:
    """Shared runtime for all (workload, configuration) evaluations.

    Parameters
    ----------
    simulator:
        Evaluator with ``evaluate(profile, config) -> SimResult`` (and
        optionally ``evaluate_batch``); defaults to the vectorized
        interval model.  Evaluations always run in-process.
    jobs:
        Worker processes for :meth:`map` — whole per-workload searches,
        restarts and sweep points — bounded by :func:`available_cpus`
        (oversubscribing a small container would only add dispatch
        overhead).  The requested ``jobs`` is kept as intent;
        ``workers`` is what runs.  ``1`` (the default) stays fully
        serial.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely;
        by default an in-memory cache is created.
    events:
        An :class:`EventBus` to emit progress on; a fresh bus (with an
        attached :class:`EngineMetrics`) is created by default.
    context:
        Extra identity folded into every cache key — pass the technology
        node so caches shared across technologies cannot collide.
    policy:
        The :class:`~repro.engine.resilience.RetryPolicy` governing
        retries, per-task timeouts, backoff and pool restarts; defaults
        to ``RetryPolicy()`` (retries on, no timeout).
    faults:
        Optional :class:`~repro.engine.faults.FaultPlan` injecting
        deterministic failures into pooled :meth:`map` tasks
        (testing/chaos runs only; results remain bit-identical to a
        fault-free run).  An active plan needs a pool: it raises
        :class:`~repro.errors.EngineError` when ``workers`` is 1.
    """

    def __init__(
        self,
        simulator: Any = None,
        jobs: int = 1,
        cache: ResultCache | None | object = _DEFAULT_CACHE,
        events: EventBus | None = None,
        context: Any = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        # The default simulator is the vectorized batch model: scalar
        # calls are inherited unchanged, batches hit the array path, and
        # its shared cache identity keeps keys interoperable with plain
        # IntervalSimulator results.
        self.simulator = simulator if simulator is not None else BatchIntervalModel()
        self.jobs = jobs
        self.workers = min(jobs, available_cpus())
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults if faults is not None and faults.active else None
        if self.faults is not None and self.workers == 1:
            raise EngineError(
                "fault injection acts on pooled map tasks and needs a pool, "
                f"but this engine has 1 worker (jobs={jobs}, "
                f"{available_cpus()} CPU(s) available)"
            )
        self.events = events or EventBus()
        self.metrics = EngineMetrics(self.events)
        self.attach_cache(
            ResultCache(path=None) if cache is _DEFAULT_CACHE else cache  # type: ignore[arg-type]
        )
        self._simulator_id = simulator_id(self.simulator)
        self._context_digest = "" if context is None else digest(context)
        self._context_bound = context is not None
        self._reset_key_state()
        self._executor: ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._pool_deaths = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def bind_context(self, context: Any) -> None:
        """Fold ``context`` (e.g. the technology node) into cache keys.

        Only the first binding takes effect; later calls with different
        content raise, because silently re-keying a warm cache would make
        earlier entries unreachable.
        """
        new = digest(context)
        if self._context_bound and new != self._context_digest:
            raise EngineError("engine context is already bound to different content")
        self._context_digest = new
        self._context_bound = True
        self._reset_key_state()

    @property
    def context_bound(self) -> bool:
        return self._context_bound

    @property
    def mode(self) -> str:
        """``"pool"`` while worker parallelism is live, else ``"serial"``."""
        return "pool" if self.workers > 1 and not self._pool_broken else "serial"

    def key_for(self, profile: WorkloadProfile, config: Any) -> str:
        """The cache key this engine uses for one evaluation.

        Equal to ``evaluation_key(profile, config, simulator=..., context=...)``
        with this engine's identity strings.  The last profile's key
        prefix is kept, matched by identity, so a run of keys for one
        profile object never re-encodes or re-hashes the profile.
        """
        kept = self._kept_prefix
        if kept is None or kept[0] is not profile:
            kept = self._kept_prefix = (profile, key_prefix(profile))
        return finish_key(kept[1], config, self._key_suffix)

    def _reset_key_state(self) -> None:
        """Recompute the key suffix and drop the kept profile prefix."""
        self._key_suffix = key_suffix(self._simulator_id, self._context_digest)
        self._kept_prefix: tuple[Any, Any] | None = None

    def phase(self, name: str):
        """Context manager timing a named phase (see :mod:`.events`)."""
        return self.events.phase(name)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, profile: WorkloadProfile, config: Any) -> SimResult:
        """One cache-aware, validated evaluation (always in-process)."""
        if self.cache is None:
            result = validate_result(profile, self.simulator.evaluate(profile, config))
            self.events.emit("evaluation", count=1)
            return result
        key = self.key_for(profile, config)
        hit = self.cache.get(key)
        if hit is not None:
            self.events.emit("cache_hit", count=1)
            return hit
        self.events.emit("cache_miss", count=1)
        result = validate_result(profile, self.simulator.evaluate(profile, config))
        self.events.emit("evaluation", count=1)
        self.cache.put(key, result)
        return result

    def evaluate_many(self, pairs: Sequence[Pair]) -> list[SimResult]:
        """Evaluate a batch, dedup'd against the cache and within itself.

        Returns one result per input pair, in input order.  Each distinct
        (workload, configuration) content is simulated at most once, in
        this process, through the simulator's batch path.  Without a
        cache this is :meth:`simulate_many`.
        """
        run = self._simulate_many if self.cache is None else self._evaluate_many
        return self._batch(run, pairs)

    def simulate_many(self, pairs: Sequence[Pair]) -> list[SimResult]:
        """Simulate a batch without touching the cache: no lookups, no
        stores and no keys.

        For batches whose pairs are not expected to recur (sampled
        design points).  Results are validated and
        ``evaluation``/``batch`` events emitted exactly as on an
        engine with ``cache=None``, which takes this same path.
        """
        return self._batch(self._simulate_many, pairs)

    def _batch(
        self, run: Callable[[list[Pair]], list[SimResult]], pairs: Sequence[Pair]
    ) -> list[SimResult]:
        pairs = list(pairs)
        if not pairs:
            return []
        if self.events.tracing:
            with self.events.span("batch", kind="batch", size=len(pairs)):
                return run(pairs)
        return run(pairs)

    def _simulate_many(self, pairs: list[Pair]) -> list[SimResult]:
        results = self._simulate(pairs)
        self.events.emit("evaluation", count=len(pairs))
        self.events.emit("batch", size=len(pairs), unique=len(pairs), hits=0)
        return results

    def _evaluate_many(self, pairs: list[Pair]) -> list[SimResult]:
        keys = [self.key_for(profile, config) for profile, config in pairs]
        resolved: dict[str, SimResult] = {}
        missing: dict[str, Pair] = {}
        hits = 0
        for key, pair in zip(keys, pairs):
            if key in resolved or key in missing:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                resolved[key] = cached
                hits += 1
            else:
                missing[key] = pair
        if hits:
            self.events.emit("cache_hit", count=hits)
        if missing:
            self.events.emit("cache_miss", count=len(missing))
            fresh = self._simulate(list(missing.values()))
            self.events.emit("evaluation", count=len(fresh))
            for key, result in zip(missing, fresh):
                self.cache.put(key, result)
                resolved[key] = result
        self.events.emit(
            "batch", size=len(pairs), unique=len(missing), hits=len(pairs) - len(missing)
        )
        return [resolved[key] for key in keys]

    def map(self, fn: Callable[[T], U], items: Iterable[T]) -> list[U]:
        """Apply ``fn`` to every item, in order, across the worker pool.

        ``fn`` must be a module-level (picklable) callable for parallel
        execution; anything unpicklable degrades to an in-process loop
        (announced via a ``fallback`` event), never to an error.  Under
        the pool, a task that fails (an injected fault), breaks its
        worker or overruns the policy's ``timeout_s`` is retried with
        backoff, on a rebuilt pool when the old one died; exceptions
        raised by ``fn`` itself, of any type, propagate to the caller
        and leave the pool in place.
        """
        items = list(items)
        if self.workers == 1 or len(items) < 2 or not self._picklable(fn, items):
            return [fn(item) for item in items]
        with self._interrupt_guard():
            return self._map_pooled(fn, items)

    def _map_pooled(self, fn: Callable[[T], U], items: list[T]) -> list[U]:
        n = len(items)
        results: dict[int, U] = {}
        attempts = [0] * n
        pending = list(range(n))
        while pending:
            executor = self._ensure_executor()
            if executor is None:
                for i in pending:
                    results[i] = fn(items[i])
                break
            submit_ts = time.time()
            futures = self._submit_all(
                executor,
                [
                    (i, (fn, items[i], _map_key(i), attempts[i], self.faults, submit_ts))
                    for i in pending
                ],
            )
            if futures is None:
                continue

            def accept(i: int, outcome: tuple[U, dict]) -> None:
                value, record = outcome
                if self.events.tracing:
                    # Harvested in submission order, so span ids and
                    # parentage match across runs; only timings vary.
                    self.events.emit(
                        "task_span",
                        name="map",
                        span=self.events.next_span_id(),
                        parent=self.events.current_span,
                        trace=self.events.trace_id,
                        key=_map_key(i),
                        attempt=attempts[i],
                        **record,
                    )
                results[i] = value

            failed, pool_death = self._collect(futures, accept)
            pending = self._account_failures(failed, attempts)
            if pool_death is not None:
                self._note_pool_death(pool_death)
        return [results[i] for i in range(n)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @contextmanager
    def _interrupt_guard(self) -> Iterator[None]:
        """Never leak worker processes to an interrupt.

        A ``KeyboardInterrupt``/``SIGTERM`` (or any other non-``Exception``
        escape: ``SystemExit``, a run-orchestration interrupt) landing
        mid-map would otherwise unwind past ``close()``, leaving worker
        children alive and buffered cache writes unflushed.  Ordinary
        :class:`Exception` propagation is untouched — the engine stays
        usable after a task error.
        """
        try:
            yield
        except BaseException as exc:
            if not isinstance(exc, Exception):
                self.terminate()
            raise

    def _simulate(self, pairs: Sequence[Pair]) -> list[SimResult]:
        """Simulate pairs in-process, order-preserving, and validate each.

        More than one pair takes the batch path (one vectorized call per
        profile group).  A result failing validation raises
        :class:`~repro.engine.resilience.ResultIntegrityError` at once:
        the simulator is deterministic, so a retry would fail the same way.
        """
        results = _simulate_pairs(self.simulator, pairs)
        for (profile, _), result in zip(pairs, results):
            validate_result(profile, result)
        return results

    def _submit_all(
        self, executor: ProcessPoolExecutor, work: Sequence[tuple[int, tuple]]
    ) -> list[tuple[int, Any]] | None:
        """Submit every ``(index, payload)`` map task; ``None`` if the pool died.

        A pool can break *between* rounds (a worker segfaults while
        idle), in which case ``submit`` itself raises — that counts as
        one pool death and the caller simply re-enters its round loop.
        """
        futures: list[tuple[int, Any]] = []
        try:
            for i, payload in work:
                futures.append((i, executor.submit(_map_call, payload)))
        except Exception as exc:
            if not _is_broken_pool(exc):
                self._shutdown_executor(cancel=True)
                raise
            self._note_pool_death(f"worker pool broke on submit ({exc})")
            return None
        return futures

    def _collect(
        self,
        futures: Sequence[tuple[int, Any]],
        accept: Callable[[int, Any], None],
    ) -> tuple[list[tuple[int, BaseException]], str | None]:
        """Harvest futures in order; sort outcomes into accepted/failed.

        Returns ``(failed, pool_death_reason)``.  After the pool is
        condemned (first timeout or break), remaining futures are only
        harvested if already done — nothing waits on a suspect pool.
        Any other exception is the task's own and propagates.
        """
        failed: list[tuple[int, BaseException]] = []
        pool_death: str | None = None
        for i, fut in futures:
            if pool_death is not None and not fut.done():
                fut.cancel()
                failed.append((i, RuntimeError("abandoned after pool death")))
                continue
            try:
                accept(i, fut.result(timeout=self.policy.timeout_s))
            except InjectedFault as exc:
                failed.append((i, exc))
            except FuturesTimeout as exc:
                self.events.emit(
                    "task_timeout", key=_map_key(i), timeout_s=self.policy.timeout_s
                )
                failed.append((i, exc))
                pool_death = (
                    f"task exceeded {self.policy.timeout_s}s deadline (hung worker)"
                )
            except Exception as exc:
                if not _is_broken_pool(exc):
                    self._shutdown_executor(cancel=True)
                    raise
                failed.append((i, exc))
                pool_death = f"worker pool broke ({exc})"
        return failed, pool_death

    def _account_failures(
        self, failed: Sequence[tuple[int, BaseException]], attempts: list[int]
    ) -> list[int]:
        """Bump attempt counts, emit retry events, sleep one backoff.

        Backoff is applied once per retry round (the longest delay among
        the round's failures) rather than serially per task, so a wide
        map does not stack sleeps.
        """
        still_pending: list[int] = []
        worst_delay = 0.0
        for i, exc in failed:
            key = _map_key(i)
            attempts[i] += 1
            if attempts[i] > self.policy.max_retries:
                self._shutdown_executor(cancel=True)
                raise EngineError(
                    f"task {key} still failing after {attempts[i]} attempts: {exc}"
                ) from exc
            delay = self.policy.delay_s(key, attempts[i])
            worst_delay = max(worst_delay, delay)
            self.events.emit(
                "retry",
                key=key,
                attempt=attempts[i],
                reason=failure_reason(exc),
                delay_s=delay,
            )
            still_pending.append(i)
        if worst_delay > 0:
            time.sleep(worst_delay)
        return still_pending

    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        if self._pool_broken:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ValueError) as exc:
                self._fall_back(f"cannot start worker pool ({exc})")
                return None
        return self._executor

    def _picklable(self, fn: Any, items: Any) -> bool:
        try:
            pickle.dumps((fn, items))
            return True
        except Exception as exc:
            self._fall_back(f"work is not picklable ({exc})")
            return False

    def _shutdown_executor(self, cancel: bool = False) -> None:
        """Tear down the current pool (keeping the engine usable)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=not cancel, cancel_futures=cancel)
            except Exception:
                pass

    def _note_pool_death(self, reason: str) -> None:
        """One pool death: rebuild within budget, degrade to serial past it."""
        self._shutdown_executor(cancel=True)
        self._pool_deaths += 1
        if self._pool_deaths > self.policy.pool_restarts:
            self._fall_back(
                f"{reason}; restart budget ({self.policy.pool_restarts}) spent"
            )
            return
        self.events.emit("pool_restart", deaths=self._pool_deaths, reason=reason)

    def _fall_back(self, reason: str) -> None:
        """Degrade permanently to serial execution (never an error).

        The engine stops *claiming* pool mode too: ``workers`` drops to
        1 so later maps take the serial path directly instead of
        re-discovering the broken pool.
        """
        self._pool_broken = True
        self.workers = 1
        self._shutdown_executor(cancel=True)
        self.events.emit("fallback", reason=reason)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool and flush the cache to disk.

        Safe to call in any state — including after an exception escaped
        mid-``map`` or the pool broke: outstanding futures are
        cancelled rather than waited on, so close never hangs on a sick
        pool.
        """
        self._shutdown_executor(cancel=self._pool_broken or self._pool_deaths > 0)
        if self.cache is not None:
            self.cache.flush()

    def terminate(self) -> None:
        """Forcibly stop the pool *now*: kill children, flush the cache.

        The interrupt/shutdown path.  Where :meth:`close` shuts down
        politely, ``terminate`` cancels queued work, SIGTERMs the worker
        processes (a cancelled future does not stop a task already
        running), and flushes buffered cache writes so completed work
        survives the exit.  Idempotent and never raises; the engine
        remains usable (a later map would build a fresh pool).
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            # Grab the children before shutdown forgets them.  The
            # process table is a private attribute, so guard against
            # future stdlib changes — leaking on an unknown Python is
            # acceptable, crashing the shutdown path is not.
            table = getattr(executor, "_processes", None)
            processes = list(table.values()) if isinstance(table, dict) else []
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass
        if self.cache is not None:
            try:
                self.cache.flush()
            except Exception:
                pass

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # A pickled engine (shipped inside a task to a worker process) wakes
    # up serial, with a fresh private memory cache and bus: workers must
    # not spawn nested pools, share SQLite handles, or carry the parent's
    # subscribers.  The retry policy travels with it; the fault plan does
    # not, because the parent already enacts it on the whole map task — a
    # nested hang would otherwise overrun the task's deadline on every
    # attempt.
    def __getstate__(self) -> dict:
        return {
            "simulator": self.simulator,
            "context_digest": self._context_digest,
            "context_bound": self._context_bound,
            "policy": self.policy,
        }

    def __setstate__(self, state: dict) -> None:
        self.simulator = state["simulator"]
        self.jobs = 1
        self.workers = 1
        self.policy = state.get("policy") or RetryPolicy()
        self.faults = None
        self.events = EventBus()
        self.metrics = EngineMetrics(self.events)
        self.attach_cache(ResultCache(path=None))
        self._simulator_id = simulator_id(self.simulator)
        self._context_digest = state["context_digest"]
        self._context_bound = state["context_bound"]
        self._reset_key_state()  # a hashlib state does not pickle
        self._executor = None
        self._pool_broken = False
        self._pool_deaths = 0

    def attach_cache(self, cache: ResultCache | None) -> None:
        """Evaluate through ``cache`` (``None`` disables caching), with its
        quarantine and degrade notices on this engine's bus."""
        self.cache = cache
        if cache is not None:
            cache.on_quarantine = self._on_cache_quarantine
            cache.on_degrade = self._on_cache_degrade

    def _on_cache_quarantine(self, key: str, reason: str) -> None:
        self.events.emit("quarantine", tier="cache", key=key, reason=reason)

    def _on_cache_degrade(self, reason: str) -> None:
        self.events.emit("storage_degraded", tier="cache", reason=reason)

"""Per-layer tracing for the traced run, from outside the program.

:class:`LayerTracer` replaces public functions of each layer with timing
wrappers while it is installed, and puts the originals back on
:meth:`LayerTracer.restore`.  Times are inclusive; a layer re-entered
from inside itself is timed once, at its outermost call.  Work done
inside the *entry* calls (``XpScalar.customize_all``/``customize``,
``ParetoExplorer.fronts``) but outside every other layer is their self
time, ``explore.xpscalar.self_s``.

State is kept per thread (the serve workload runs jobs on executor
threads) and merged when the metrics are read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

ENTRY = "entry"


@dataclass
class LayerStat:
    calls: int = 0
    raised: int = 0
    seconds: float = 0.0
    #: Layer-specific tally: cache hits for ``cache.get``, configs for
    #: ``evaluate_batch``.
    tally: int = 0
    durations: list[float] = field(default_factory=list)

    def merge(self, other: "LayerStat") -> None:
        self.calls += other.calls
        self.raised += other.raised
        self.seconds += other.seconds
        self.tally += other.tally
        self.durations.extend(other.durations)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[str] = []
        self.stats: dict[str, LayerStat] = {}
        #: Time inside non-entry layers while an entry call is active.
        self.covered = 0.0


def _hit(result: Any, args: tuple) -> int:
    return result is not None


def _batch_size(result: Any, args: tuple) -> int:
    return len(args[2])


class LayerTracer:
    """Install timing wrappers on the program's layers; restore them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self.cacti_models: list[Any] = []

    # -- wrapping -------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._threads_lock:
                self._threads.append(state)
        return state

    def _wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        tally: Callable[[Any, tuple], int] | None = None,
        keep_durations: bool = False,
    ) -> None:
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            stat = state.stats.get(layer)
            if stat is None:
                stat = state.stats[layer] = LayerStat()
            outermost = layer not in state.stack
            state.stack.append(layer)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            else:
                if tally is not None:
                    stat.tally += tally(result, args)
                return result
            finally:
                elapsed = time.perf_counter() - started
                state.stack.pop()
                stat.calls += 1
                if outermost:
                    stat.seconds += elapsed
                    if keep_durations:
                        stat.durations.append(elapsed)
                if (
                    layer != ENTRY
                    and ENTRY in state.stack
                    and all(name == ENTRY for name in state.stack)
                ):
                    state.covered += elapsed

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "LayerTracer":
        """Wrap every traced layer (idempotent only via restore)."""
        from repro.design import constraints, pareto
        from repro.engine import cache, cache_backends, checkpoint, events, pool, telemetry
        from repro.explore import moves, xpscalar
        from repro.serve import client
        from repro.sim import interval, interval_batch
        from repro.tech import cacti

        if self._saved:
            raise RuntimeError("tracer already installed")
        self._wrap(xpscalar.XpScalar, "customize_all", ENTRY)
        self._wrap(xpscalar.XpScalar, "customize", ENTRY)
        self._wrap(pareto.ParetoExplorer, "fronts", ENTRY)
        self._wrap(moves.MoveGenerator, "propose", "explore.moves.propose")
        self._wrap(pool.EvaluationEngine, "key_for", "engine.keys.key")
        self._wrap(cache.ResultCache, "get", "engine.cache.get", tally=_hit)
        self._wrap(cache.ResultCache, "put", "engine.cache.put")
        for backend in _backend_classes(cache_backends.CacheBackend):
            for op in ("get", "put"):
                if op in backend.__dict__:
                    self._wrap(backend, op, f"engine.cache_backends.{op}")
        self._wrap(interval.IntervalSimulator, "evaluate", "sim.interval.evaluate")
        self._wrap(
            interval_batch.BatchIntervalModel,
            "evaluate_batch",
            "sim.interval_batch.evaluate_batch",
            tally=_batch_size,
        )
        self._wrap(constraints.ConstraintSet, "measure", "design.constraints.measure")
        self._wrap(pareto, "pareto_filter", "design.pareto.filter")
        self._wrap(pareto, "sample_design_space", "design.pareto.sample")
        self._wrap(events.EventBus, "emit", "engine.events.emit")
        self._wrap(checkpoint.CheckpointManager, "save", "engine.checkpoint.save")
        self._wrap(telemetry.RunJournal, "append", "engine.telemetry.journal")
        self._wrap(client.ServeClient, "submit", "serve.client.submit", keep_durations=True)
        self._wrap(client.ServeClient, "status", "serve.client.status")

        # CACTI memo counters live on model instances: collect each
        # model built while installed and read its counters at the end.
        models = self.cacti_models
        original_init = cacti.CactiModel.__dict__["__init__"]

        def init(model: Any, *args: Any, **kwargs: Any) -> None:
            original_init(model, *args, **kwargs)
            models.append(model)

        self._saved.append((cacti.CactiModel, "__init__", original_init))
        cacti.CactiModel.__init__ = init
        return self

    def restore(self) -> None:
        """Put every original back, in reverse order of wrapping."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # -- reading --------------------------------------------------------

    def stats(self) -> dict[str, LayerStat]:
        """Per-layer totals over every thread."""
        merged: dict[str, LayerStat] = {}
        with self._threads_lock:
            threads = list(self._threads)
        for state in threads:
            for layer, stat in state.stats.items():
                merged.setdefault(layer, LayerStat()).merge(stat)
        return merged

    def covered_seconds(self) -> float:
        with self._threads_lock:
            return sum(state.covered for state in self._threads)


def _backend_classes(base: type) -> list[type]:
    found: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found

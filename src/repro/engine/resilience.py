"""Retry, timeout and integrity policy for the evaluation engine.

The process pool in :mod:`repro.engine.pool` gives the exploration
speed; this module gives it *survival*.  A production-scale run — the
ROADMAP's "three weeks of annealing, millions of evaluations" regime —
will see workers die, tasks wedge, and on-disk state rot.  None of
those should abort the run, and none of them may change its results.

The pieces:

* :class:`RetryPolicy` — per-task timeout, bounded exponential backoff
  with *deterministic* seeded jitter (a replayed run waits the same
  milliseconds), a retry budget, and a pool-restart budget after which
  the engine degrades gracefully to serial execution;
* :func:`validate_result` — integrity checking of every simulator
  result before it is accepted into the cache (a wrong-shaped or
  mislabelled result raises at once: the simulator is deterministic,
  so retrying it would only repeat the violation);
* :func:`quarantine_file` — the shared "move it aside and carry on"
  primitive the cache and checkpoint tiers use for corrupt files;
* :func:`parse_retry_after` — the one reader of an HTTP server's
  ``Retry-After`` header, for the service client and the ``http:``
  cache backend (each applies its own cap).

Retries apply only to pooled map tasks, the one place work fails
without the code being wrong.  Because the task itself is
deterministic, a retried task returns exactly the value the failed
attempt would have: retries, timeouts, pool restarts and serial
degradation are all invisible in the output — ``jobs=4`` under heavy
fault injection is bit-identical to a clean ``jobs=1`` run (the
fault-matrix suite asserts this).
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from pathlib import Path

from ..errors import EngineError
from ..sim.metrics import SimResult
from .faults import InjectedCrash, InjectedFault
from .keys import unit_draw


class ResultIntegrityError(EngineError):
    """A simulator returned a result that fails integrity validation."""


def failure_reason(exc: BaseException) -> str:
    """Classify one retryable failure for event payloads and journals.

    The taxonomy lives here, next to the retry policy that consumes it,
    so the pool's retry events and telemetry label the same exception
    the same way: ``crash`` (worker died), ``hang`` (injected stall),
    ``timeout`` (per-task deadline), ``pool`` (anything else the pool
    surfaced).
    """
    if isinstance(exc, InjectedCrash):
        return "crash"
    if isinstance(exc, InjectedFault):
        return "hang"
    if isinstance(exc, FuturesTimeout):
        return "timeout"
    return "pool"


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine treats failing pooled map tasks.

    Parameters
    ----------
    max_retries:
        Retries per task beyond the first attempt; exhausting them
        raises :class:`~repro.errors.EngineError`.
    timeout_s:
        Per-task deadline of a pooled :meth:`EvaluationEngine.map` task
        (a whole search, restart or sweep point); ``None``
        (the default) waits forever.  A timed-out task marks the pool
        suspect (a wedged worker cannot be preempted), so the pool is
        restarted and the task retried.
    backoff_base_s, backoff_factor, backoff_max_s:
        Bounded exponential backoff: retry ``n`` waits
        ``min(base * factor**(n-1), max)`` seconds before re-running.
    jitter:
        Fractional jitter band around the backoff delay (0.25 means
        +/-25%), drawn deterministically from ``(seed, key, attempt)``
        so replayed runs sleep identically.
    seed:
        Seed of the jitter draws.
    pool_restarts:
        Worker-pool rebuilds tolerated (after crashes or timeouts)
        before the engine degrades to serial execution for the rest of
        its life.
    """

    max_retries: int = 3
    timeout_s: float | None = None
    backoff_base_s: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EngineError(f"max_retries cannot be negative: {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise EngineError(f"timeout_s must be positive: {self.timeout_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise EngineError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise EngineError(f"backoff_factor must be >= 1: {self.backoff_factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise EngineError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.pool_restarts < 0:
            raise EngineError(f"pool_restarts cannot be negative: {self.pool_restarts}")

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of task ``key``.

        Deterministic: the exponential ramp is clamped to
        ``backoff_max_s`` and scaled by a jitter factor in
        ``[1 - jitter, 1 + jitter]`` drawn from SHA-256 of
        ``(seed, key, attempt)`` — no global RNG state is consumed.
        """
        if attempt < 1:
            return 0.0
        raw = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if raw <= 0.0:
            return 0.0
        unit = unit_draw("backoff", self.seed, key, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)


def parse_retry_after(headers: dict[str, str]) -> float | None:
    """Seconds a response's ``Retry-After`` header asks to wait.

    The header name matches in any case; a negative delay reads as 0.
    ``None`` when the header is absent or not a number of seconds
    (HTTP dates are not honoured).
    """
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                seconds = float(value)
            except ValueError:
                return None
            return None if math.isnan(seconds) else max(seconds, 0.0)
    return None


def validate_result(profile, result: SimResult) -> SimResult:
    """Accept ``result`` as the evaluation of ``profile`` or raise.

    Catches a result labelled for a different workload, or
    non-finite/non-positive performance numbers.  Raises
    :class:`ResultIntegrityError` on any violation; the engine does not
    retry it, since a deterministic simulator would repeat it.
    """
    if not isinstance(result, SimResult):
        raise ResultIntegrityError(
            f"evaluation returned {type(result).__name__}, not SimResult"
        )
    name = getattr(profile, "name", None)
    if name is not None and result.workload != name:
        raise ResultIntegrityError(
            f"result for workload {result.workload!r} returned for {name!r}"
        )
    for label, value in (
        ("instructions", result.instructions),
        ("cycles", result.cycles),
        ("clock_period_ns", result.clock_period_ns),
    ):
        if not math.isfinite(value) or value <= 0:
            raise ResultIntegrityError(f"result has invalid {label}: {value}")
    return result


#: Circuit breaker states.
CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a deterministic cool-down.

    Network-facing tiers (the ``http:`` cache backend, the replica
    client) must not hammer a dead peer with full retry budgets on every
    operation.  The breaker tracks consecutive failures; at
    ``failure_threshold`` it *opens* and :meth:`allow` answers False —
    callers skip the remote and serve their degraded path — until the
    cool-down elapses.  The first call after the cool-down transitions
    to *half-open* and is allowed through as a probe: success closes the
    circuit, failure re-opens it with the cool-down scaled by
    ``cooldown_factor`` (bounded by ``cooldown_max_s``).  Every delay is
    a pure function of the failure history — no randomness — so a
    replayed fault sequence produces the identical open/half-open/close
    transition sequence (the chaos suite asserts this).

    Thread-safe; all transitions are appended to :attr:`transitions`
    (``{"from", "to", "reason", "at"}``) for telemetry and tests, and
    monotonic counters live in :attr:`counters`
    (``opened``/``closed``/``probes``/``rejected``).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 2.0,
        cooldown_factor: float = 2.0,
        cooldown_max_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise EngineError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        if cooldown_s < 0 or cooldown_max_s < 0:
            raise EngineError("cool-down delays cannot be negative")
        if cooldown_factor < 1.0:
            raise EngineError(f"cooldown_factor must be >= 1: {cooldown_factor}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.cooldown_factor = cooldown_factor
        self.cooldown_max_s = cooldown_max_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = CIRCUIT_CLOSED
        self.consecutive_failures = 0
        self.opened_count = 0  # consecutive opens (resets on close)
        self._opened_at = 0.0
        self.transitions: list[dict] = []
        self.counters = {"opened": 0, "closed": 0, "probes": 0, "rejected": 0}

    def _transition(self, state: str, reason: str) -> None:
        self.transitions.append(
            {
                "from": self.state,
                "to": state,
                "reason": reason,
                "at": round(self._clock(), 6),
            }
        )
        self.state = state

    def current_cooldown_s(self) -> float:
        """The cool-down of the current open period (deterministic ramp)."""
        scale = self.cooldown_factor ** max(self.opened_count - 1, 0)
        return min(self.cooldown_s * scale, self.cooldown_max_s)

    def allow(self) -> bool:
        """Whether the next remote call may proceed.

        Closed: always.  Open: only once the cool-down has elapsed, in
        which case the circuit moves to half-open and this call is the
        probe.  Half-open: the probe is already in flight — callers
        short-circuit to their degraded path.
        """
        with self._lock:
            if self.state == CIRCUIT_CLOSED:
                return True
            if self.state == CIRCUIT_OPEN:
                if self._clock() - self._opened_at >= self.current_cooldown_s():
                    self._transition(CIRCUIT_HALF_OPEN, "cool-down elapsed")
                    self.counters["probes"] += 1
                    return True
                self.counters["rejected"] += 1
                return False
            # half-open: exactly one probe at a time
            self.counters["rejected"] += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            if self.state != CIRCUIT_CLOSED:
                self._transition(CIRCUIT_CLOSED, "probe succeeded")
                self.counters["closed"] += 1
                self.opened_count = 0

    def record_failure(self, reason: str = "remote call failed") -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state == CIRCUIT_HALF_OPEN or (
                self.state == CIRCUIT_CLOSED
                and self.consecutive_failures >= self.failure_threshold
            ):
                self.opened_count += 1
                self._opened_at = self._clock()
                self._transition(CIRCUIT_OPEN, reason)
                self.counters["opened"] += 1

    def snapshot(self) -> dict:
        """State + counters for telemetry payloads."""
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "transitions": len(self.transitions),
                **self.counters,
            }


def quarantine_file(path: str | Path) -> Path:
    """Move a corrupt file aside (``<name>.corrupt``) and return the new path.

    Overwrites any previous quarantine of the same file — the latest
    corruption is the interesting one — and tolerates the file vanishing
    underneath us (another process may have quarantined it first).
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except FileNotFoundError:
        pass
    return target
